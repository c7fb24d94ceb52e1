"""Variational calculus on weighted graphs.

Discrete differential operators (Laplacian, p-Laplacian, higher-order weak
forms), Sobolev norms with embedding constants, energy functionals with
exact gradients, admissible-parameter intervals for three-solution results,
and a multistart/deflation critical-point solver.
"""

from .calculus import (
    gamma,
    grad_norm,
    laplacian,
    lr_norm,
    m_grad_norm,
    p_laplacian,
    poly_lap_pointwise,
    poly_lap_weak,
)
from .functionals import (
    Problem,
    ProblemSpec,
    ScalarProblem,
    StatePair,
    action,
    action_gradient,
    monotonicity_gap,
    monotonicity_modulus,
    phi_energy,
    psi_energy,
    w_distance,
)
from .graph import (
    VertexFunction,
    WeightedGraph,
    build_graph,
    generate_builtin,
    grid3x3,
    integrate,
    lattice_ball,
    lattice_ball_center,
    load_graph,
    save_graph,
    serialize,
)
from .intervals import (
    IntervalReport,
    LocalMass,
    box_max_F,
    interval_finite,
    interval_locally_finite,
    kappa_finite,
    local_mass,
)
from .nonlinearity import (
    NonlinearityModel,
    builtin_example_6_1,
    builtin_example_6_2,
    derivative_consistency,
    tabulated_model,
)
from .problems import builtin_problem, problem_from_doc
from .sobolev import (
    SobolevSpec,
    lr_embedding_const,
    lr_embedding_const_floors,
    sup_embedding_const,
    sup_embedding_const_floors,
    w_norm,
)
from .solver import (
    CriticalPoint,
    SolutionSet,
    SolverConfig,
    deflated_solve,
    find_three,
    minimize,
    residual,
    solution_set_from_doc,
    solution_set_to_json,
)

__version__ = "0.1.0"
