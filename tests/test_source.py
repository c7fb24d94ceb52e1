"""Source-level guards: the library's behaviour is set by its arguments
alone, with no environment variables and no threads."""

import re
from pathlib import Path

import graphvar

FORBIDDEN = re.compile(r"os\.environ|getenv|concurrent\.futures|threading")


def test_library_reads_no_environment_and_starts_no_threads():
    src = Path(graphvar.__file__).parent
    hits = [f"{path.name}:{i}: {line.strip()}"
            for path in sorted(src.glob("**/*.py"))
            for i, line in enumerate(path.read_text().splitlines(), 1)
            if FORBIDDEN.search(line)]
    assert hits == []
