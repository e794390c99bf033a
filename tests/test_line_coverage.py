"""``scripts/line_coverage.py`` lists the package lines that a test run
does not reach, and leaves out the ones it reaches and the definitions."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def line_of(path, statement) -> int:
    """The number of the line of ``path`` that holds ``statement`` alone."""
    lines = [line.strip() for line in (ROOT / path).read_text().splitlines()]
    return lines.index(statement) + 1


def test_lists_a_line_the_test_cannot_reach():
    result = subprocess.run(
        [sys.executable, "scripts/line_coverage.py",
         "tests/test_alignment.py::test_refusal_messages", "-q", "-p", "no:cacheprovider"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    listed = set(re.findall(r"^(src/\S+\.py:\d+): ", result.stdout, re.MULTILINE))
    experiment = "src/layermerge/toy/experiment.py"
    alignment = "src/layermerge/alignment.py"
    # aligning pools renders no toy report
    body = 'return (json.dumps(report, sort_keys=True, indent=2) + "\\n").encode("utf-8")'
    assert f"{experiment}:{line_of(experiment, body)}" in listed
    assert f"{experiment}:{line_of(experiment, body) - 1}" not in listed  # its def line
    # but it refuses an empty pool
    refusal = line_of(alignment, 'raise AlignmentError("empty checkpoint pool")')
    assert f"{alignment}:{refusal}" not in listed
    missed, total = map(int, re.search(
        r"^(\d+) of (\d+) executable lines of src/layermerge ran in no test$",
        result.stdout, re.MULTILINE).groups())
    assert missed == len(listed) and 0 < missed < total
