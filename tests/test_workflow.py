"""The CI workflow holds commands only; every check it runs beyond tier-1 is a
test in ``tests/ci_checks.py``, which anyone can run with one command."""

from __future__ import annotations

import re
from pathlib import Path

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"


def test_workflow_holds_commands_only():
    text = WORKFLOW.read_text(encoding="utf-8")
    lines = text.splitlines()
    assert "<<" not in text, "a heredoc: move its check into tests/ci_checks.py"
    # an inline script longer than one line opens a quote it does not close
    scripts = [line for line in lines if re.search(r"\s-c\s", line)]
    assert all(line.count("'") % 2 == 0 and line.count('"') % 2 == 0 for line in scripts), scripts
    assert len(lines) <= 60, len(lines)
    assert re.search(r"^\s+run: python -m pytest -q tests/ci_checks\.py$", text, re.M)
