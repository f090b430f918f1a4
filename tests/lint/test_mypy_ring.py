"""The mypy strict ring, checked in tier-1 wherever mypy is installed.

The ring's file list is read from the ``mypy`` step of
``.github/workflows/ci.yml``, so this test and CI cannot drift apart.
Without mypy the test skips, and its reason says the ring went
unverified.
"""

from __future__ import annotations

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
MYPY_COMMAND = re.compile(r"python -m mypy --config-file mypy\.ini (.+)")


def strict_ring() -> list[str]:
    """The files CI's mypy step checks."""
    workflow = (REPO_ROOT / ".github/workflows/ci.yml").read_text()
    commands = MYPY_COMMAND.findall(workflow)
    assert len(commands) == 1, commands
    return commands[0].split()


def test_mypy_strict_ring_passes():
    files = strict_ring()
    assert "src/repro/net/endpoint.py" in files
    missing = [name for name in files if not (REPO_ROOT / name).is_file()]
    assert missing == [], f"CI's mypy step names missing files: {missing}"
    if importlib.util.find_spec("mypy") is None:
        pytest.skip("mypy not installed: strict ring unverified")
    result = subprocess.run(
        [sys.executable, "-m", "mypy", "--config-file", "mypy.ini", *files],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
