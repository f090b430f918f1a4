"""The gates CI enforces, runnable locally as plain tests.

* ``src/`` lints clean against the committed baseline (the CI gate).
* The committed baseline is well-formed and empty: no accepted debt.
* magelint lints its own source clean — the analyzer is held to the
  rules it enforces.
* mypy passes on the strict-ring modules (skipped when mypy is not
  installed; CI installs it).
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from magelint.engine import lint_paths
from magelint.suppress import load_baseline

REPO_ROOT = Path(__file__).resolve().parents[2]
BASELINE = REPO_ROOT / "tools/magelint/baseline.txt"


def test_src_lints_clean_with_committed_baseline():
    run = lint_paths([REPO_ROOT / "src"], root=REPO_ROOT, baseline=BASELINE)
    assert run.parse_errors == []
    rendered = "\n".join(f.render() for f in run.findings)
    assert run.findings == [], f"magelint findings in src/:\n{rendered}"
    stale = "\n".join(run.stats.stale_baseline)
    assert run.stats.stale_baseline == [], f"stale baseline entries:\n{stale}"


def test_committed_baseline_is_empty():
    # load_baseline also rejects malformed lines and empty reasons.
    assert load_baseline(BASELINE) == {}


def test_magelint_lints_itself_clean():
    run = lint_paths([REPO_ROOT / "tools/magelint"], root=REPO_ROOT)
    assert run.parse_errors == []
    rendered = "\n".join(f.render() for f in run.findings)
    assert run.findings == [], f"magelint findings in its own source:\n{rendered}"


def test_mypy_strict_ring_passes():
    pytest.importorskip("mypy")
    result = subprocess.run(
        [sys.executable, "-m", "mypy", "--config-file", "mypy.ini",
         "src/repro/errors.py", "src/repro/net/deadline.py",
         "src/repro/net/endpoint.py"],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
