"""The gates CI enforces, runnable locally as plain tests.

* The CI workflow parses, and every test, bench or example path its
  steps run exists.
* ``src/`` lints clean against the committed baseline (the CI gate).
* The committed baseline is well-formed and empty: no accepted debt.
* magelint lints its own source clean — the analyzer is held to the
  rules it enforces.

The mypy strict ring has its own module, ``test_mypy_ring.py``.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from magelint.engine import lint_paths
from magelint.suppress import load_baseline

REPO_ROOT = Path(__file__).resolve().parents[2]
BASELINE = REPO_ROOT / "tools/magelint/baseline.txt"


def test_ci_workflow_parses_and_every_path_it_runs_exists():
    """A workflow that YAML cannot parse turns every later CI step off without
    failing anything, and a step naming a moved file fails only in CI."""
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load(
        (REPO_ROOT / ".github/workflows/ci.yml").read_text())
    runs = [step["run"] for job in workflow["jobs"].values()
            for step in job["steps"] if "run" in step]
    assert runs
    named = set(re.findall(r"\b(?:tests|benchmarks|examples)/[\w./-]*",
                           "\n".join(runs)))
    assert named
    missing = sorted(path for path in named if not (REPO_ROOT / path).exists())
    assert missing == [], f"CI runs paths that do not exist: {missing}"


def test_src_lints_clean_with_committed_baseline():
    run = lint_paths([REPO_ROOT / "src"], root=REPO_ROOT, baseline=BASELINE)
    assert run.parse_errors == []
    rendered = "\n".join(f.render() for f in run.findings)
    assert run.findings == [], f"magelint findings in src/:\n{rendered}"
    # A finding gets fixed, not suppressed: the one inline disable is
    # tcpnet's deliberate conversion of a handler's interrupt into an
    # error reply.
    assert run.stats.suppressed_inline <= 1
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
