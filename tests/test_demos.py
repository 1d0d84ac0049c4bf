"""Every script under demos/ runs to completion against the source tree."""

from pathlib import Path

import pytest

from conftest import run_python

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_runs(script):
    proc = run_python([script], cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
