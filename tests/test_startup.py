"""No command imports scipy: the library is numpy only.

The check needs an interpreter that has not imported scipy yet, so it runs
in a fresh one: every command, ``tables`` and ``optimize`` included, is
called in-process there, and then ``sys.modules`` is inspected.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

from cohcert.cli import main

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
from cohcert.cli import main

fringe, optimize_out = sys.argv[1:]
commands = [
    ["certify", "--state", "W:3"],
    ["certify", "--input", fringe],
    ["moments", "--state", "W:3"],
    ["vertex-check"],
    ["werner-sweep", "--k", "3"],
    ["gue-sweep", "--k", "3", "--samples", "1"],
    ["tables", "--restarts", "1"],
]
codes = [main(argv + ["--out", fringe + ".out"]) for argv in commands]
codes.append(main(["optimize", "--n", "3", "--k", "3", "--out", optimize_out]))
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"codes": codes, "scipy": scipy}))
"""


def test_no_command_loads_scipy(tmp_path):
    fringe = tmp_path / "fringe.csv"
    t = [2 * math.pi * i / 32 for i in range(32)]
    fringe.write_text("t,p\n" + "".join(f"{ti!r},{(1 + math.cos(ti)) / 2!r}\n" for ti in t))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    fresh = tmp_path / "optimize-fresh.json"
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(fringe), str(fresh)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["scipy"] == []
    assert result["codes"] == [0] * 8

    here = tmp_path / "optimize-here.json"
    assert main(["optimize", "--n", "3", "--k", "3", "--out", str(here)]) == 0
    assert fresh.read_text() == here.read_text()


APPROX_SCRIPT = """
import json, sys
from cohcert.cli import main

out = sys.argv[1]
argv = ["approx", "--target", "werner:4:0.3", "--q", "2"]
codes = [main(argv + ["--format", fmt, "--out", f"{out}.{fmt}"]) for fmt in ("json", "csv")]
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"codes": codes, "scipy": scipy}))
"""


def test_approx_leaves_scipy_unloaded(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", APPROX_SCRIPT, str(tmp_path / "fresh")],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"codes": [0, 0], "scipy": []}

    for fmt in ("json", "csv"):
        here = tmp_path / f"here.{fmt}"
        argv = ["approx", "--target", "werner:4:0.3", "--q", "2", "--format", fmt]
        assert main(argv + ["--out", str(here)]) == 0
        assert (tmp_path / f"fresh.{fmt}").read_text() == here.read_text()
