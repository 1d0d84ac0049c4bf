"""What a process imports: no command imports scipy, as the library is numpy
only, and each command loads only the modules it runs.

These checks need an interpreter that has not imported the modules yet, so
each runs in a fresh one: the commands are called in-process there, and then
``sys.modules`` is inspected.
"""

import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cohcert
from cohcert.cli import main

ROOT = Path(__file__).resolve().parents[1]


def run_fresh(script, *args, cwd):
    """Run ``script`` in a fresh interpreter that imports cohcert from this
    checkout, and return the JSON it prints."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, *map(str, args)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def write_fringe(path):
    t = [2 * math.pi * i / 32 for i in range(32)]
    path.write_text("t,p\n" + "".join(f"{ti!r},{(1 + math.cos(ti)) / 2!r}\n" for ti in t))


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
    write_fringe(fringe)
    fresh = tmp_path / "optimize-fresh.json"
    result = run_fresh(SCRIPT, fringe, fresh, cwd=tmp_path)
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
    result = run_fresh(APPROX_SCRIPT, tmp_path / "fresh", cwd=tmp_path)
    assert result == {"codes": [0, 0], "scipy": []}

    for fmt in ("json", "csv"):
        here = tmp_path / f"here.{fmt}"
        argv = ["approx", "--target", "werner:4:0.3", "--q", "2", "--format", fmt]
        assert main(argv + ["--out", str(here)]) == 0
        assert (tmp_path / f"fresh.{fmt}").read_text() == here.read_text()


LOADS_SCRIPT = """
import json, sys
from cohcert.cli import main

code = main(json.loads(sys.argv[1]))
watched = json.loads(sys.argv[2])
print(json.dumps({"code": code, "loaded": [m for m in watched if m in sys.modules]}))
"""
# certify, moments and vertex-check run none of these modules
LIGHT = ({"cohcert.optimize", "cohcert.robustness", "cohcert.approx", "numpy.polynomial",
          "numpy.random"}, set())


@pytest.mark.parametrize("argv, loads", [
    (["certify", "--state", "W:3"], LIGHT),
    (["certify", "--input", "FRINGE"], LIGHT),
    (["moments", "--state", "W:3"], LIGHT),
    (["vertex-check"], LIGHT),
    (["gue-sweep", "--k", "3", "--samples", "1"],
     ({"cohcert.optimize", "cohcert.approx", "numpy.ma"}, {"cohcert.robustness"})),
    (["tables", "--restarts", "1"],
     ({"cohcert.robustness", "cohcert.approx", "numpy.polynomial"}, {"cohcert.optimize"})),
    (["approx", "--target", "werner:4:0.3", "--q", "2"],
     ({"cohcert.robustness", "numpy.polynomial"}, {"cohcert.approx"})),
], ids=["certify-state", "certify-input", "moments", "vertex-check", "gue-sweep", "tables",
        "approx"])
def test_each_command_loads_only_its_modules(tmp_path, argv, loads):
    absent, present = loads
    fringe = tmp_path / "fringe.csv"
    write_fringe(fringe)
    argv = [str(fringe) if a == "FRINGE" else a for a in argv] + ["--out", str(tmp_path / "out")]
    watched = sorted(absent | present)
    result = run_fresh(LOADS_SCRIPT, json.dumps(argv), json.dumps(watched), cwd=tmp_path)
    assert result["code"] == 0
    assert set(result["loaded"]) & absent == set()
    assert present <= set(result["loaded"])


def test_package_names_resolve_to_their_modules():
    homes = [importlib.import_module(f"cohcert.{m}")
             for m in ("approx", "bounds", "optimize", "patterns", "robustness", "states")]
    assert sorted(cohcert.__all__) == sorted(name for mod in homes for name in mod.__all__)
    for mod in homes:
        for name in mod.__all__:
            assert getattr(cohcert, name) is getattr(mod, name)
    assert set(cohcert.__all__) <= set(dir(cohcert))
    namespace = {}
    exec("from cohcert import *", namespace)
    assert all(namespace[name] is getattr(cohcert, name) for name in cohcert.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        cohcert.no_such_name


LAZY_SCRIPT = """
import json, sys
import cohcert

loaded = sorted(m for m in sys.modules if m.startswith("cohcert."))
print(json.dumps({"loaded": loaded, "nnls": cohcert.approx.nnls.__name__}))
"""


def test_bare_import_loads_no_submodule(tmp_path):
    assert run_fresh(LAZY_SCRIPT, cwd=tmp_path) == {"loaded": [], "nnls": "nnls"}


FFT_SCRIPT = """
import json, sys
from cohcert.cli import main

fringe, out = sys.argv[1:]
commands = [
    ["certify", "--state", "W:3"],
    ["certify", "--input", fringe],
    ["moments", "--state", "W:3"],
    ["vertex-check"],
    ["werner-sweep", "--k", "3"],
    ["gue-sweep", "--k", "3", "--samples", "1"],
    ["tables", "--restarts", "1"],
    ["optimize", "--n", "3", "--k", "3"],
    ["approx", "--target", "werner:4:0.3", "--q", "2"],
    ["approx", "--target", "werner:4:0.8", "--q", "3", "--format", "csv"],
]
codes = [main(argv + ["--out", out]) for argv in commands]
print(json.dumps({"codes": codes, "fft": "numpy.fft" in sys.modules}))
"""


def test_no_command_loads_numpy_fft(tmp_path):
    # p is evaluated on grids through one cached basis, never by an FFT
    fringe = tmp_path / "fringe.csv"
    write_fringe(fringe)
    result = run_fresh(FFT_SCRIPT, fringe, tmp_path / "out", cwd=tmp_path)
    assert result == {"codes": [0] * 10, "fft": False}
