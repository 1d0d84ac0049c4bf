"""What a process imports and writes: no command imports scipy or numpy.fft,
each command loads only the modules it runs, and a fresh process writes the
same document as this one, where other commands ran before.

These checks need an interpreter that has not imported the modules yet, so
each command runs in a fresh one: ``cli.main`` is called there, as the
installed ``cohcert`` script calls it, and then ``sys.modules`` is inspected.
"""

import importlib
import json

import pytest

import cohcert
from cohcert.cli import main
from conftest import run_python, write_w3_fringe


def run_fresh(script, *args, cwd):
    """Run ``script`` in a fresh interpreter and return the JSON it prints."""
    proc = run_python(["-c", script, *args], cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


LOADS_SCRIPT = """
import json, sys
from cohcert.cli import main

code = main(json.loads(sys.argv[1]))
watched = json.loads(sys.argv[2])
print(json.dumps({"code": code, "loaded": [m for m in watched if m in sys.modules]}))
"""
# no command loads these: the library is numpy only, and p is evaluated on
# grids through one cached basis, never by an FFT
NONE = {"scipy", "numpy.fft"}
# certify, moments and vertex-check run none of these modules
LIGHT = {"cohcert.optimize", "cohcert.robustness", "cohcert.approx", "numpy.polynomial",
         "numpy.random"}
# the Newton searches and the Werner thresholds need no companion-matrix roots
SEARCH = {"cohcert.robustness", "cohcert.approx", "numpy.polynomial"}
APPROX = ["approx", "--target", "werner:4:0.3", "--q", "2"]


@pytest.mark.parametrize("argv, absent, present", [
    pytest.param(["certify", "--state", "W:3"], LIGHT, {"cohcert.cli", "cohcert.patterns"},
                 id="certify-state"),
    pytest.param(["certify", "--input", "FRINGE", "--dim", "3"], LIGHT,
                 {"cohcert.cli", "cohcert.patterns"}, id="certify-input"),
    pytest.param(["moments", "--state", "W:3"], LIGHT, set(), id="moments"),
    pytest.param(["vertex-check"], LIGHT, set(), id="vertex-check"),
    pytest.param(["werner-sweep", "--k", "3"], SEARCH, {"cohcert.optimize"}, id="werner-sweep"),
    # the summary takes its median and quartiles from one sort, not through numpy.ma
    pytest.param(["gue-sweep", "--k", "4", "--samples", "40", "--seed", "7"],
                 {"cohcert.optimize", "cohcert.approx", "numpy.ma"}, {"cohcert.robustness"},
                 id="gue-sweep"),
    pytest.param(["tables", "--restarts", "32", "--seed", "1"], SEARCH, {"cohcert.optimize"},
                 id="tables"),
    pytest.param(["optimize", "--n", "3", "--k", "3"], SEARCH, {"cohcert.optimize"},
                 id="optimize"),
    pytest.param(APPROX, {"cohcert.robustness", "numpy.polynomial"}, {"cohcert.approx"},
                 id="approx"),
    pytest.param(APPROX + ["--format", "csv"], {"cohcert.robustness", "numpy.polynomial"},
                 {"cohcert.approx"}, id="approx-csv"),
])
def test_each_command_loads_only_its_modules(tmp_path, argv, absent, present):
    fringe = tmp_path / "fringe.csv"
    write_w3_fringe(fringe)
    argv = [str(fringe) if a == "FRINGE" else a for a in argv]
    absent = absent | NONE
    fresh, here = tmp_path / "fresh.out", tmp_path / "here.out"
    result = run_fresh(LOADS_SCRIPT, json.dumps(argv + ["--out", str(fresh)]),
                       json.dumps(sorted(absent | present)), cwd=tmp_path)
    assert result["code"] == 0
    assert set(result["loaded"]) & absent == set()
    assert present <= set(result["loaded"])
    # a seeded command recomputes from its seed: the fresh process, with its own
    # hash seed and empty caches, writes the same bytes
    assert main(argv + ["--out", str(here)]) == 0
    assert fresh.read_bytes() == here.read_bytes()


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
