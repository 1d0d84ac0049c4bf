"""What the library's source holds: modules write nothing to the console (only
the CLI does), and every public name has a caller outside the tests."""

import ast
from pathlib import Path

import cohcert

PACKAGE = Path(cohcert.__file__).parent
ROOT = Path(__file__).resolve().parents[1]

# Public names that nothing in the package, the demos or the benchmark calls, each
# with the reason it stays public.
KEPT = {
    "rn_of_alpha": "the paper's R_n(alpha), the objective maximized for Table 2",
    "werner_rn": "R_n of a Werner state under a chosen projection chi, through which "
                 "the paper's maximum over chi of R_3(0.18) = 1.26 is reproduced",
    "d_from_alpha": "the polytope reparametrization D_n of the R_3 bounds; its fate is "
                    "decided with the exact R_3 prover",
    "r3_from_d": "R_3 in the D_n coordinates, as d_from_alpha",
    "hessian_principal_minors": "the convexity check in the D_n coordinates, as d_from_alpha",
}


def console_writes(tree):
    """Lines that call ``print`` or name ``sys.stdout`` / ``sys.stderr``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "print":
            yield node.lineno
        elif isinstance(node, ast.Attribute) and node.attr in ("stdout", "stderr") \
                and isinstance(node.value, ast.Name) and node.value.id == "sys":
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "sys" \
                and any(a.name in ("stdout", "stderr") for a in node.names):
            yield node.lineno


def test_only_the_cli_writes_to_the_console():
    modules = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "cli.py" in modules
    found = {path.name: list(console_writes(ast.parse(path.read_text())))
             for path in modules if path.name != "cli.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}
    assert list(console_writes(ast.parse((PACKAGE / "cli.py").read_text())))


def referenced_names(paths):
    """Every identifier that ``paths`` read as a bare name or as an attribute."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_name_has_a_caller():
    sources = [path for path in PACKAGE.glob("*.py") if path.name != "__init__.py"]
    sources += [*(ROOT / "demos").glob("*.py"), *(ROOT / "cohbench").glob("*.py")]
    # equality, so that an exception whose name gains a caller leaves the table
    assert set(cohcert.__all__) - referenced_names(sources) == set(KEPT)
