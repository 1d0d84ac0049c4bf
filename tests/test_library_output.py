"""Library modules write nothing to the console; only the CLI does."""

import ast
from pathlib import Path

import cohcert

PACKAGE = Path(cohcert.__file__).parent


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
