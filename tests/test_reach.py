"""Every module-level function and class in ``src/qdeco`` is reached from
the package or the benchmark: one that only tests name is code no run
executes.  Names count where the code uses them (a name, an attribute, an
import) or where ``bench/`` names them in a string, as the tracer does its
targets; comments and docstrings do not count."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# dense references the tests check the fast paths against
ORACLES = {"evolve", "build_hamiltonian", "closed_forms"}


def _is_click_command(node):
    """Decorated with ``@<group>.command(...)`` or ``@click.group()``."""
    for dec in node.decorator_list:
        func = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(func, ast.Attribute) and func.attr in ("command", "group"):
            return True
    return False


def _used_names(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                names.update(parts)
    return names


def test_every_module_level_definition_is_reached_outside_tests():
    src = sorted((ROOT / "src" / "qdeco").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in src}
    used = set().union(*(_used_names(tree) for tree in trees.values()))
    for path in sorted((ROOT / "bench").rglob("*.py")):
        if "tests" not in path.relative_to(ROOT / "bench").parts:
            used |= _used_names(ast.parse(path.read_text()))
    unreached = [
        f"{path.name}:{node.lineno} {node.name}"
        for path, tree in trees.items() for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in used | ORACLES and not _is_click_command(node)]
    assert not unreached, f"named only by tests: {unreached}"
