"""Every function, class and method of the library has a caller in the library.

A name that only tests read is code the library carries for its tests. The
check parses `src/acopt/*.py` and counts, for each top-level function and
class and each method, the references to its name (a name or an attribute
with that spelling) anywhere in the library outside its own definition.
The `__init__` re-export is an import, not a reference. Dunder methods are
called by Python itself and are not counted.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "acopt"

# Deliberate references: each is a paper property's oracle that tests compare against.
TEST_ONLY = {
    "invariant_interval",  # the maximum principle's confinement interval, acceptance criterion 5
    "trajectory_sup_norm",  # the stability envelope's state norm, acceptance criterion 10
    "solve_second_derivative",  # the second-derivative march behind the C^2 identities
}


def _library():
    """Definitions as (module, qualified name, node); references as name -> [(module, line)]."""
    definitions, references = [], {}
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                references.setdefault(name, []).append((module, node.lineno))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions.append((module, node.name, node))
            if isinstance(node, ast.ClassDef):
                definitions += [
                    (module, f"{node.name}.{item.name}", item)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__")
                ]
    return definitions, references


def test_every_library_definition_has_a_library_caller():
    definitions, references = _library()
    uncalled = set()
    for module, qualified, node in definitions:
        callers = [
            (mod, line)
            for mod, line in references.get(qualified.rsplit(".", 1)[-1], [])
            if not (mod == module and node.lineno <= line <= node.end_lineno)
        ]
        if not callers:
            uncalled.add(qualified)
    assert uncalled == TEST_ONLY
