"""The public names that no package code uses are exactly the ones kept on purpose.

A public module-level function or class, or a public method, whose name no
module of the package mentions (``__init__.py``, which only re-exports, is
not counted) is reached by tests alone.  Such a name stays only with a reason:
it is an oracle that a fast path is checked against, it backs an acceptance
criterion, or a ROADMAP item is about to use it.  Anything else is a parallel
API and is deleted instead of listed here.
"""

import ast
from pathlib import Path

import cuntzboson

PACKAGE = Path(cuntzboson.__file__).resolve().parent

KEPT = {
    "boson.literal_annihilate": "oracle: the truncated defining series of a_n behind the closed ladder rule",
    "boson.literal_create": "oracle: the truncated defining series of a_n* behind the closed ladder rule",
    "words.expand": "oracle: dense letters of a (prefix, cycle) pair, independent of EPWord",
    "words.EPWord.expand": "the dense view of a sparse label that the sparse operations are compared with",
    "branching.cyclicity_witness": "backs acceptance criterion 2; the branch report of ROADMAP item 5",
    "branching.inequivalence_witness": "backs acceptance criterion 4; the branch report of ROADMAP item 5",
    "states.Ket.from_json": "reads the ket of a failure record back for replay (ROADMAP item 1)",
}


def _definitions(module: str, tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{module}.{node.name}.{item.name}", item.name


def _unreferenced() -> set[str]:
    defined: dict[str, str] = {}
    referenced: set[str] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        defined.update(_definitions(path.stem, tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return {qualified for qualified, name in defined.items() if name not in referenced}


def test_only_kept_names_are_unreferenced_in_the_package():
    assert _unreferenced() == set(KEPT)

