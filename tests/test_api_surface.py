"""The public names that no package code uses are exactly the ones kept on purpose.

A public module-level function or class, or a public method, whose name no
module of the package mentions (``__init__.py``, which only re-exports, is
not counted) is reached by tests alone.  Such a name stays only with a reason:
it is an oracle that a fast path is checked against, it backs an acceptance
criterion, or a ROADMAP item is about to use it.  Anything else is a parallel
API and is deleted instead of listed here.  A private module-level function
or method has no such reason: the package must mention its name outside its
own definition, or it is deleted.

A class body may also give a method a second name (``__radd__ = __add__``).
Between two dunders that is how Python spells the reflected or fallback
operator; any other alias is a second public way to do one job.  So is a
method whose body is only ``return C(...)`` for another package class ``C``:
it is a second constructor of ``C``.
"""

import ast
import importlib
import inspect
from collections import Counter
from pathlib import Path

import cuntzboson
from cuntzboson import cli, verify

PACKAGE = Path(cuntzboson.__file__).resolve().parent

KEPT = {
    "boson.literal_annihilate": "oracle: the truncated defining series of a_n behind the closed ladder rule",
    "boson.literal_create": "oracle: the truncated defining series of a_n* behind the closed ladder rule",
    "branching.cyclicity_witness": "backs acceptance criterion 2; the branch report of ROADMAP item 5",
    "branching.inequivalence_witness": "backs acceptance criterion 4; the branch report of ROADMAP item 5",
    "states.Ket.from_json": "reads the ket of a failure record back for replay (ROADMAP item 1)",
}
# The free function ``words.expand`` is an oracle too, reached by tests alone; it is not
# listed because ``EPWord._split`` calls the method ``EPWord.expand``, and this check
# matches names, not definitions.


def _definitions(module: str, tree: ast.Module):
    """``(qualified name, name, node)`` of each module-level function and class, and each method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        yield f"{module}.{node.name}.{item.name}", item.name, item


def _mentions(node: ast.AST) -> Counter:
    """How often ``node`` mentions each name, as a variable or as an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _unreferenced() -> set[str]:
    """Public definitions that no package module mentions, and private functions and
    methods that none mentions outside their own definition."""
    defined = []
    mentioned: Counter = Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        defined += _definitions(path.stem, tree)
        mentioned += _mentions(tree)
    found = set()
    for qualified, name, node in defined:
        own = _mentions(node)[name] if name.startswith("_") else 0
        if not _dunder(name) and mentioned[name] == own:
            found.add(qualified)
    return found


def test_only_kept_names_are_unreferenced_in_the_package():
    assert _unreferenced() == set(KEPT)



def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _method_aliases() -> set[str]:
    """``Class.alias = method`` assignments in class bodies, except dunder to dunder."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            methods = {item.name for item in cls.body if isinstance(item, ast.FunctionDef)}
            for item in cls.body:
                if not (isinstance(item, ast.Assign) and isinstance(item.value, ast.Name)
                        and item.value.id in methods):
                    continue
                for target in item.targets:
                    if isinstance(target, ast.Name) and not (
                            _dunder(target.id) and _dunder(item.value.id)):
                        found.add(f"{path.stem}.{cls.name}.{target.id} = {item.value.id}")
    return found


def test_class_bodies_alias_only_dunders():
    assert _method_aliases() == set()


def _constructor_forwarders() -> set[str]:
    """Methods whose body, past a docstring, is only ``return C(...)`` for a package
    class ``C`` other than the method's own class: a second constructor of ``C``."""
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    classes = {node.name for tree in trees.values() for node in tree.body
               if isinstance(node, ast.ClassDef)}
    found = set()
    for module, tree in trees.items():
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            for method in (item for item in cls.body if isinstance(item, ast.FunctionDef)):
                body = method.body[1:] if ast.get_docstring(method) is not None else method.body
                call = body[0].value if len(body) == 1 and isinstance(body[0], ast.Return) else None
                callee = getattr(call.func, "id", None) if isinstance(call, ast.Call) else None
                if callee in classes - {cls.name}:
                    found.add(f"{module}.{cls.name}.{method.name} -> {callee}")
    return found


def test_methods_are_not_constructors_of_other_classes():
    assert _constructor_forwarders() == set()


def _check_result_builders() -> set[str]:
    """The package modules that call ``CheckResult(...)``."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and "CheckResult" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                found.add(path.stem)
    return found


def _verify_names() -> set[str]:
    """Every name that ``verify`` binds by assignment or definition, at any depth."""
    tree = ast.parse((PACKAGE / "verify.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
    return names


def test_suite_checks_have_one_recorder():
    """Every suite check goes through ``SuiteResult.add``; only the rows that
    ``branch`` prints are ``CheckResult`` records."""
    assert _check_result_builders() == {"branching"}
    assert not {"_PASSED", "extend"} & _verify_names()


def _option_receivers() -> list[tuple[str, str, inspect.Parameter]]:
    """``(callee, option, parameter)`` for each parsed option ``args.<option>``
    that ``cli`` passes straight to a function or class of the package."""
    found = []
    for node in ast.walk(ast.parse((PACKAGE / "cli.py").read_text())):
        if not isinstance(node, ast.Call):
            continue
        passed = [(slot, value.attr) for slot, value in
                  list(enumerate(node.args)) + [(kw.arg, kw.value) for kw in node.keywords]
                  if isinstance(value, ast.Attribute) and isinstance(value.value, ast.Name)
                  and value.value.id == "args"]
        callee = _resolve(node.func) if passed else None
        if callee is None:
            continue
        params = inspect.signature(callee).parameters
        for slot, option in passed:
            param = list(params.values())[slot] if isinstance(slot, int) else params.get(slot)
            if param is None:
                continue  # an option run_suite forwards by **kwargs; the suites are checked below
            found.append((callee.__qualname__, option, param))
    return found


def _resolve(func: ast.expr):
    """The package function or class that a call's ``func`` names in ``cli``, else None."""
    path = []
    while isinstance(func, ast.Attribute):
        path.append(func.attr)
        func = func.value
    if not isinstance(func, ast.Name) or func.id == "args":
        return None
    target = getattr(cli, func.id, None)
    for attr in reversed(path):
        target = getattr(target, attr, None)
    module = getattr(target, "__module__", "") or ""
    return target if callable(target) and module.startswith("cuntzboson") else None


def test_cli_options_have_one_default():
    """A parsed option's default lives on the command line alone: no package
    parameter that receives one, and no keyword-only parameter of a suite,
    has a default of its own to shadow it."""
    receivers = _option_receivers()
    assert {"enumerate_components", "basis_monomials", "run_suite"} <= {c for c, _, _ in receivers}
    shadowing = {f"{callee}({param.name}) <- args.{option}"
                 for callee, option, param in receivers if param.default is not param.empty}
    for name, suite in verify.SUITES.items():
        shadowing |= {f"suite {name}({param.name})"
                      for param in inspect.signature(suite).parameters.values()
                      if param.kind is param.KEYWORD_ONLY and param.default is not param.empty}
    assert shadowing == set()


def test_cli_writes_one_json_form():
    """Each command returns its ``--json`` payload, and ``main`` alone serializes it."""
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    dumps = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute) and node.func.attr == "dumps"
             and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"]
    assert len(dumps) == 1


def _image_slot_fillers() -> list[str]:
    """The function around each package statement that sets some ``._images`` to a
    value other than ``None``: the kets that keep their ladder images."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        functions = [(qualified, node) for qualified, _, node in _definitions(path.stem, tree)
                     if isinstance(node, ast.FunctionDef)]
        for node in ast.walk(tree):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, (ast.AnnAssign, ast.AugAssign)) else [])
            if (any(isinstance(t, ast.Attribute) and t.attr == "_images"
                    for target in targets for t in ast.walk(target))
                    and not (isinstance(node.value, ast.Constant) and node.value.value is None)):
                found.append(next((qualified for qualified, f in functions
                                   if f.lineno <= node.lineno <= f.end_lineno), path.stem))
    return found


def test_only_ccr_samples_keep_ladder_images():
    """The image slot of ``states.Ket`` has one user, ``verify.run_ccr``."""
    assert _image_slot_fillers() == ["verify.run_ccr"]


def _memo(node: ast.AST) -> str | None:
    """``"cache"`` or ``"lru_cache"`` when ``node`` is ``functools.cache`` or ``functools.lru_cache``."""
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "functools" and node.attr in ("cache", "lru_cache")):
        return node.attr
    return None


def _unbounded_memos() -> list[str]:
    """Each memo table in the package without a fixed bound: an ``lru_cache`` whose
    ``maxsize`` is not an integer, a ``cache`` around a function that takes
    parameters, and either one used other than as the decorator of a module-level
    function, or imported by name from ``functools``."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"cuntzboson.{path.stem}")
        tree = ast.parse(path.read_text(), filename=str(path))
        seen = set()
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                found += [f"{path.stem}: from functools import {alias.name}" for alias in node.names
                          if alias.name in ("cache", "lru_cache")]
            for decorator in getattr(node, "decorator_list", ()):
                memo = decorator.func if isinstance(decorator, ast.Call) else decorator
                seen.add(memo)
                if _memo(memo) == "lru_cache":
                    maxsize = getattr(module, node.name).cache_parameters()["maxsize"]
                    if type(maxsize) is not int:
                        found.append(f"{path.stem}.{node.name}: lru_cache(maxsize={maxsize})")
                elif _memo(memo) == "cache" and any(
                        (node.args.posonlyargs, node.args.args, node.args.vararg, node.args.kwonlyargs,
                         node.args.kwarg)):
                    found.append(f"{path.stem}.{node.name}: cache around a function with parameters")
        found += [f"{path.stem}: functools.{node.attr} at line {node.lineno}"
                  for node in ast.walk(tree) if _memo(node) and node not in seen]
    return found


def test_memo_tables_are_bounded():
    """Every memo table holds at most a fixed number of entries: an ``lru_cache``
    states an integer ``maxsize``, and an unbounded ``cache`` only wraps a function
    of no parameters, which it runs once."""
    assert _unbounded_memos() == []
    assert cli.build_parser.cache_info().maxsize is None  # the one ``functools.cache``
