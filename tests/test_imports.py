"""Static audits: the package imports only the standard library, numpy and
itself, its namespaces export what is used, every imported name is read,
and every definition in it is used by the program."""

import ast
import importlib.util
import inspect
import re
import sys
from pathlib import Path

import dcinv
import dcinv.net

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "dcinv"}


def test_every_import_is_stdlib_numpy_or_dcinv():
    root = Path(dcinv.__file__).parent
    sources = sorted(root.rglob("*.py"))
    assert len(sources) > 10
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:  # relative imports stay inside dcinv
                continue
            outside += [f"{path.relative_to(root)}: {name}" for name in modules
                        if name.split(".")[0] not in ALLOWED]
    assert outside == []


def test_namespace_is_what_the_readme_and_the_benchmark_use():
    """Every ``dcinv.<name>`` in ``perfbench/*.py`` and ``README.md`` that is
    not a submodule exists, and the package exports no other public name."""
    repo = Path(__file__).resolve().parents[1]
    texts = [path.read_text() for path in sorted((repo / "perfbench").glob("*.py"))]
    texts.append((repo / "README.md").read_text())
    used = {name for text in texts for name in re.findall(r"\bdcinv\.(\w+)", text)
            if importlib.util.find_spec(f"dcinv.{name}") is None}
    assert len(texts) > 1 and used
    assert [name for name in sorted(used) if not hasattr(dcinv, name)] == []
    exported = {name for name, value in vars(dcinv).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert exported == {name for name in used if not name.startswith("_")}


def test_net_exports_what_is_imported_through_it():
    """``dcinv.net`` exports exactly the names that the package, its tests and
    the benchmark import from it, relative imports resolved, submodules aside."""
    repo = Path(__file__).resolve().parents[1]
    sources = [(path, ".".join(path.relative_to(repo / "src").parent.parts))
               for path in sorted((repo / "src").rglob("*.py"))]
    sources += [(path, "") for folder in ("tests", "perfbench")
                for path in sorted((repo / folder).glob("*.py"))]
    imported = set()
    for path, package in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom):
                name = "." * node.level + (node.module or "")
                if importlib.util.resolve_name(name, package) == "dcinv.net":
                    imported |= {alias.name for alias in node.names}
    imported = {name for name in imported
                if importlib.util.find_spec(f"dcinv.net.{name}") is None}
    assert len(imported) > 5
    exported = {name for name, value in vars(dcinv.net).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert exported == imported


def test_every_imported_name_is_used():
    """Every name that a module of the package, its tests or the benchmark
    imports is read in that module (also inside a string annotation).
    ``__future__`` imports and the re-exports of a package's ``__init__``
    are exempt."""
    repo = Path(__file__).resolve().parents[1]
    sources = [path for folder in ("src", "tests", "perfbench")
               for path in sorted((repo / folder).rglob("*.py"))
               if path.name != "__init__.py"]
    unused = []
    for path in sources:
        imported, names, annotations = {}, set(), []
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                imported |= {(a.asname or a.name.split(".")[0]): node.lineno for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {(a.asname or a.name): node.lineno for a in node.names}
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
                annotations.append(node.annotation)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
                annotations.append(node.returns)
        names |= {name.id for annotation in annotations for node in ast.walk(annotation)
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)
                  for name in ast.walk(ast.parse(node.value, mode="eval"))
                  if isinstance(name, ast.Name)}
        unused += [f"{path.relative_to(repo)}:{line}: {name}"
                   for name, line in imported.items() if name not in names]
    assert len(sources) > 30
    assert unused == []


# Called from outside the package's own code: by argparse, and as the console script.
_CALLED_FROM_OUTSIDE = {"cli.py: _Parser.error",
                        "cli.py: _Formatter._get_default_metavar_for_optional", "cli.py: main"}


def _definitions(node, prefix=""):
    """(qualified name, node) of every function, method and class under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield prefix + child.name, child
            yield from _definitions(child, f"{prefix}{child.name}.")
        else:
            yield from _definitions(child, prefix)


def test_every_definition_is_used_by_the_program():
    """Every function, method and class defined in ``src/`` is referenced
    from ``src/`` or ``perfbench/``: read as a name or an attribute, or
    named in a dotted string (the benchmark's hook table).  A definition
    that only tests call belongs in ``tests/helpers.py``.  Dunders, and
    what argparse or the console script calls, are exempt."""
    repo = Path(__file__).resolve().parents[1]
    root = repo / "src" / "dcinv"
    referenced = set()
    for path in [*root.rglob("*.py"), *(repo / "perfbench").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and re.fullmatch(r"[A-Za-z_][\w.]*", node.value)):
                referenced |= set(node.value.split("."))
    unused = [f"{path.relative_to(root)}: {name}" for path in sorted(root.rglob("*.py"))
              for name, node in _definitions(ast.parse(path.read_text(), filename=str(path)))
              if node.name not in referenced and not node.name.startswith("__")]
    assert len(referenced) > 100
    assert [entry for entry in unused if entry not in _CALLED_FROM_OUTSIDE] == []


# Parameters with a default that only callers outside the program set.
_SET_FROM_OUTSIDE = {
    "cli.py: main(argv)",  # the console script calls main(); tests pass their argv
    # The estimator's accuracy and depth-decay tests use 300 and 64 probes;
    # the program uses 32.
    "tikhonov.py: sensitivity_weights(n_probes)",
}

_ALL = float("inf")  # a call with *args or **kwargs may set any parameter


def test_every_parameter_is_set_by_the_program():
    """Every parameter with a default, of every function and method defined
    in ``src/``, is passed by position or keyword at some call in ``src/`` or
    ``perfbench/`` to a function of its name (a class's name for
    ``__init__``).  A default that no call overrides is a constant, and a
    parameter that only tests set belongs in the tests."""
    repo = Path(__file__).resolve().parents[1]
    root = repo / "src" / "dcinv"
    calls = {}  # callee name -> [(positional argument count, keyword names)]
    for path in [*root.rglob("*.py"), *(repo / "perfbench").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                starred = any(isinstance(arg, ast.Starred) for arg in node.args)
                keywords = {kw.arg for kw in node.keywords}
                calls.setdefault(name, []).append(
                    (_ALL if starred else len(node.args), _ALL if None in keywords else keywords))
    unset, n_defaults = [], 0
    for path in sorted(root.rglob("*.py")):
        for qualname, node in _definitions(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("__") and node.name != "__init__":
                continue
            callee = qualname.split(".")[-2] if node.name == "__init__" else node.name
            positional = [a.arg for a in node.args.posonlyargs + node.args.args]
            if positional[:1] in (["self"], ["cls"]):
                positional = positional[1:]
            defaulted = [(i, name) for i, name in enumerate(positional)
                         if i >= len(positional) - len(node.args.defaults)]
            defaulted += [(_ALL, a.arg) for a, default in
                          zip(node.args.kwonlyargs, node.args.kw_defaults) if default is not None]
            n_defaults += len(defaulted)
            unset += [f"{path.relative_to(root)}: {qualname}({name})" for i, name in defaulted
                      if not any(n_pos > i or keywords is _ALL or name in keywords
                                 for n_pos, keywords in calls.get(callee, []))]
    assert n_defaults > 20
    assert [entry for entry in unset if entry not in _SET_FROM_OUTSIDE] == []
    assert _SET_FROM_OUTSIDE <= set(unset)  # an exemption that a call now sets goes
