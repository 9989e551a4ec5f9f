import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import levyfield

MODULES = ["levyfield"] + [f"levyfield.{m.name}" for m in pkgutil.iter_modules(levyfield.__path__)]

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "levyfield"

# Public names that no entry point reaches, each with the ROADMAP item that
# is to wire it in (and then drops its entry here).  A name that only tests
# use is an oracle, and belongs in tests/, not here.
ALLOWLIST = {
    "invert.plugin_error_bound": "ROADMAP item 1 reports it next to the achieved MSE",
    "invert.fourier_error_bound": "ROADMAP item 1 reports it next to the achieved MSE",
    "onb.onb_error_bound": "ROADMAP item 1 reports it next to the achieved MSE",
    "ecf.theorem_bound_g1": "ROADMAP item 1 reports it next to the achieved MSE",
    "ecf.select_cutoff": "ROADMAP item 6 decides whether \"l\": \"auto\" wires it in",
    "ecf.fit_h3": "ROADMAP item 6 decides whether \"l\": \"auto\" wires it in",
    "ecf.H3Diagnostics": "ROADMAP item 6 decides whether \"l\": \"auto\" wires it in",
    "ecf.calibrate_bound_constant": "ROADMAP item 6 decides whether \"l\": \"auto\" wires it in",
    "ecf.psi_sq_integral": "ROADMAP item 6 (with item 1's theorem_bound_g1) decides it",
}


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # a deletion that leaves its name in __all__ breaks `from ... import *`
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert not missing


def _identifiers(nodes) -> set[str]:
    """Every ast.Name id, ast.Attribute attr and imported name under nodes."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
            elif isinstance(sub, ast.alias):
                out.update(sub.name.split("."))
    return out


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _is_def(node) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))


def _is_all(node) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)


def _layer_span_attributes() -> set[str]:
    """The parts of the attribute paths that perfbench/tracing.py's
    LAYER_SPANS names as strings, such as "ExperimentConfig.from_json"."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYER_SPANS" for t in node.targets):
            return {part for row in node.value.elts for part in row.elts[2].value.split(".")}
    raise AssertionError("perfbench/tracing.py defines no LAYER_SPANS")


def _reachability():
    """(public, reached): public maps each public qualified name to its
    (path, line, leaf name); reached is the set of identifiers in the
    closure of the roots."""
    public = {}
    bodies: dict[str, list[set[str]]] = {}  # leaf name -> identifiers of each def
    roots = _layer_span_attributes()
    # the package's __init__ only re-exports names of its submodules
    for path in sorted(set(PACKAGE.glob("*.py")) - {PACKAGE / "__init__.py"}):
        tree = ast.parse(path.read_text())
        mod = path.stem
        rel = path.relative_to(ROOT)
        exported = set()
        for node in tree.body:
            if _is_all(node):
                exported = set(ast.literal_eval(node.value))
            elif not (_is_def(node) or isinstance(node, (ast.Import, ast.ImportFrom))):
                roots |= _identifiers([node])
        for node in tree.body:
            targets = ([node.name] if _is_def(node) else
                       [t.id for t in getattr(node, "targets", []) if isinstance(t, ast.Name)])
            for name in set(targets) & exported:
                public[f"{mod}.{name}"] = (rel, node.lineno, name)
            if isinstance(node, ast.ClassDef):
                # a class reaches its decorators, bases, field defaults and
                # dunders; each other method is a definition of its own
                own = [*node.decorator_list, *node.bases, *node.keywords]
                for stmt in node.body:
                    if _is_def(stmt) and not _is_dunder(stmt.name):
                        bodies.setdefault(stmt.name, []).append(_identifiers([stmt]))
                        if node.name in exported and not stmt.name.startswith("_"):
                            public[f"{mod}.{node.name}.{stmt.name}"] = (rel, stmt.lineno, stmt.name)
                    else:
                        own.append(stmt)
                bodies.setdefault(node.name, []).append(_identifiers(own))
            elif _is_def(node):
                bodies.setdefault(node.name, []).append(_identifiers([node]))
    entry_files = [PACKAGE / "cli.py", ROOT / "tests" / "test_acceptance.py",
                   *sorted((ROOT / "scripts").glob("*.py")),
                   *sorted((ROOT / "perfbench").glob("*.py"))]
    for path in entry_files:
        roots |= _identifiers([ast.parse(path.read_text())])
    reached, todo = set(roots), list(roots)
    while todo:
        for idents in bodies.get(todo.pop(), ()):
            todo.extend(idents - reached)
            reached |= idents
    return public, reached


def test_every_public_name_is_reached_or_allowlisted():
    """Each public name, that is each module's ``__all__`` and the public
    methods and properties of the classes it exports, is reached from an
    entry point, or is in ALLOWLIST with the ROADMAP item that is to wire
    it in: its reason must cite "ROADMAP item N" with N an open item (a
    "### N." heading of ROADMAP.md).  So no name stays in the package only
    because tests use it; a test-only oracle lives in tests/.

    The roots are all code in ``cli.py``, ``scripts/``, ``perfbench/``
    (with the attribute paths that ``tracing.LAYER_SPANS`` names as
    strings) and ``tests/test_acceptance.py``, and the module-level
    statements of the package other than imports and ``__all__``.  A
    reached function reaches every identifier in its body: ``ast.Name``
    ids, ``ast.Attribute`` attrs and import aliases.  A reached class
    reaches its decorators, bases, field defaults and dunder methods, but
    not its public methods.  Names in docstrings and comments reach
    nothing.

    Known blind spot: identifiers match definitions by leaf name only, so
    any variable or attribute that shares a method's name reaches it: a
    method named ``h`` would count as reached through every variable named
    ``h``, and a method named ``c1`` through the local ``c1`` of
    ``validate.validate_kernels``.
    """
    public, reached = _reachability()
    unreached = {q for q, (_, _, leaf) in public.items() if leaf not in reached}
    open_items = set(re.findall(r"^### (\d+)\.", (ROOT / "ROADMAP.md").read_text(), re.M))
    sections = [
        ("public names that no entry point reaches: wire each into a pipeline, CLI "
         "subcommand or acceptance criterion, move it to tests/ if only tests use it, "
         "delete it, or add it to ALLOWLIST with the ROADMAP item that will wire it in",
         unreached - set(ALLOWLIST)),
        ("ALLOWLIST entries whose names are reached: drop them",
         set(ALLOWLIST) & (set(public) - unreached)),
        ("ALLOWLIST entries that name no public name: drop them",
         set(ALLOWLIST) - set(public)),
        ("ALLOWLIST entries whose reason cites no open ROADMAP item: wire the name in, "
         "move it to tests/ if only tests use it, or delete it",
         {q for q, why in ALLOWLIST.items()
          if not set(re.findall(r"ROADMAP item (\d+)", why)) & open_items}),
    ]
    report = [f"{title}:\n" + "\n".join(
        f"  {public[q][0]}:{public[q][1]}: {q}" if q in public else f"  {q}"
        for q in sorted(names)) for title, names in sections if names]
    if report:
        pytest.fail("\n".join(report), pytrace=False)
