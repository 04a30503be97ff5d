"""Every ``ops/`` module must be reachable from the index/serve/curate path.

Walks ``import`` / ``from ... import`` statements (lazy ones inside
functions too) with ``ast``, starting from ``cli.py``, ``pipelines/``,
``query/``, ``index/`` and ``text/``.  ``ops/sqlcheck.py`` is the DuckDB
mirror that only the driver contract loads, so the walk does not pass
through it; a module that only it (or only the tests) imports is dead
code and belongs deleted, not maintained.

``PENDING_DELETION`` names the unreached modules that are still here:
their unit tests keep running until the change that deletes them.  The
test pins the set exactly, so a new orphan fails it, and so does a
listed module that is deleted or becomes reached without the list
shrinking.
"""

import ast
import os

PKG = "search_engine_ray"
ROOT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    PKG)
START_DIRS = ("pipelines", "query", "index", "text")
NOT_TRAVERSED = {f"{PKG}.ops.sqlcheck"}
PENDING_DELETION = {f"{PKG}.ops.{m}" for m in (
    "graph", "joins", "linkage", "similarity", "sketches")}


def _module_file(name: str) -> str | None:
    rel = os.path.join(*name.split(".")[1:]) if "." in name else ""
    for cand in (os.path.join(ROOT, rel + ".py"),
                 os.path.join(ROOT, rel, "__init__.py")):
        if os.path.isfile(cand):
            return cand
    return None


def _module_name(path: str) -> str:
    rel = os.path.relpath(path, ROOT)[:-len(".py")].split(os.sep)
    if rel[-1] == "__init__":
        rel = rel[:-1]
    return ".".join([PKG, *rel])


def _imported_names(path: str) -> set[str]:
    """Package-internal module names a file imports, anywhere in it."""
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read(), filename=path)
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            # the package uses absolute imports only; a relative one would
            # go unfollowed, so it fails the walk instead
            assert not node.level, f"relative import in {path}"
            out.add(node.module)
            # ``from pkg import submodule`` names a module too
            out.update(f"{node.module}.{a.name}" for a in node.names)
    return {m for m in out if m == PKG or m.startswith(PKG + ".")}


def _reached() -> set[str]:
    start = [os.path.join(ROOT, "cli.py")]
    for d in START_DIRS:
        start += [os.path.join(ROOT, d, f) for f in sorted(os.listdir(
            os.path.join(ROOT, d))) if f.endswith(".py")]
    seen: set[str] = set()
    todo = [_module_name(p) for p in start]
    while todo:
        name = todo.pop()
        path = _module_file(name)
        if name in seen or path is None:  # None: an attribute, not a module
            continue
        seen.add(name)
        if name in NOT_TRAVERSED:
            continue
        # importing a.b.c runs a/__init__ and a/b/__init__ as well
        parts = name.split(".")
        todo += [".".join(parts[:i]) for i in range(1, len(parts))]
        todo += sorted(_imported_names(path))
    return seen


def test_walk_follows_lazy_imports(tmp_path):
    p = tmp_path / "m.py"
    p.write_text("def f():\n    from search_engine_ray.ops import shuffle\n"
                 "    import search_engine_ray.ops.dedup\n")
    names = _imported_names(str(p))
    assert f"{PKG}.ops.shuffle" in names
    assert f"{PKG}.ops.dedup" in names


def test_every_ops_module_is_reached():
    ops_dir = os.path.join(ROOT, "ops")
    ops = {f"{PKG}.ops.{f[:-3]}" for f in os.listdir(ops_dir)
           if f.endswith(".py") and f != "__init__.py"}
    unreached = ops - _reached() - NOT_TRAVERSED
    assert unreached == PENDING_DELETION, (
        "ops modules that cli/pipelines/query/index/text never import: "
        f"{sorted(unreached)}; pending deletion: "
        f"{sorted(PENDING_DELETION)}")
