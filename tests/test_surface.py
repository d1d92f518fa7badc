"""Every library module is used by the program: none is left that only tests reach.

Tier-1 imports modules through their tests, so a module that nothing
else uses still passes.  This guard reads the sources with ``ast``.  A
non-``__init__`` module of ``src/repro`` counts as reached when a
non-``__init__`` file of ``src/repro``, ``benchmarks/`` or ``examples/``
imports it or one of its public names, or when the module registers a
lab spec with ``experiment`` (the lab registry runs it).  A name counts
however it arrives: from the module itself, re-exported by a package
``__init__``, or as an attribute of an imported package.
"""

from __future__ import annotations

import ast
import pathlib

ROOT = pathlib.Path(__file__).parent.parent
SRC = ROOT / "src"
CALLERS = (SRC / "repro", ROOT / "benchmarks", ROOT / "examples")

# Modules kept although nothing in the program reaches them yet.
ALLOWED = {
    "repro.zoo.simple": "public model builders kept on purpose",
    "repro.graph.flops": "ChainSpec.from_network (ROADMAP item 4) prices steps with these rules",
}

# ``python -m repro`` runs ``__main__``; like ``__init__`` it is a package
# file, not a library module.
PACKAGE_FILES = ("__init__.py", "__main__.py")


def module_name(path: pathlib.Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def parse(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


class Index:
    """Which module defines each public name, following package re-exports."""

    def __init__(self) -> None:
        self.trees = {module_name(p): parse(p) for p in (SRC / "repro").rglob("*.py")}
        self.packages = {module_name(p) for p in (SRC / "repro").rglob("__init__.py")}

    def absolute(self, importer: str, node: ast.ImportFrom) -> str:
        """The dotted module an ``ImportFrom`` in ``importer`` names."""
        if not node.level:
            return node.module or ""
        base = importer if importer in self.packages else importer.rpartition(".")[0]
        for _ in range(node.level - 1):
            base = base.rpartition(".")[0]
        return f"{base}.{node.module}" if node.module else base

    def origin(self, module: str, name: str, seen: frozenset = frozenset()) -> str | None:
        """The module that defines ``module.name``; ``None`` outside ``repro``."""
        if f"{module}.{name}" in self.trees:
            return f"{module}.{name}"
        if module not in self.packages or (module, name) in seen:
            return module if module in self.trees else None
        for node in self.trees[module].body:
            if isinstance(node, ast.ImportFrom):
                source = self.absolute(module, node)
                for alias in node.names:
                    if (alias.asname or alias.name) == name and source in self.trees:
                        return self.origin(source, alias.name, seen | {(module, name)})
        return module


def registers_spec(tree: ast.Module) -> bool:
    """True when the module calls the lab's ``experiment`` registrar."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "experiment":
                return True
    return False


def reached_from(path: pathlib.Path, index: Index) -> set[str]:
    """The ``repro`` modules one caller file reaches."""
    importer = module_name(path) if path.is_relative_to(SRC) else ""
    tree = parse(path)
    reached: set[str] = set()
    aliases: dict[str, str] = {}  # local name -> repro package it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in index.trees:
                    reached.add(alias.name)
                    if alias.asname:
                        aliases[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom):
            source = index.absolute(importer, node)
            if source not in index.trees:
                continue
            reached.add(source)
            for alias in node.names:
                origin = index.origin(source, alias.name)
                if origin is not None:
                    reached.add(origin)
                    if origin in index.packages:
                        aliases[alias.asname or alias.name] = origin
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        ):
            origin = index.origin(aliases[node.value.id], node.attr)
            if origin is not None:
                reached.add(origin)
    return reached - {importer}


def unreached_modules() -> set[str]:
    index = Index()
    reached: set[str] = set()
    for root in CALLERS:
        for path in root.rglob("*.py"):
            if path.name != "__init__.py":
                reached |= reached_from(path, index)
    library = {
        module_name(p) for p in (SRC / "repro").rglob("*.py") if p.name not in PACKAGE_FILES
    }
    return {m for m in library - reached if not registers_spec(index.trees[m])}


def test_every_library_module_is_reached_by_the_program():
    unreached = unreached_modules()
    assert not unreached - ALLOWED.keys(), (
        f"modules only tests reach: {sorted(unreached - ALLOWED.keys())}"
    )
    assert ALLOWED.keys() <= unreached, (
        f"allowlisted modules that are reached or gone: {sorted(ALLOWED.keys() - unreached)}"
    )
