"""Every library module and public def is used by the program, not only by tests.

Tier-1 imports modules through their tests, so code that nothing else
uses still passes.  This guard reads the sources with ``ast`` at two
levels.

*Modules.*  A non-``__init__`` module of ``src/repro`` counts as reached
when a non-``__init__`` file of ``src/repro``, ``benchmarks/`` or
``examples/`` imports it or one of its public names, or when the module
registers a lab spec with ``experiment`` (the lab registry runs it).  A
name counts however it arrives: from the module itself, re-exported by a
package ``__init__``, or as an attribute of an imported package.

*Defs.*  A public top-level ``def`` or ``class`` of such a module counts
as reached when its own module uses it, or when some other
non-``__init__`` file of ``src/repro``, ``benchmarks/`` or ``examples/``
names it: as an imported name, an attribute or a bare name.  The match
is by name, so it can only over-count what is reached.

Each allowlist entry carries the reason the code stays, and the guard
also fails when an allowlisted module or def becomes reached or is gone,
so the lists cannot go stale.
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

# Public defs kept although nothing in the program names them.  Defs of
# the modules in ``ALLOWED`` are covered by their module's entry.
ALLOWED_DEFS = {
    "repro.checkpointing.revolve.opt_forwards_dp":
        "oracle: the DP value the closed-form Revolve cost is checked against",
    "repro.checkpointing.simulator.validate":
        "oracle: the boolean form of simulate that schedule tests assert with",
    "repro.checkpointing.uniform.uniform_extra_forwards":
        "oracle: closed form the uniform schedule's measured recompute is checked against",
    "repro.engine.program.decompile":
        "oracle: inverse of compile_schedule for the program round-trip tests",
    "repro.lab.registry.unregister": "test seam: drops a spec a test registered",
    "repro.obs.metrics.reset_metrics": "test seam: isolates the process metrics per test",
    "repro.graph.layers.Identity": "test seam: pass-through node for hand-built DAGs",
    "repro.zoo.resnet.resnet18": "public model builder kept on purpose",
    "repro.zoo.resnet.resnet34": "public model builder kept on purpose",
    "repro.zoo.resnet.resnet50": "public model builder kept on purpose",
    "repro.zoo.resnet.resnet152": "public model builder kept on purpose",
    "repro.zoo.vgg.vgg11": "public model builder kept on purpose",
    "repro.autodiff.layers.BatchNormLayer":
        "E23: accumulation is inexact under BatchNorm, checkpointing is not "
        "(and ROADMAP item 11's E1 net)",
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


def names_used(tree: ast.AST) -> set[str]:
    """Every bare name, attribute and imported name a tree mentions."""
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rpartition(".")[2])
    return out


def unreached_defs() -> set[str]:
    index = Index()
    callers = {
        path: names_used(parse(path))
        for root in CALLERS
        for path in root.rglob("*.py")
        if path.name != "__init__.py"
    }
    unreached: set[str] = set()
    for path in (SRC / "repro").rglob("*.py"):
        module = module_name(path)
        if path.name in PACKAGE_FILES or module in ALLOWED:
            continue
        body = index.trees[module].body
        used = [names_used(node) for node in body]
        for i, node in enumerate(body):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            if any(node.name in names for j, names in enumerate(used) if j != i):
                continue
            if any(node.name in names for caller, names in callers.items() if caller != path):
                continue
            unreached.add(f"{module}.{node.name}")
    return unreached


def test_every_public_def_is_reached_by_the_program():
    unreached = unreached_defs()
    assert not unreached - ALLOWED_DEFS.keys(), (
        f"public defs only tests reach: {sorted(unreached - ALLOWED_DEFS.keys())}"
    )
    assert ALLOWED_DEFS.keys() <= unreached, (
        f"allowlisted defs that are reached or gone: {sorted(ALLOWED_DEFS.keys() - unreached)}"
    )
