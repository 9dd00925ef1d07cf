"""Layering audit: the import DAG of ``src/repro`` is downward-only.

``DESIGN.md`` declares the layer map ("dependencies point strictly
downward; every layer is importable and testable on its own").  This test
extracts the actual intra-package import edges with :mod:`ast` and asserts
them against that map, so an upward import — in particular any module
above ``repro.runtime`` importing ``repro.sim`` directly, which would
re-couple the protocol stack to one execution backend — fails CI instead
of silently eroding the architecture.
"""

import ast
from pathlib import Path

import repro

SRC_ROOT = Path(repro.__file__).resolve().parent

#: DESIGN.md layer map: each top-level package (or module) of ``repro``
#: with the set of packages it is allowed to import.  Order is lowest
#: layer first; a package may only depend on what its row lists.
ALLOWED_DEPENDENCIES: dict[str, set[str]] = {
    "errors": set(),
    "sim": {"errors"},
    "runtime": {"errors", "sim"},                     # the only module allowed to see sim
    "ot": {"errors"},
    "storage": {"errors"},
    "net": {"errors", "runtime"},
    "chord": {"errors", "runtime", "net", "storage"},
    "dht": {"errors", "runtime", "net", "chord"},
    "kts": {"errors", "runtime", "net", "chord", "dht"},
    "p2plog": {"errors", "runtime", "net", "chord", "dht", "ot"},
    "core": {"errors", "runtime", "net", "chord", "dht", "kts", "p2plog", "ot", "storage"},
    "baselines": {"errors", "runtime", "net", "ot"},
    "app": {"errors", "runtime", "core", "ot"},
    "workloads": {"errors", "runtime", "net"},
    "metrics": {"errors", "runtime"},
    "faults": {"errors", "runtime", "net"},
    "check": {"errors", "runtime", "ot", "kts", "p2plog", "core"},
    "engine": {"errors", "runtime", "net", "chord", "core", "metrics", "faults"},
    "cluster": {"errors", "runtime", "net", "chord", "core", "metrics", "faults"},
    "experiments": {
        "errors", "runtime", "net", "chord", "dht", "kts", "core",
        "baselines", "workloads", "metrics", "engine", "faults", "check",
        "cluster",
    },
}

#: Layers above the runtime abstraction: none of these may import
#: ``repro.sim`` — they program against ``repro.runtime`` instead.
ABOVE_RUNTIME = sorted(set(ALLOWED_DEPENDENCIES) - {"errors", "sim", "runtime"})


def iter_modules():
    """Yield ``(layer, path, ast tree)`` for every module in ``src/repro``."""
    for path in sorted(SRC_ROOT.rglob("*.py")):
        relative = path.relative_to(SRC_ROOT)
        layer = relative.parts[0] if len(relative.parts) > 1 else relative.stem
        if layer == "__init__":
            continue  # the package facade re-exports freely
        yield layer, path, ast.parse(path.read_text(), filename=str(path))


def imported_layers(layer: str, tree: ast.AST) -> set[str]:
    """Top-level ``repro`` packages imported by one module (excluding itself).

    Covers every spelling that can reach a sibling package: ``from ..x
    import y``, ``from .. import x``, ``from repro.x import y``,
    ``from repro import x`` and ``import repro.x``.
    """
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 2:
                if module:                            # from ..x import y
                    found.add(module.split(".")[0])
                else:                                 # from .. import x
                    found.update(alias.name.split(".")[0] for alias in node.names)
            elif node.level == 0:
                if module.startswith("repro."):       # from repro.x import y
                    found.add(module.split(".")[1])
                elif module == "repro":               # from repro import x
                    found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:                  # import repro.x
                if alias.name.startswith("repro."):
                    found.add(alias.name.split(".")[1])
    # ``from repro import LtrSystem``-style symbol imports surface the
    # symbol name here; keep only real packages (new packages are forced
    # into the map by test_layer_map_is_complete).
    found &= set(ALLOWED_DEPENDENCIES)
    found.discard(layer)
    return found


def test_layer_map_is_complete():
    """Every package in the tree has a row in the DESIGN.md layer map."""
    layers = {layer for layer, _path, _tree in iter_modules()}
    unmapped = layers - set(ALLOWED_DEPENDENCIES)
    assert not unmapped, (
        f"packages {sorted(unmapped)} have no layer-map entry; add them to "
        f"ALLOWED_DEPENDENCIES (and DESIGN.md) at the right depth"
    )


def test_imports_point_strictly_downward():
    """No module imports a layer its DESIGN.md row does not allow."""
    violations = []
    for layer, path, tree in iter_modules():
        allowed = ALLOWED_DEPENDENCIES.get(layer, set())
        for dependency in imported_layers(layer, tree) - allowed:
            violations.append(f"{path.relative_to(SRC_ROOT)}: {layer} -> {dependency}")
    assert not violations, "upward or sideways imports:\n" + "\n".join(sorted(violations))


def test_nothing_above_runtime_imports_sim():
    """The stack is backend-agnostic: only ``repro.runtime`` sees ``repro.sim``."""
    offenders = []
    for layer, path, tree in iter_modules():
        if layer in ("sim", "runtime"):
            continue
        if "sim" in imported_layers(layer, tree):
            offenders.append(str(path.relative_to(SRC_ROOT)))
    assert not offenders, (
        "modules above repro.runtime import repro.sim directly: "
        f"{offenders}; program against repro.runtime instead"
    )


def test_runtime_layer_is_the_backend_choke_point():
    """Sanity: the map itself says only runtime may depend on sim."""
    for layer, allowed in ALLOWED_DEPENDENCIES.items():
        if layer != "runtime":
            assert "sim" not in allowed, f"layer map grants {layer} access to sim"


def test_the_route_cache_is_reached_only_through_the_node():
    """Nothing outside ``repro.chord`` touches a node's ``route_cache``.

    The node offers the verbs — ``forget_route``, ``forget_routes_to``,
    ``warm_route`` — and the ring the
    drivers' ``clear_route_caches()`` / ``route_cache_stats()``; an attribute
    access to the cache object from another layer couples that layer to how
    routes are remembered.
    """
    offenders = [
        f"{path.relative_to(SRC_ROOT)}:{node.lineno}"
        for layer, path, tree in iter_modules()
        if layer != "chord"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "route_cache"
    ]
    assert not offenders, (
        f"route_cache reached into from outside repro.chord: {offenders}; "
        "use ChordNode.forget_route / forget_routes_to / warm_route"
    )


def test_a_simulated_process_loads_no_live_backend():
    """The asyncio runtime, the socket transport and the cluster host are
    loaded on first use (module ``__getattr__`` in ``repro.runtime``,
    ``repro.net`` and ``repro.cluster``): importing everything a simulated
    run needs — the cluster facade included — pulls in no asyncio."""
    import os
    import subprocess
    import sys

    probe = ("import sys, repro.core, repro.cluster, repro.experiments; "
             "assert 'asyncio' not in sys.modules, sorted("
             "name for name in sys.modules if name.startswith('asyncio'))")
    source = str(SRC_ROOT.parent)
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": source})
    assert result.returncode == 0, result.stderr
