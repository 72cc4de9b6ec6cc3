"""Every module under ``src/repro`` is reachable from the CLI.

The guard builds the static import closure of ``repro.cli`` and
``repro.__main__`` from the AST of each module (imports inside function
bodies count too) and asserts that no module is left over.  A module no
command, preset or workload can load is dead weight: delete it, or turn it
into a test oracle under ``tests/``.

Resolution rules:

* ``import repro.a.b`` and ``from repro.a import b`` (``b`` a submodule)
  reach ``repro.a.b``.
* ``from repro.a import Name`` reaches the submodule that *defines*
  ``Name``, following the package's own ``from repro.a.x import Name``
  re-export lines; loading ``repro.a`` for it does not pull in its other
  re-exports.
* A package imported as an object (``from repro import obs``, ``import
  repro.obs``), or one whose ``__init__`` defines the imported name
  itself, has all of its ``__init__`` imports followed.
* The packages enclosing a reached module count as reached.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
ROOTS = ("repro.cli", "repro.__main__")

# Module -> why it may be unreachable from the CLI.
ALLOWLIST = {
    "repro.ops.chaos": "fault-injection harness driven by the CI chaos job "
                       "and the crash-safety tests, never by a command",
}


def _module_path(name: str) -> Path | None:
    base = SRC.joinpath(*name.split("."))
    if (base / "__init__.py").is_file():
        return base / "__init__.py"
    if base.with_suffix(".py").is_file():
        return base.with_suffix(".py")
    return None


def _is_package(name: str) -> bool:
    return (SRC.joinpath(*name.split(".")) / "__init__.py").is_file()


def all_modules() -> set[str]:
    found = set()
    for path in (SRC / "repro").rglob("*.py"):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        found.add(".".join(parts))
    return found


def _tree(name: str) -> ast.Module:
    return ast.parse(_module_path(name).read_text())


def _imports(name: str):
    """Yield ``(module, names)`` for every repro import in ``name``;
    ``names`` is ``None`` for a plain ``import module``."""
    for node in ast.walk(_tree(name)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    yield alias.name, None
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.level == 0 and node.module.split(".")[0] == "repro":
                yield node.module, [a.name for a in node.names]


def _reexport_source(package: str, attr: str) -> str | None:
    """The module a package ``__init__`` imports ``attr`` from."""
    for module, names in _imports(package):
        if names is not None and attr in names:
            return module
    return None


def _resolve(package: str, attr: str) -> tuple[str, bool]:
    """``(module, expand)`` that ``from package import attr`` loads."""
    sub = f"{package}.{attr}"
    if _module_path(sub) is not None:
        return sub, True
    source = _reexport_source(package, attr)
    if source is None:  # defined by the package __init__ itself
        return package, True
    if _is_package(source):
        return _resolve(source, attr)
    return source, True


def closure(roots=ROOTS) -> set[str]:
    reached: set[str] = set()
    expanded: set[str] = set()
    stack = [(root, True) for root in roots]
    while stack:
        name, expand = stack.pop()
        if _module_path(name) is None:
            continue
        parts = name.split(".")
        reached.update(".".join(parts[:i]) for i in range(1, len(parts) + 1))
        if not expand or name in expanded:
            continue
        expanded.add(name)
        for module, names in _imports(name):
            if names is None or not _is_package(module):
                stack.append((module, True))
                continue
            stack.append((module, False))
            stack.extend(_resolve(module, attr) for attr in names)
    return reached


def test_every_module_is_reachable_from_the_cli():
    unreached = sorted(all_modules() - closure() - set(ALLOWLIST))
    assert unreached == [], (
        f"{len(unreached)} module(s) under src/repro are imported by no "
        f"command: {unreached}")


def test_allowlist_entries_exist_and_are_unreached():
    """An allowlisted module must exist and really be orphaned, so the
    list cannot go stale."""
    reached = closure()
    for name in ALLOWLIST:
        assert _module_path(name) is not None, name
        assert name not in reached, f"{name} is reachable; drop it from ALLOWLIST"


def test_resolution_rules():
    # A name resolves through the package's re-export to its definer.
    assert _resolve("repro.core", "appro_alg") == ("repro.core.approx", True)
    # A subpackage imported as an object is expanded.
    assert _resolve("repro", "obs") == ("repro.obs", True)
    # Loading a submodule loads its packages without their re-exports.
    assert closure(["repro.sim.mobility"]) == {
        "repro", "repro.sim", "repro.sim.mobility",
    }
