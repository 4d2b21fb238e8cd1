"""Nothing in ``src/repro`` without a caller (DESIGN.md §3, "What lives
in ``src/repro``").

The import graph is walked from what actually runs — ``repro.cli``,
``repro.__main__``, ``benchmarks/e2e/*.py``, ``benchmarks/figures.py``
(the registry ``tools/make_report.py`` runs) and ``tools/*.py`` — and a
``from repro.pkg import Name`` is followed through the package
``__init__`` to the module that defines ``Name``, so a re-export keeps
nothing alive by itself.  Every module is then either reached, or listed
in :data:`UNWIRED` with the reason it stays.  The table can only shrink:
an entry that has become reachable, or whose file is gone, fails too.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_ROOT = ROOT / "src" / "repro"

#: Modules no entry point reaches, and why each stays (DESIGN.md §3).
UNWIRED = {
    # Paper-described, not yet wired (ROADMAP says what will wire each).
    "repro.control.protected":
        "sole producer of the Eq. 3 control packets the router's SegR "
        "branch verifies (§5.3); ROADMAP housekeeping: renewals ride it "
        "on the scenario/campaign path",
    "repro.control.distributed":
        "§3 / App. D distributed CServ; ROADMAP housekeeping: a campaign "
        "runs one transit AS distributed",
    "repro.reservation.persistence":
        "crash/reload half of ROADMAP open item 2's differential machine",
    "repro.topology.serialization":
        "topology half of the same crash/reload snapshot (ROADMAP item 2)",
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE_ROOT.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


class _Graph:
    def __init__(self):
        #: ``{dotted name: path}`` of every module and package of ``repro``.
        self.paths = {
            _module_name(path): path for path in PACKAGE_ROOT.rglob("*.py")
        }
        self._trees: dict = {}

    def tree(self, path: Path) -> ast.Module:
        if path not in self._trees:
            self._trees[path] = ast.parse(path.read_text(), str(path))
        return self._trees[path]

    def is_package(self, name: str) -> bool:
        return self.paths[name].name == "__init__.py"

    def imports(self, path: Path, name: str = ""):
        """``(module, imported name or None)`` for each ``repro`` import of
        one file; relative imports are resolved against ``name``."""
        for node in ast.walk(self.tree(path)):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield alias.name, None
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if node.level:
                    base = name.split(".")
                    if not self.is_package(name):
                        base = base[:-1]
                    base = base[: len(base) - (node.level - 1)]
                    module = ".".join(base + ([module] if module else []))
                for alias in node.names:
                    yield module, alias.name

    def defining_module(self, module: str, attr: str, seen=()) -> str:
        """The module ``from module import attr`` really loads: a
        submodule, or — through a package ``__init__`` re-export — the
        module that defines ``attr``."""
        if f"{module}.{attr}" in self.paths:
            return f"{module}.{attr}"
        if self.is_package(module) and (module, attr) not in seen:
            for source, name in self.imports(self.paths[module], module):
                if name == attr and source in self.paths:
                    return self.defining_module(
                        source, attr, seen + ((module, attr),)
                    )
        return module

    def targets(self, path: Path, name: str = "") -> set:
        found = set()
        for module, attr in self.imports(path, name):
            if module not in self.paths:
                continue
            found.add(module if attr is None else self.defining_module(module, attr))
        return found

    def reachable(self, roots) -> set:
        """Modules loaded, transitively, by the root files.  A package
        ``__init__`` is followed only when it is itself the module that
        was asked for (``import repro.pkg`` or a name it defines)."""
        seen = set()
        todo = []
        for root in roots:
            name = _module_name(root) if PACKAGE_ROOT in root.parents else ""
            if name:
                seen.add(name)
            todo.extend(self.targets(root, name))
        while todo:
            name = todo.pop()
            if name in seen:
                continue
            seen.add(name)
            todo.extend(self.targets(self.paths[name], name))
        return seen


def _roots() -> list:
    return [
        PACKAGE_ROOT / "cli.py",
        PACKAGE_ROOT / "__main__.py",
        *sorted((ROOT / "benchmarks" / "e2e").glob("*.py")),
        ROOT / "benchmarks" / "figures.py",
        *sorted((ROOT / "tools").glob("*.py")),
    ]


@pytest.fixture(scope="module")
def unreached() -> set:
    graph = _Graph()
    modules = {name for name in graph.paths if not graph.is_package(name)}
    return modules - graph.reachable(_roots())


def test_every_module_is_reached_or_listed_with_a_reason(unreached):
    stray = unreached - set(UNWIRED)
    assert not stray, (
        f"no entry point reaches {sorted(stray)}: wire the module into "
        "something that runs, or delete it (DESIGN.md §3)"
    )


def test_the_unwired_table_only_shrinks(unreached):
    stale = sorted(name for name in UNWIRED if name not in unreached)
    assert not stale, f"reachable or gone, drop from UNWIRED: {stale}"
    assert len(UNWIRED) <= 4
    assert all(reason.strip() for reason in UNWIRED.values())
