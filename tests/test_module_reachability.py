"""Nothing in ``src/repro`` without a caller (DESIGN.md §3, "What lives
in ``src/repro``"), per module and per function.

The import graph is walked from what actually runs — ``repro.cli``,
``repro.__main__``, ``benchmarks/e2e/*.py`` (its smoke test aside),
``benchmarks/figures.py`` (the registry ``tools/make_report.py`` runs),
``tools/*.py`` and ``examples/*.py`` — and a ``from repro.pkg import
Name`` is followed through the package ``__init__`` to the module that
defines ``Name``, so a re-export keeps nothing alive by itself.  Every
module is then either reached, or listed in :data:`UNWIRED` with the
reason it stays.

Inside a reached module every class, function and method (dunders
aside) must be named by the code of a reached module, a root file or an
``UNWIRED`` module (what a module kept for its reason calls is kept with
it): as a ``Name``, an ``Attribute``, or an identifier string — a ``getattr``
name, or a ``"quoted"`` identifier inside a string such as the C glue's
attribute names in ``native._GLUE``.  Docstrings, ``__all__`` entries
and import lists name nothing.  Matching by bare name over-approximates:
a def that shares its name with a live one counts as reached.  A def no
reached code names is listed in :data:`UNREACHED` with its reason, or
deleted.  Both tables can only shrink: an entry that has become
reachable, or whose module or def is gone, fails too.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_ROOT = ROOT / "src" / "repro"

#: Modules no entry point reaches, and why each stays (DESIGN.md §3).
UNWIRED = {
    # Paper-described, not yet wired (ROADMAP says what will wire each).
    "repro.control.protected":
        "sole producer of the Eq. 3 control packets the router's SegR "
        "branch verifies (§5.3); ROADMAP item 8(a): renewals ride it "
        "on the scenario/campaign path",
    "repro.control.distributed":
        "§3 / App. D distributed CServ; ROADMAP item 8(b): a campaign "
        "runs one transit AS distributed",
    "repro.reservation.persistence":
        "crash/reload half of ROADMAP item 7's differential machine",
    "repro.topology.serialization":
        "topology half of the same crash/reload snapshot (ROADMAP item 7)",
}

#: Defs in reached modules that no reached code names, and why each
#: stays: the open ROADMAP item that will give it a caller, or the test
#: that uses it as its reference (DESIGN.md §3).
UNREACHED = {
    "repro.control.cserv.ColibriService.teardown_segment":
        "SegR teardown; ROADMAP items 7 (the machine tears SegRs down) "
        "and 9(e)",
    "repro.packets.control.decode_message":
        "the hop's parse of a MAC'd control message; ROADMAP item 12",
    "repro.control.rpc.FaultInjector.set_default":
        "loss on every link for ROADMAP item 7's machine under faults",
    "repro.control.rpc.MessageBus.heal":
        "the undo of partition for ROADMAP item 7's machine under faults",
    "repro.dataplane.hvf.eer_hvf_message":
        "Eq. 6 reference: tests/test_dataplane.py checks the gateway's "
        "HVF against it",
}

#: A ``"quoted"`` identifier inside a longer string (C source, messages).
_QUOTED = re.compile(r'"([A-Za-z_]\w*)"')


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
    e2e = ROOT / "benchmarks" / "e2e"
    return [
        PACKAGE_ROOT / "cli.py",
        PACKAGE_ROOT / "__main__.py",
        *sorted(set(e2e.glob("*.py")) - set(e2e.glob("test_*.py"))),
        ROOT / "benchmarks" / "figures.py",
        *sorted((ROOT / "tools").glob("*.py")),
        *sorted((ROOT / "examples").glob("*.py")),
    ]


def _named(tree: ast.Module) -> set:
    """Every identifier one file's code names (see the module docstring)."""
    silent = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if (
            isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
        ):
            silent.add(id(body[0].value))
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            silent.update(id(item) for item in ast.walk(node.value))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in silent
        ):
            if node.value.isidentifier():
                names.add(node.value)
            else:
                names.update(_QUOTED.findall(node.value))
    return names


def _defs(body, prefix: str):
    """``(qualified name, name)`` of each class, function and method."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qualified = f"{prefix}.{node.name}"
            yield qualified, node.name
            if isinstance(node, ast.ClassDef):
                yield from _defs(node.body, qualified)


@pytest.fixture(scope="module")
def graph() -> _Graph:
    return _Graph()


@pytest.fixture(scope="module")
def reached(graph) -> set:
    return graph.reachable(_roots())


@pytest.fixture(scope="module")
def unreached(graph, reached) -> set:
    modules = {name for name in graph.paths if not graph.is_package(name)}
    return modules - reached


@pytest.fixture(scope="module")
def unreached_defs(graph, reached) -> set:
    named = set()
    for path in [graph.paths[name] for name in reached | set(UNWIRED)] + _roots():
        named |= _named(graph.tree(path))
    return {
        qualified
        for module in reached
        for qualified, name in _defs(graph.tree(graph.paths[module]).body, module)
        if name not in named and not (name.startswith("__") and name.endswith("__"))
    }


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


def test_every_def_is_reached_or_listed_with_a_reason(unreached_defs):
    stray = sorted(unreached_defs - set(UNREACHED))
    assert not stray, (
        f"nothing that runs names {stray}: give each a caller, or delete "
        "it and re-point its tests at the state they check (DESIGN.md §3)"
    )


def test_the_unreached_table_only_shrinks(unreached_defs):
    stale = sorted(name for name in UNREACHED if name not in unreached_defs)
    assert not stale, f"reached or gone, drop from UNREACHED: {stale}"
    assert len(UNREACHED) <= 5
    assert all("ROADMAP item" in reason or "tests/" in reason for reason in UNREACHED.values())
