"""Start-up cost: numpy and scipy load only when a simulation or a
quadrature first runs, and importing the package loads neither them nor
dataclasses, inspect or datetime. Each check runs in a fresh
interpreter, because this test process has long since loaded them all.
No private name of the package is left defined but unused, no name a
module imports is left unread, and every import within the package
points down its layer order."""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import umbralwalk

_NUMERIC = """
def numeric_modules():
    return sorted(
        m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy")
    )
"""


def _run_python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = str(Path(umbralwalk.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", "import sys\n" + _NUMERIC + textwrap.dedent(code)],
        capture_output=True, env=env, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done


def test_import_loads_neither_numpy_nor_scipy():
    _run_python("""
        import umbralwalk, umbralwalk.cli, umbralwalk.identities
        import umbralwalk.montecarlo
        assert numeric_modules() == [], numeric_modules()
    """)


def test_import_loads_no_dataclasses_inspect_or_datetime():
    # the records are namedtuples or `Record`s, and datetime waits for
    # `verify_all_payload`; dataclasses alone would load inspect
    _run_python("""
        import umbralwalk, umbralwalk.cli, umbralwalk.identities
        import umbralwalk.montecarlo
        loaded = {"dataclasses", "inspect", "datetime"} & set(sys.modules)
        assert not loaded, loaded
    """)


def test_exact_commands_load_neither_numpy_nor_scipy():
    _run_python("""
        import contextlib, io
        from umbralwalk import cli
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["catalog"]) == 0
            assert cli.main(["verify", "--id", "N3_UNIFORM", "--n", "3"]) == 0
        assert numeric_modules() == [], numeric_modules()
    """)


def test_quadrature_loads_numpy_on_first_use():
    _run_python("""
        from umbralwalk import Family, density_moment
        assert "numpy" not in sys.modules
        # E_2(1/2) = -1/4
        assert abs(density_moment(Family.EULER, 2, 0.5) + 0.25) < 1e-9
        assert "numpy" in sys.modules
    """)


@pytest.mark.slow
def test_simulation_loads_scipy_before_its_pool_forks():
    _run_python("""
        from umbralwalk import montecarlo as mc
        seen = []
        run_chunks = mc._run_chunks

        def spy(cfg, spans):
            seen.append(("numpy" in sys.modules, "scipy.special" in sys.modules))
            return run_chunks(cfg, spans)

        mc._run_chunks = spy
        cfg = mc.WalkConfig(
            walk="1d", start=0.0, target=0.5, z=0.5, dt=1e-3, paths=8, seed=1
        )
        est = mc.simulate_hit(cfg)
        assert seen == [(True, True)], seen
        assert est.paths == 8
    """)


def _private_definitions(tree: ast.Module):
    """The private names a module defines at its top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from (
            n for n in names if n.startswith("_") and not n.startswith("__")
        )


def _references(trees: dict[str, ast.Module]) -> dict[str, set[str]]:
    """Per module, the names read from it: its own bare names, the names
    other modules import from it, and every attribute name anywhere (an
    attribute's module is not known from the tree alone)."""
    refs = {module: set() for module in trees}
    attributes = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                refs[module].add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.level and node.module:
                # `from .series import x`; `from . import m` names modules
                source = f"{node.module}.py"
                refs[source].update(alias.name for alias in node.names)
    return {module: names | attributes for module, names in refs.items()}


def test_every_private_definition_is_used():
    package = Path(umbralwalk.__file__).resolve().parent
    trees = {
        path.name: ast.parse(path.read_text(), str(path))
        for path in sorted(package.glob("*.py"))
    }
    refs = _references(trees)
    unused = [
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in _private_definitions(tree)
        if name not in refs[module]
    ]
    assert unused == []


def _imported_names(tree: ast.Module, lines: list[str]):
    """The names a module's imports bind, anywhere in it, except those of
    an import kept for its side effect (marked `# noqa: F401`)."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "# noqa: F401" in lines[node.end_lineno - 1]:
            continue
        if isinstance(node, ast.Import):
            # `import a.b` binds a
            yield from (a.asname or a.name.split(".")[0] for a in node.names)
        elif node.module != "__future__":
            yield from (a.asname or a.name for a in node.names)


def test_every_import_is_read():
    # `__init__` imports to re-export: its imports are the package's face
    package = Path(umbralwalk.__file__).resolve().parent
    unread = []
    for path in sorted(package.glob("*.py")):
        if path.stem == "__init__":
            continue
        text = path.read_text()
        tree = ast.parse(text, str(path))
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unread += [
            f"{path.stem}:{name}"
            for name in _imported_names(tree, text.splitlines())
            if name not in read
        ]
    assert unread == []


# the layer order, bottom first: a module imports only from below it
_LAYERS = ("series", "polynomials", "umbral", "loopcalc", "identities")


def _allowed_imports(module: str) -> set[str]:
    if module in _LAYERS:
        return set(_LAYERS[: _LAYERS.index(module)])
    if module == "montecarlo":
        return {"loopcalc"}
    if module in ("cli", "__init__"):
        # the command line, on top, and the package's face stand on every
        # library module; neither imports the other
        return {*_LAYERS, "montecarlo"}
    if module == "__main__":
        return {"cli"}
    raise AssertionError(f"{module} has no place in the layer order")


def _package_imports(tree: ast.Module) -> set[str]:
    """The package modules a module imports: `from .x import ...` names
    x, and `from . import m` names m."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                found.add(node.module)
            else:
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(
                alias.name.split(".")[1]
                for alias in node.names
                if alias.name.startswith("umbralwalk.")
            )
    return found


def test_imports_point_down_the_layer_order():
    package = Path(umbralwalk.__file__).resolve().parent
    upward = {}
    for path in sorted(package.glob("*.py")):
        module = path.stem
        imported = _package_imports(ast.parse(path.read_text(), str(path)))
        if imported - _allowed_imports(module):
            upward[module] = sorted(imported - _allowed_imports(module))
    assert upward == {}
