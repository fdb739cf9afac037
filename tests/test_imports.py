"""Start-up cost: numpy and scipy load only when a simulation or a
quadrature first runs. Each check runs in a fresh interpreter, because
this test process has long since loaded both."""

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
