"""numpy loads only in the numeric commands, scipy only where a CSR matrix
is built.

Each test runs in a fresh interpreter, so nothing imported by the rest of the
suite hides a missing local import.  Importing the package root and its
combinatorial modules, and running ``validate``, ``analyze`` and ``example``,
never load numpy; ``fock`` and ``gelfand`` still run after them in the same
process.  ``validate``, ``analyze``, ``gelfand`` and ``fock``, with or without
``--op``, never load scipy, nor do ``orthogonal_isometries`` and the Matrix
Market export of a creation operator, and every site that builds a CSR matrix
works when it is the first to need scipy.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

PRELUDE = """\
import sys

def scipy_loaded():
    return any(name.startswith("scipy") for name in sys.modules)

def numpy_loaded():
    return any(name.split(".")[0] == "numpy" for name in sys.modules)
"""


def run_fresh(body, cwd):
    """Run ``body`` after ``PRELUDE`` in a new interpreter; fail on its error."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    script = PRELUDE + textwrap.dedent(body)
    proc = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_combinatorial_commands_never_load_numpy(tmp_path):
    """A ``seed:`` table would: numpy's generator defines its bytes."""
    run_fresh("""
        import contextlib, io
        import kfock, kfock.cli as cli
        import kfock.kgraph, kfock.builders, kfock.dsl, kfock.structure, kfock.reports
        assert not numpy_loaded()

        def run(*argv):
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(list(argv))

        codes = [
            run("validate", "cycle", "3", "2"),
            run("analyze", "chain", "3"),
            run("example", "chain", "3"),
            run("example", "chain", "3", "--out", "chain3.kg"),
            run("validate", "chain3.kg"),
        ]
        assert codes == [0] * 5, codes
        assert not numpy_loaded(), sorted(m for m in sys.modules if m.startswith("numpy"))

        assert run("fock", "cycle", "3", "2", "--trunc", "3", "--op", "e1",
                   "--out", "export") == 0
        assert run("gelfand", "single-vertex", "2", "2", "cyclic",
                   "--samples", "1", "--seed", "3", "--trunc", "10") == 0
        assert numpy_loaded()
    """, tmp_path)


def test_commands_without_exports_never_load_scipy(tmp_path):
    """Nor does a ``fock --op`` export after them: it writes from the operator's map."""
    run_fresh("""
        import contextlib, io, os
        import kfock, kfock.cli as cli

        def run(*argv):
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(list(argv))

        codes = [
            run("validate", "cycle", "4", "3"),
            run("analyze", "chain", "3"),
            run("fock", "cycle", "3", "2", "--trunc", "3", "--out", "plain"),
            run("gelfand", "single-vertex", "2", "2", "cyclic",
                "--samples", "1", "--seed", "3", "--trunc", "6"),
        ]
        assert codes[:3] == [0, 0, 0] and codes[3] in (0, 3), codes
        assert not scipy_loaded(), sorted(m for m in sys.modules if m.startswith("scipy"))

        assert run("fock", "cycle", "3", "2", "--trunc", "3", "--op", "e1",
                   "--out", "export") == 0
        assert not scipy_loaded(), sorted(m for m in sys.modules if m.startswith("scipy"))
        assert os.path.isfile(os.path.join("export", "e1.mtx"))
    """, tmp_path)


def test_orthogonal_isometries_report_without_scipy(tmp_path):
    run_fresh("""
        from kfock import builders, fock
        g = builders.bouquet(2)
        U, V, rep = fock.orthogonal_isometries(g, fock.TruncatedFock(g, 8))
        assert rep["ok"] and rep["isometryBlockDim"] > 0
        assert not scipy_loaded()
        assert U.matrix.nnz == U.nnz and V.matrix.nnz == V.nnz
        assert scipy_loaded()
    """, tmp_path)


def test_matrix_market_export_never_loads_scipy(tmp_path):
    run_fresh("""
        from kfock import builders, fock
        space = fock.TruncatedFock(builders.builtin_graph(['cycle', '3', '2']), 3)
        fock.write_matrix_market(fock.left_op(space, 'e1'), 'e1.mtx')
        with open('e1.mtx') as fh:
            lines = fh.read().splitlines()
        assert lines[:3] == ['%%MatrixMarket matrix coordinate complex general', '%', '30 30 6']
        assert not scipy_loaded()
    """, tmp_path)


# cycle 3 2 at N = 3: 30 basis paths, and L_e1 has 6 entries
SITES = {
    "cesaro": """
        op = fock.cesaro(fock.left_op(space, 'e1'), 2)
        assert op.nnz == 6 and abs(op.matrix.data).max() == 0.5
    """,
    "SparseOperator(matrix=...)": """
        import numpy as np
        assert fock.SparseOperator(space, matrix=np.eye(30, dtype=np.int64)).nnz == 30
    """,
    "SparseOperator.matrix": "assert fock.left_op(space, 'e1').matrix.nnz == 6",
}


@pytest.mark.parametrize("site", SITES)
def test_lazy_site_loads_scipy_on_first_use(site, tmp_path):
    setup = """
        from kfock import builders, fock
        space = fock.TruncatedFock(builders.builtin_graph(['cycle', '3', '2']), 3)
        assert not scipy_loaded()
    """
    run_fresh("\n".join([textwrap.dedent(setup), textwrap.dedent(SITES[site]),
                          "assert scipy_loaded()"]), tmp_path)
