"""Which calls load scipy.

The streaming sketch, every solver, the synthetic, random-features and
libsvm instances, the libsvm reader and writer and the Gaussian sketch
need only numpy; scipy is imported by the one function that uses it,
``realize_sjlt`` (scipy.sparse).  Each case runs in a fresh interpreter
so that modules loaded by other tests do not leak in.
"""
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_numpy_only_paths_load_no_scipy(tmp_path):
    out = run_fresh(f"""
        import sys
        import numpy as np
        import fdridge
        from fdridge import (RidgeProblem, SparseRowMatrix, StreamingSketch,
                             SweepConfig, apply_gaussian, dump_libsvm,
                             fdrr_solve, ifdrr_solve, load_instance,
                             parse_libsvm)

        load_instance(SweepConfig(dataset="synthetic", n=64, d=16, m=8))
        A, y, _ = load_instance(SweepConfig(dataset="gaussian-rff", n=200,
                                            d=32, m=8))
        path = {str(tmp_path / "data.txt")!r}
        dump_libsvm(SparseRowMatrix(3, 4, [(np.array([0, 2]), np.ones(2)),
                                           (np.array([1]), np.ones(1)),
                                           (np.array([0, 3]), np.ones(2))]),
                    np.ones(3), path)
        matrix, _ = parse_libsvm(path)
        # the CSR triple is three numpy arrays, never a scipy.sparse matrix
        assert all(type(part) is np.ndarray
                   for part in (matrix.indptr, matrix.indices, matrix.data))
        load_instance(SweepConfig(dataset="libsvm", libsvm_path=path, n=2,
                                  m=2))
        load_instance(SweepConfig(dataset="libsvm", libsvm_path=path, n=0,
                                  m=2, rff_features=8))
        sk = StreamingSketch(8, 32)
        sk.extend(A)
        sk.finalize("rfd")
        problem = RidgeProblem(A, y, 1.0)
        fdrr_solve(problem, 8, mode="rfd")
        ifdrr_solve(problem, 8, 3, mode="rfd")
        apply_gaussian(8, A, 0)
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """)
    assert out.strip() == "[]"


@pytest.mark.parametrize("call, module", [
    ("fdridge.realize_sjlt(8, 20, 0)", "scipy.sparse"),
], ids=["realize_sjlt"])
def test_scipy_callers_work_when_called_first(call, module):
    out = run_fresh(f"""
        import sys
        import fdridge
        assert "{module}" not in sys.modules
        result = {call}
        print(result.shape, "{module}" in sys.modules)
    """)
    assert out.split()[-1] == "True"
