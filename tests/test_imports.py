"""Which calls load scipy.

The streaming sketch, every solver, both synthetic and random-features
instances and the Gaussian sketch need only numpy; scipy is imported by
the one function that uses it, ``realize_sjlt`` (scipy.sparse).  Each
case runs in a fresh interpreter so that modules loaded by other tests
do not leak in.
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


def test_numpy_only_paths_load_no_scipy():
    out = run_fresh("""
        import sys
        import fdridge
        from fdridge import (RidgeProblem, StreamingSketch, SweepConfig,
                             apply_gaussian, fdrr_solve, ifdrr_solve,
                             load_instance)

        load_instance(SweepConfig(dataset="synthetic", n=64, d=16, m=8))
        A, y, _ = load_instance(SweepConfig(dataset="gaussian-rff", n=200,
                                            d=32, m=8))
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
