"""The three benchmark workloads.

Each workload builds its inputs from the seed in ``setup`` (instance plus
oracle answers), runs one protocol pass per ``run_pass`` call, and checks
a pass with ``check``.  The program sees only the generated instance, or
``--set seed=<seed>`` on the CLI path.  All calls into fdridge go through
module attributes so that the tracer's rebinding sees them.
"""
from __future__ import annotations

import contextlib
import csv
import io
import math
import time
from pathlib import Path

import numpy as np

from fdridge import cli, experiments, sketch, solvers

CONFIGS = Path(__file__).resolve().parent / "configs"
TOL = 1e-8        # relative error ifdrr:rfd must reach on iterate-rff
FLOOR = -12.0     # log10 errors below this count as ties (criterion 6)


def _percentile(values, q):
    return float(np.percentile(np.asarray(values, dtype=float), q))


def _median(values):
    return float(np.median(np.asarray(values, dtype=float)))


def _read_table(path):
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _quiet_cli(argv):
    """Run the CLI in-process; its one-line summary stays off stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class Checks:
    """Named pass/fail records; every check counts as one attempt."""

    def __init__(self):
        self.items = []

    def add(self, name, ok, detail=""):
        self.items.append({"check": name, "ok": bool(ok), "detail": detail})

    @property
    def failed(self):
        return sum(not c["ok"] for c in self.items)


class Workload:
    name = ""
    min_passes = 2

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.smoke = smoke

    def config(self, cfg_name):
        settings = {"seed": str(self.seed)}
        settings.update(self.SMOKE if self.smoke else {})
        return experiments.load_config(CONFIGS / cfg_name, settings)

    def cli_sets(self):
        sets = ["--set", f"seed={self.seed}"]
        for key, value in (self.SMOKE if self.smoke else {}).items():
            sets += ["--set", f"{key}={value}"]
        return sets

    def enough(self, results):
        return len(results) >= self.min_passes


class StreamRff(Workload):
    """Rows of the RFF instance through StreamingSketch(m=128) in blocks,
    a finalize("rfd") snapshot every SNAP_EVERY blocks, the final sketch
    written as CSV, then fdrr_solve(mode="rfd", gamma=100)."""

    name = "stream-rff"
    SMOKE = {"n": "600", "d": "64"}
    M, SMOKE_M = 128, 16
    GAMMA = 100.0
    SNAP_EVERY = 2
    MIN_SNAPSHOTS = 100

    def setup(self):
        config = self.config("iterate_rff.cfg")
        A, y, _ = experiments.load_instance(config)
        m = self.SMOKE_M if self.smoke else self.M
        x_exact = solvers.solve_exact(solvers.RidgeProblem(A, y, self.GAMMA))
        gram = A.T @ A
        sq = np.clip(np.linalg.eigvalsh(gram)[::-1], 0.0, None)
        tails = np.concatenate([np.cumsum(sq[::-1])[::-1], [0.0]])
        bound = min(tails[k] / (m - k) for k in range(m))
        return {"A": A, "y": y, "m": m, "x_exact": x_exact, "gram": gram,
                "fd_bound": float(bound)}

    def run_pass(self, st, out):
        A, m = st["A"], st["m"]
        sk = sketch.StreamingSketch(m, A.shape[1])
        extend_s = 0.0
        snaps = []
        starts = range(0, A.shape[0], m)
        for j, lo in enumerate(starts):
            t0 = time.perf_counter()
            sk.extend(A[lo:lo + m])
            extend_s += time.perf_counter() - t0
            if (j + 1) % self.SNAP_EVERY == 0 and j + 1 < len(starts):
                t0 = time.perf_counter()
                sk.finalize("rfd")
                snaps.append(time.perf_counter() - t0)
        fd, rfd = sk.finalize("fd"), sk.finalize("rfd")
        sketch.save_sketch_csv(rfd, out)
        problem = solvers.RidgeProblem(A, st["y"], self.GAMMA)
        t0 = time.perf_counter()
        x = solvers.fdrr_solve(problem, m, mode="rfd")
        oneshot_s = time.perf_counter() - t0
        return {"extend_s": extend_s, "snapshots": snaps,
                "oneshot_s": oneshot_s, "rows": A.shape[0], "fd": fd,
                "rfd": rfd, "x": x, "ops": len(starts) + len(snaps) + 4,
                "output": Path(out).read_bytes() + x.tobytes()}

    def enough(self, results):
        snaps = sum(len(r["snapshots"]) for r in results)
        return len(results) >= self.min_passes and snaps >= self.MIN_SNAPSHOTS

    def check(self, st, res, checks):
        bound = st["fd_bound"]
        errs = {}
        for mode, limit in (("fd", bound), ("rfd", bound / 2.0)):
            diff = st["gram"] - res[mode].covariance()
            errs[mode] = float(np.max(np.abs(np.linalg.eigvalsh(diff))))
            checks.add(f"{mode} covariance error within rank-k bound",
                       errs[mode] <= limit * (1.0 + 1e-9),
                       f"{errs[mode]:.6g} <= {limit:.6g}")
        x, x_exact = res["x"], st["x_exact"]
        rel = float(np.linalg.norm(x - x_exact) / np.linalg.norm(x_exact))
        checks.add("fdrr solution finite", np.isfinite(x).all())
        st["quality"] = {"cov_err_over_bound": errs["fd"] / bound,
                         "rfd_cov_err_over_bound": errs["rfd"] / (bound / 2),
                         "oneshot_log10_err": math.log10(rel)}

    def report(self, st, results):
        snaps = [s for r in results for s in r["snapshots"]]
        n = len(results)
        q = st["quality"]
        return {
            "rows_per_s": (_median([r["rows"] / r["extend_s"] for r in results]), "1/s", n),
            "snapshot_ms.p50": (1e3 * _percentile(snaps, 50), "ms", len(snaps)),
            "snapshot_ms.p90": (1e3 * _percentile(snaps, 90), "ms", len(snaps)),
            "oneshot_s": (_median([r["oneshot_s"] for r in results]), "s", n),
            "oneshot_log10_err": (q["oneshot_log10_err"], "log10", 1),
            "cov_err_over_bound": (q["cov_err_over_bound"], "ratio", 1),
            "rfd_cov_err_over_bound": (q["rfd_cov_err_over_bound"], "ratio", 1),
        }


class SweepLowrank(Workload):
    """``fdridge sweep`` in-process on the low-rank instance, all seven
    methods, the 15-gamma grid, one trial, ``--raw``."""

    name = "sweep-lowrank"
    SMOKE = {"n": "256", "d": "64", "m": "32", "gammas": "0.25,1,4"}
    CFG = "sweep_lowrank.cfg"
    RANDOMIZED = ("classical:gauss", "classical:sjlt",
                  "hessian:gauss", "hessian:sjlt")

    def setup(self):
        config = self.config(self.CFG)
        A, _, model = experiments.load_instance(config)
        # Exact ridge diagnostics from one eigendecomposition of A^T A:
        # bias^2 = sum (gamma d_i c_i)^2 and var = sigma^2 sum w_i d_i^2
        # with d_i = 1 / (w_i + gamma) and c = V^T x0.
        w, V = np.linalg.eigh(A.T @ A)
        w = np.clip(w, 0.0, None)
        c = V.T @ model.truth
        oracle = {}
        for g in sorted(set(config.gammas)):
            dinv = 1.0 / (w + g)
            oracle[g] = (float(np.sum((g * dinv * c) ** 2)),
                         model.noise_sd ** 2 * float(np.sum(w * dinv ** 2)))
        return {"oracle": oracle}

    def run_pass(self, st, out):
        t0 = time.perf_counter()
        rc = _quiet_cli(["sweep", "--config", str(CONFIGS / self.CFG),
                         "--out", str(out), "--jobs", "1", "--raw"]
                        + self.cli_sets())
        table_s = time.perf_counter() - t0
        output = b""
        if rc == 0:
            output = Path(out).read_bytes() + Path(f"{out}.raw.csv").read_bytes()
        return {"rc": rc, "table_s": table_s, "table": out, "ops": 1,
                "output": output}

    def check(self, st, res, checks):
        checks.add("sweep exit status 0", res["rc"] == 0, str(res["rc"]))
        if res["rc"] != 0:
            return
        table = {}
        for row in _read_table(res["table"]):
            table.setdefault(row["method"], {})[float(row["gamma"])] = row
        numeric = ("bias_sq", "var_trace", "mse", "rel_bias", "rel_var", "rel_mse")
        finite = all(math.isfinite(float(row[col])) and row["diverged"] == "0"
                     for meth in ("exact", "fdrr", "rfdrr")
                     for row in table[meth].values() for col in numeric)
        checks.add("exact/fdrr/rfdrr rows finite", finite)
        worst = max(max(float(table[m][g][col]) for m in ("fdrr", "rfdrr"))
                    / min(float(table[m][g][col]) for m in self.RANDOMIZED)
                    for g in st["oracle"] for col in ("rel_bias", "rel_var", "rel_mse"))
        checks.add("criterion 5: fdrr, rfdrr beat every randomized method",
                   worst < 1.0, f"worst ours/best random = {worst:.4g}")
        dev = max(abs(float(table["exact"][g][col]) - ref) / ref
                  for g, refs in st["oracle"].items()
                  for col, ref in zip(("bias_sq", "var_trace"), refs))
        checks.add("exact rows match the eigendecomposition oracle",
                   dev <= 1e-6, f"max rel dev {dev:.3g}")
        st["quality"] = {"dominance_ratio": worst}

    def report(self, st, results):
        return {
            "table_s": (_median([r["table_s"] for r in results]), "s", len(results)),
            "dominance_ratio": (st["quality"]["dominance_ratio"], "ratio", 1),
        }


class IterateRff(Workload):
    """``fdridge iterate`` in-process on the RFF instance (gammas 10, 100;
    ifdrr:fd, ifdrr:rfd, ihs:sjlt, single:gauss), then ifdrr_solve(m=256,
    mode="rfd", gamma=100) run for exactly the iterations that reach a
    relative error of 1e-8."""

    name = "iterate-rff"
    SMOKE = {"n": "600", "d": "64", "m": "32"}
    CFG = "iterate_rff.cfg"
    GAMMA = 100.0
    ITERATIONS = 40   # ifdrr:fd at gamma = 10 trips the guard near 30

    def setup(self):
        config = self.config(self.CFG)
        A, y, _ = experiments.load_instance(config)
        problem = solvers.RidgeProblem(A, y, self.GAMMA)
        return {"problem": problem, "m": config.m,
                "x_exact": solvers.solve_exact(problem)}

    def run_pass(self, st, out):
        t0 = time.perf_counter()
        rc = _quiet_cli(["iterate", "--config", str(CONFIGS / self.CFG),
                         "--out", str(out), "--jobs", "1",
                         "--t", str(self.ITERATIONS)] + self.cli_sets())
        table_s = time.perf_counter() - t0
        res = {"rc": rc, "table_s": table_s, "table": out, "ops": 1,
               "output": b""}
        if rc != 0:
            return res
        res["output"] = Path(out).read_bytes()
        rows = _read_table(out)
        hits = [int(r["iteration"]) for r in rows
                if r["method"] == "ifdrr:rfd" and float(r["gamma"]) == self.GAMMA
                and float(r["log10_error"]) <= math.log10(TOL)]
        res["rows"] = rows
        if hits:
            iters = min(hits)
            t0 = time.perf_counter()
            x, _ = solvers.ifdrr_solve(st["problem"], st["m"], iters, mode="rfd")
            res["time_to_tol_s"] = time.perf_counter() - t0
            res["iters_to_tol"] = iters
            res["tol_err"] = float(np.linalg.norm(x - st["x_exact"])
                                   / np.linalg.norm(st["x_exact"]))
            res["ops"] += 1
            res["output"] += x.tobytes()
        return res

    def check(self, st, res, checks):
        checks.add("iterate exit status 0", res["rc"] == 0, str(res["rc"]))
        if res["rc"] != 0:
            return
        checks.add("ifdrr:rfd reaches 1e-8 at gamma=100 in the table",
                   "iters_to_tol" in res)
        if "tol_err" in res:
            checks.add("ifdrr_solve error <= 1e-8 against solve_exact",
                       res["tol_err"] <= TOL, f"{res['tol_err']:.3g}")
        level = {(r["method"], float(r["gamma"]), int(r["iteration"])):
                 max(float(r["log10_error"]), FLOOR) for r in res["rows"]}
        bad = [i for i in range(1, self.ITERATIONS + 1)
               if not (level[("ifdrr:rfd", self.GAMMA, i)]
                       <= level[("ifdrr:fd", self.GAMMA, i)]
                       <= level[("ihs:sjlt", self.GAMMA, i)])]
        checks.add("criterion 6: rfd <= fd <= ihs:sjlt at gamma=100", not bad,
                   f"violated at iterations {bad}" if bad else "")
        st["diverged"] = sorted({r["method"] for r in res["rows"]
                                 if r["diverged"] == "1"})

    def report(self, st, results):
        tol = [r for r in results if "time_to_tol_s" in r]
        out = {"table_s": (_median([r["table_s"] for r in results]), "s", len(results))}
        if tol:
            out["time_to_tol_s"] = (_median([r["time_to_tol_s"] for r in tol]), "s", len(tol))
            out["iters_to_tol"] = (tol[0]["iters_to_tol"], "count", len(tol))
        out["diverged_methods"] = (len(st.get("diverged", ())), "count", 1)
        return out


WORKLOADS = {cls.name: cls for cls in (StreamRff, SweepLowrank, IterateRff)}
