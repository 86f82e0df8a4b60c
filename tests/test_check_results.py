"""Tolerance rules of scripts/check_results.py, on small hand-made tables."""
import importlib.util
import math
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "check_results.py"


@pytest.fixture(scope="module")
def check():
    spec = importlib.util.spec_from_file_location("check_results", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def sweep_rows():
    moments = {"exact": 1.0, "fdrr": 2.0, "rfdrr": 1.5, "hessian:gauss": 3.0}
    return [{"method": meth, "gamma": "1", "bias_sq": repr(v),
             "var_trace": repr(v + 0.25), "mse": repr(2 * v + 0.25),
             "rel_bias": repr(v - 1.0), "rel_var": repr(v - 1.0),
             "rel_mse": repr(v - 1.0), "diverged": "0"}
            for meth, v in moments.items()]


def iterate_rows(levels):
    return [{"method": meth, "gamma": "100", "iteration": "1",
             "log10_error": repr(level), "diverged": "0"}
            for meth, level in levels.items()]


def accuracy_rows(fd_error=7.9e-8, gauss_error=489.9, m=256,
                  frobenius_sq=24883.0):
    rows = []
    for meth, err in (("fd", fd_error), ("rfd", fd_error / 2),
                      ("gauss", gauss_error)):
        for k in range(3):
            bound = (frobenius_sq - 100.0 * k) / (m - k)
            if meth == "rfd":
                bound /= 2.0
            rows.append({"method": meth, "m": str(m), "k": str(k),
                         "spectral_error": repr(err), "bound": repr(bound),
                         "within_bound": str(int(err <= bound))})
    return rows


def levels(rfd=-5.0, fd=-4.5, ihs=-2.0):
    return {"ifdrr:rfd": rfd, "ifdrr:fd": fd, "ihs:sjlt": ihs}


def moved(error_level, by):
    """log10 of 10^error_level + by, i.e. the error moved by ``by``."""
    return math.log10(10.0 ** error_level + by)


def test_identical_tables_pass(check):
    assert check.compare(sweep_rows(), sweep_rows(), "sweep")
    assert check.compare(iterate_rows(levels()), iterate_rows(levels()), "iter")


def test_differing_rows_are_counted_by_method(check, capsys):
    new = sweep_rows()
    for row in (new[1], new[3]):  # fdrr and hessian:gauss, within tolerance
        row["var_trace"] = repr(float(row["var_trace"]) * (1 + 1e-12))
    assert check.compare(new, sweep_rows(), "sweep")
    out = capsys.readouterr().out
    assert "sweep: 2 of 4 body rows differ (fdrr 1, hessian:gauss 1)" in out
    assert check.compare(sweep_rows(), sweep_rows(), "sweep")
    assert "sweep: 0 of 4 body rows differ\n" in capsys.readouterr().out


def test_relative_change_on_a_moment_fails(check):
    new = sweep_rows()
    new[3]["bias_sq"] = repr(float(new[3]["bias_sq"]) * (1 + 1e-6))
    assert not check.compare(new, sweep_rows(), "sweep")


def test_failing_column_names_its_row(check, capsys):
    # the largest share comes from the iteration-2 row, though a larger
    # absolute move sits at a larger error in the iteration-1 row
    ref = iterate_rows(levels()) + [
        {**row, "iteration": "2"} for row in iterate_rows(levels(fd=-7.0))]
    new = [dict(row) for row in ref]
    new[1]["log10_error"] = repr(moved(-4.5, 1e-13))
    new[4]["log10_error"] = repr(moved(-7.0, 1e-14))
    assert not check.compare(new, ref, "iter")
    out = capsys.readouterr().out
    assert ("FAIL (largest share at method=ifdrr:fd gamma=100 iteration=2)"
            in out)


def test_sub_ulp_move_near_the_floor_passes(check):
    # half an ulp of |x*| at an error of 1e-11 moves the log by ~5e-6
    # relative: far past 1e-8 on the log, well within float64 resolution
    ref = iterate_rows(levels(rfd=-11.0))
    new = iterate_rows(levels(rfd=moved(-11.0, 0.5 * sys.float_info.epsilon)))
    assert new != ref
    assert check.compare(new, ref, "iter")


def test_relative_move_of_a_large_error_fails(check):
    ref = iterate_rows(levels(fd=-4.0))
    new = iterate_rows(levels(fd=moved(-4.0, 1e-6 * 1e-4)))
    assert not check.compare(new, ref, "iter")


def test_sub_ulp_move_of_a_near_lossless_error_passes(check):
    # half an ulp of |A|_F^2 on an error of 7.9e-8: the roundoff of any
    # backward-stable shrink, 1.7e4 times past a relative 1e-8
    ref = accuracy_rows()
    new = accuracy_rows(
        fd_error=7.9e-8 + 0.5 * sys.float_info.epsilon * 24883.0)
    assert new != ref
    assert check.compare(new, ref, "acc")


def test_relative_move_of_a_random_sketch_error_fails(check):
    ref = accuracy_rows()
    new = accuracy_rows(gauss_error=489.9 * (1 + 1e-6))
    assert not check.compare(new, ref, "acc")


def test_flipped_criterion_6_ordering_fails(check):
    # rfd and fd 1e-10 apart in the log: swapping them stays within every
    # per-cell tolerance but reverses the order criterion 6 asserts
    low, high = -5.0, -5.0 + 1e-10
    ref = iterate_rows(levels(rfd=low, fd=high))
    new = iterate_rows(levels(rfd=high, fd=low))
    assert not check.compare(new, ref, "iter")


def test_missing_table_fails(check, tmp_path, monkeypatch, capsys):
    results = tmp_path / "results"
    fresh = tmp_path / "fresh"
    results.mkdir()
    fresh.mkdir()
    for name in ("a.csv", "b.csv"):
        (results / name).write_text("method,gamma\nexact,1\n")
    (fresh / "a.csv").write_text("method,gamma\nexact,1\n")
    monkeypatch.setattr(check, "RESULTS", results)
    assert check.main([str(fresh)]) == 1
    assert "b.csv: missing" in capsys.readouterr().out
    (fresh / "b.csv").write_text("method,gamma\nexact,1\n")
    assert check.main([str(fresh)]) == 0


def test_changed_config_line_fails(check, tmp_path, monkeypatch, capsys):
    results = tmp_path / "results"
    fresh = tmp_path / "fresh"
    results.mkdir()
    fresh.mkdir()
    body = "method,gamma\nexact,1\n"
    (results / "a.csv").write_text("# sweep\n# m=256 seed=0 sjlt_s=8\n" + body)
    (fresh / "a.csv").write_text("# sweep\n# m=256 seed=1 sjlt_s=8\n" + body)
    monkeypatch.setattr(check, "RESULTS", results)
    assert check.main([str(fresh)]) == 1
    out = capsys.readouterr().out
    assert ("a.csv: # line 2 differs: only in new: seed=1; "
            "only in reference: seed=0\n") in out
    # a key dropped from the config: only its token is printed
    (fresh / "a.csv").write_text("# sweep\n# m=256 seed=0\n" + body)
    assert check.main([str(fresh)]) == 1
    out = capsys.readouterr().out
    assert "a.csv: # line 2 differs: only in reference: sjlt_s=8\n" in out
    (fresh / "a.csv").write_text("# sweep\n" + body)
    assert check.main([str(fresh)]) == 1
    (fresh / "a.csv").write_text("# sweep\n# m=256 seed=0 sjlt_s=8\n" + body)
    assert check.main([str(fresh)]) == 0
