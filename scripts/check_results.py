#!/usr/bin/env python3
"""Compare regenerated experiment tables with the checked-in ones.

    python3 scripts/check_results.py DIR

Every table in ``results/`` must have a counterpart of the same name in
DIR (regenerate with ``--out DIR/<name>`` on each command of
``scripts/reproduce.sh``).  ``results/`` is only read, never written.
The ``#`` lines, which embed the run's config, must match exactly; for
the first that differs, the ``key=value`` tokens found on one side only
are printed.

Rules, per cell:

- moment and error columns agree to a relative tolerance of 1e-8:
  ``|new - ref| <= 1e-8 |ref|``;
- ``rel_*`` columns may also differ by an absolute 1e-9, because they
  vanish on the exact rows and near-lossless sketches:
  ``|new - ref| <= 1e-9 + 1e-8 |ref|`` (the ``numpy.isclose`` rule);
- ``spectral_error`` may also differ by one ulp of the data's covariance
  scale, ``|new - ref| <= 1e-8 |ref| + eps |A|_F^2``, with ``|A|_F^2``
  read from the table as ``m`` times the ``bound`` of its ``fd`` row at
  ``k = 0``.  A near-lossless sketch's error sits at that roundoff, so
  any backward-stable change to the shrink moves it past a relative 1e-8;
- ``log10_error`` values at or below -12 are clipped to -12 first, so
  errors at the floor count as ties, and then compared in error units
  with one float64 ulp of ``|x*|`` as absolute slack:
  ``|10^new - 10^ref| <= 1e-8 10^ref + eps``.  Errors near the floor
  sit within an ulp of ``|x*|``, so a relative bound on their logarithm
  would fail on any reordering of the solver's arithmetic;
- every other column (keys, ``within_bound``, ``diverged``) matches
  exactly, as text.

The method orderings that acceptance criteria 5 and 6 assert must match
exactly as well: on sweep tables, the sign of (fdrr or rfdrr) minus every
other method for each gamma and moment column, and whether fdrr stays
within 2x of rfdrr; on iteration tables, the signs among ifdrr:rfd,
ifdrr:fd and ihs:sjlt at each gamma and iteration.

Prints the largest deviation per column, with the key columns (method,
gamma, and iteration, trial or k) of the row that used the largest share
of its tolerance, and, per table, how many body rows differ from the
reference at all, by method; it exits 1 if any rule fails.  A differing
row within every tolerance still passes.
"""
from __future__ import annotations

import collections
import csv
import itertools
import math
import sys
from pathlib import Path

RESULTS = Path(__file__).resolve().parent.parent / "results"
RTOL = 1e-8
ATOL = 1e-9
EPS = sys.float_info.epsilon  # one ulp, in the units of each slack
FLOOR = -12.0
RELATIVE = ("bias_sq", "var_trace", "mse", "log10_error", "spectral_error",
            "bound")
ABSOLUTE = ("rel_bias", "rel_var", "rel_mse")
MOMENTS = ("bias_sq", "var_trace", "mse") + ABSOLUTE
OURS = ("fdrr", "rfdrr")
CHAIN = ("ifdrr:rfd", "ifdrr:fd", "ihs:sjlt")
KEYS = ("method", "gamma", "iteration", "trial", "k")


def read_table(path: Path) -> tuple:
    """(the ``#`` lines, the rows below them as dicts)."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    comments = [line.rstrip("\n") for line in lines if line.startswith("#")]
    return comments, list(csv.DictReader(line for line in lines
                                         if not line.startswith("#")))


def _value(col: str, text: str) -> float:
    v = float(text)
    return max(v, FLOOR) if col == "log10_error" else v


def _absolute_slack(rows: list) -> dict:
    """Absolute slack per column, added to the relative tolerance."""
    slack = dict.fromkeys(ABSOLUTE, ATOL)
    slack["log10_error"] = EPS
    for row in rows:
        if row.get("method") == "fd" and row.get("k") == "0":
            frobenius_sq = float(row["m"]) * float(row["bound"])
            slack["spectral_error"] = EPS * frobenius_sq
    return slack


def _deviation(col: str, new: float, ref: float, slack: float) -> tuple:
    """(relative deviation, absolute deviation, share of the tolerance);
    ``log10_error`` deviations are in error units."""
    if not (math.isfinite(new) and math.isfinite(ref)):
        same = (math.isnan(new) and math.isnan(ref)) or new == ref
        return (0.0, 0.0, 0.0) if same else (math.inf, math.inf, math.inf)
    if col == "log10_error":
        new, ref = 10.0 ** new, 10.0 ** ref
    diff = abs(new - ref)
    rel = diff / abs(ref) if ref else (0.0 if diff == 0.0 else math.inf)
    tol = RTOL * abs(ref) + slack
    share = diff / tol if tol else (0.0 if diff == 0.0 else math.inf)
    return rel, diff, share


def _header_difference(new, ref) -> str:
    """The whitespace-separated tokens (``key=value`` on the config line)
    that only one of two ``#`` lines holds; a missing line holds none."""
    new, ref = (new or "").split(), (ref or "").split()
    parts = []
    for side, ours, theirs in (("new", new, ref), ("reference", ref, new)):
        only = [token for token in ours if token not in theirs]
        if only:
            parts.append(f"only in {side}: {' '.join(only)}")
    return "; ".join(parts) or "the same tokens in another order"


def _sign(a: float, b: float) -> int:
    if math.isnan(a) or math.isnan(b):
        return 2  # a diverged cell has no order; it must stay that way
    return (a > b) - (a < b)


def orderings(rows: list) -> dict:
    """The method comparisons criteria 5 and 6 rest on, keyed by cell."""
    out = {}
    if rows and "bias_sq" in rows[0]:
        cell = {(r["method"], r["gamma"]): r for r in rows}
        methods = sorted({r["method"] for r in rows})
        for (meth, g), row in cell.items():
            if meth not in OURS:
                continue
            for other in methods:
                if other == meth or (other, g) not in cell:
                    continue
                for col in MOMENTS:
                    out[(meth, other, g, col)] = _sign(
                        float(row[col]), float(cell[(other, g)][col]))
            if meth == "fdrr" and ("rfdrr", g) in cell:
                for col in ("bias_sq", "var_trace", "mse"):
                    out[("fdrr<=2rfdrr", g, col)] = (
                        float(row[col]) <= 2.0 * float(cell[("rfdrr", g)][col]))
    elif rows and "log10_error" in rows[0]:
        level = {(r["method"], r["gamma"], r["iteration"]):
                 _value("log10_error", r["log10_error"]) for r in rows}
        for (meth, g, i) in level:
            if meth != CHAIN[0]:
                continue
            for a, b in ((0, 1), (1, 2), (0, 2)):
                ka, kb = (CHAIN[a], g, i), (CHAIN[b], g, i)
                if ka in level and kb in level:
                    out[(CHAIN[a], CHAIN[b], g, i)] = _sign(level[ka], level[kb])
    return out


def compare(new_rows: list, ref_rows: list, name: str,
            new_comments=(), ref_comments=()) -> bool:
    ok = True
    for lineno, (new, ref) in enumerate(
            itertools.zip_longest(new_comments, ref_comments), start=1):
        if new != ref:
            print(f"{name}: # line {lineno} differs: "
                  f"{_header_difference(new, ref)}")
            ok = False
            break
    if len(new_rows) != len(ref_rows) or (
            new_rows and list(new_rows[0]) != list(ref_rows[0])):
        print(f"{name}: shape differs ({len(new_rows)} vs {len(ref_rows)} rows)")
        return False
    worst = {}
    where = {}  # column -> key columns of its largest share's row
    moved = collections.Counter()
    slack = _absolute_slack(ref_rows)
    for lineno, (new, ref) in enumerate(zip(new_rows, ref_rows), start=1):
        if new != ref:
            moved[ref.get("method", "")] += 1
        for col, ref_text in ref.items():
            if col in RELATIVE or col in ABSOLUTE:
                devs = _deviation(col, _value(col, new[col]),
                                  _value(col, ref_text), slack.get(col, 0.0))
                seen = worst.setdefault(col, [0.0, 0.0, 0.0])
                if devs[2] > seen[2]:
                    where[col] = " ".join(f"{key}={ref[key]}"
                                          for key in KEYS if key in ref)
                worst[col] = [max(a, b) for a, b in zip(seen, devs)]
            elif new[col] != ref_text:
                print(f"{name}: row {lineno} column {col}: "
                      f"{new[col]!r} != {ref_text!r}")
                ok = False
    by_method = ", ".join(f"{meth} {count}"
                          for meth, count in sorted(moved.items()))
    print(f"{name}: {sum(moved.values())} of {len(ref_rows)} body rows differ"
          + (f" ({by_method})" if moved else ""))
    for col, (rel, diff, share) in worst.items():
        passed = share <= 1.0
        ok &= passed
        print(f"{name}: {col:<14} max rel dev {rel:.3e}, max abs dev "
              f"{diff:.3e}, {share:.3g} of tolerance "
              f"{'ok' if passed else 'FAIL'}"
              + (f" (largest share at {where[col]})" if col in where else ""))
    new_order, ref_order = orderings(new_rows), orderings(ref_rows)
    flipped = [key for key in ref_order if new_order.get(key) != ref_order[key]]
    if new_order or ref_order:
        print(f"{name}: {len(ref_order)} method comparisons, "
              f"{len(flipped)} changed")
        for key in flipped[:10]:
            print(f"{name}:   changed {key}")
    return ok and not flipped and set(new_order) == set(ref_order)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    fresh = Path(argv[0])
    ok = True
    for ref_path in sorted(RESULTS.glob("*.csv")):
        new_path = fresh / ref_path.name
        if not new_path.exists():
            print(f"{ref_path.name}: missing from {fresh}")
            ok = False
            continue
        new_comments, new_rows = read_table(new_path)
        ref_comments, ref_rows = read_table(ref_path)
        ok &= compare(new_rows, ref_rows, ref_path.name,
                      new_comments, ref_comments)
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
