#!/bin/sh
# Regenerate all result tables from the checked-in configs.  Tables are
# deterministic: rerunning this script reproduces them byte for byte.
set -eu
# One BLAS thread: more threads split the matrix products' sums
# differently, which moves the tables' last digits.
export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1
cd "$(dirname "$0")/.."
mkdir -p results

python3 -m fdridge.cli sweep      --config scripts/configs/sweep_lowrank.cfg    --out results/sweep-lowrank.csv --raw
python3 -m fdridge.cli sweep      --config scripts/configs/sweep_midrank.cfg    --out results/sweep-midrank.csv --raw
python3 -m fdridge.cli iterate    --config scripts/configs/iterate_rff.cfg      --out results/iterate-rff.csv --t 10
python3 -m fdridge.cli sketch-acc --config scripts/configs/sketch_accuracy.cfg  --out results/sketch-accuracy.csv
