#!/bin/sh
# Runs the README's CLI walkthrough through the installed `dvafit` console
# script and fails unless every step exits with the code the README
# documents for it (and prints no traceback).  The tests call
# `dvafit.cli.main` directly; this covers the entry point itself.
#
# Usage, from the repository root after `pip install -e .`:
#     sh scripts/cli_walkthrough.sh
set -u
DATA="$(pwd)/data"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
cd "$WORK" || exit 1
status=0

run() {
    expected=$1
    shift
    dvafit "$@" >stdout.txt 2>stderr.txt
    code=$?
    if [ "$code" -ne "$expected" ] || grep -q Traceback stderr.txt; then
        echo "FAIL (exit $code, documented $expected): dvafit $*"
        cat stderr.txt
        status=1
    else
        echo "ok   (exit $code): dvafit $*"
    fi
}

run 0 check-rate "$DATA/rate_check_c20.csv" "$DATA/rate_check_c100.csv"
run 0 fit --config "$DATA/config.json" --out-dir out "$DATA/example_cell.csv"
run 0 features out/example_cell.report.json --areal-basis-cm2 1108.8
run 0 synth --out-dir synth_demo --n-cells 2 --seed 1 --noise-sigma-v 0.001
run 0 fit --config "$DATA/config.json" --out-dir out synth_demo/cell_000.csv synth_demo/cell_001.csv
run 0 batch --metrics q_sei,q_li,npr_practical --summary-out out/summary.csv \
    --correlation-out out/corr.csv --batch-id demo \
    out/example_cell.report.json out/cell_000.report.json out/cell_001.report.json
run 0 smooth "$DATA/example_cell.csv" --out out/smoothed.csv \
    --report out/example_cell.report.json --config "$DATA/config.json"
run 0 correct --report out/example_cell.report.json --x-window 0,1 --y-window 0.35,1 --anchor

# Documented failures: malformed flag values are configuration errors (5),
# unreadable inputs are input errors (2).
run 5 synth --out-dir bad --theta 1,2
run 5 correct --report out/example_cell.report.json --x-window 0 --y-window 0,1
run 2 features missing.report.json

exit $status
