#!/usr/bin/env bash
# Byte oracle: proves a change leaves the default path's bytes alone.
#
#   tools/byte_oracle.sh PARENT_BUILD CHANGE_BUILD
#
# PARENT_BUILD and CHANGE_BUILD are CMake build directories of the two
# trees (the parent commit's and the change's). For each build the script
# runs bench_fig5_autotune_no_hist (stdout + fig5_autotune_no_hist.csv)
# and one `ceal_tune` session per algorithm (CEAL AL RS GEIST ALpH BO
# BO-CEAL) at the fig5 arguments (LV, exec, budget 50, 2000-config pool,
# seed 42) under both GBT backends (the default exact trainer, and
# `--gbt-backend quantized --compiled-predictor`), keeping each session's
# stdout, `--save-result` CSV and `--trace`. Stdout and CSVs must be
# byte-identical; traces are compared with `ceal_trace
# --check-determinism` (equal once `timing` is stripped).
#
# One line per artifact: `same`, or `DIFF`. Exits 1 on any difference.
# Needs two builds, so it is not part of tools/run_tier1.sh. Takes about
# three minutes on 4 cores.
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 PARENT_BUILD CHANGE_BUILD" >&2
  exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
out=$(mktemp -d "${TMPDIR:-/tmp}/byte_oracle.XXXXXX")
trap 'rm -rf "$out"' EXIT

algorithms=(CEAL AL RS GEIST ALpH BO BO-CEAL)
declare -A backends=([exact]="" [quantized]="--gbt-backend quantized --compiled-predictor")

run_build() {  # run_build BUILD_DIR OUT_DIR
  local build=$1 dir=$2
  mkdir -p "$dir"
  (cd "$dir" && "$build/bench/bench_fig5_autotune_no_hist" > fig5.stdout)
  for backend in "${!backends[@]}"; do
    for algo in "${algorithms[@]}"; do
      local stem="$dir/$algo.$backend"
      # shellcheck disable=SC2086  # the backend flags split on purpose
      "$build/tools/ceal_tune" --workflow LV --objective exec --budget 50 \
        --pool-size 2000 --component-samples 500 --seed 42 \
        --algorithm "$algo" ${backends[$backend]} \
        --save-result "$stem.csv" --trace "$stem.trace.jsonl" \
        > "$stem.stdout"
    done
  done
}

run_build "$parent" "$out/parent" &
parent_job=$!
run_build "$change" "$out/change"
wait "$parent_job"

failed=0
report() {  # report NAME same|DIFF
  printf '%-32s %s\n' "$1" "$2"
  [[ "$2" == DIFF ]] && failed=1
  return 0
}
same_bytes() {
  if cmp -s "$out/parent/$1" "$out/change/$1"; then
    report "$1" same
  else
    report "$1" DIFF
  fi
}
same_trace() {
  if "$change/tools/ceal_trace" --input "$out/parent/$1" \
      --check-determinism "$out/change/$1" > /dev/null 2>&1; then
    report "$1" same
  else
    report "$1" DIFF
  fi
}

same_bytes fig5.stdout
same_bytes fig5_autotune_no_hist.csv
for backend in exact quantized; do
  for algo in "${algorithms[@]}"; do
    same_bytes "$algo.$backend.stdout"
    same_bytes "$algo.$backend.csv"
    same_trace "$algo.$backend.trace.jsonl"
  done
done
if [[ $failed -ne 0 ]]; then
  echo "byte oracle: FAILED"
  exit 1
fi
echo "byte oracle: OK"
