#!/usr/bin/env bash
# Shrink-only size ratchet (ROADMAP item 6): lines of src/**/*.rs per crate
# against the ceilings checked in beside this script. Over a ceiling fails;
# under one prints the lower ceiling to commit, so the trend only goes down.
# The benchmark package (crates/bench/src/bin/benchmark/) is not counted: it
# is the instrument, frozen by BENCHMARK.json, not the program.
# Usage: scripts/loc_budget.sh   (run from anywhere inside the repo)
set -euo pipefail
cd "$(dirname "$0")/.."

status=0
while read -r crate ceiling; do
  [[ -z "$crate" || "$crate" == \#* ]] && continue
  lines=$(find "crates/$crate/src" -name '*.rs' \
    -not -path 'crates/bench/src/bin/benchmark/*' -print0 |
    xargs -0 cat | wc -l)
  if ((lines > ceiling)); then
    echo "loc_budget: $crate is $lines lines, over its ceiling of $ceiling"
    status=1
  elif ((lines < ceiling)); then
    echo "loc_budget: $crate is $lines lines, under its ceiling of $ceiling:" \
      "lower it in scripts/loc_budget.txt"
  fi
done <scripts/loc_budget.txt
((status == 0)) && echo "loc_budget: every crate within its ceiling"
exit "$status"
