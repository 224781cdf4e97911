#!/usr/bin/env bash
# Majority nemesis ratchet (ROADMAP 1(c)): runs `nemesis 1200 0 3000
# majority` and compares its dirty runs, each as `column seed signature`,
# with scripts/nemesis_known_dirty.txt. A signature is the run's violation
# classes, sorted and joined with `+` (`StaleRead`, `epoch-safety`, ...).
#
# Fails on a dirty run the list does not hold; on a listed run that came
# back clean or with another signature (delete or re-derive its row, so the
# list only shrinks); and when the sweep crashes or a column prints no
# summary.
# Usage: scripts/nemesis_ratchet.sh   (run from anywhere inside the repo)
set -euo pipefail
cd "$(dirname "$0")/.."
export LC_ALL=C

known_file=scripts/nemesis_known_dirty.txt
columns=(majority)
out=$(mktemp)
err=$(mktemp)
trap 'rm -f "$out" "$err"' EXIT

fail() {
  echo "ratchet: $*"
  exit 1
}

status=0
cargo run --release --quiet -p coterie-harness --bin nemesis -- 1200 0 3000 majority \
  >"$out" 2>"$err" || status=$?
cat "$out"
# The bin exits 0 when every schedule is clean and 1 when it found
# violations; anything else is a crash.
if ((status > 1)); then
  cat "$err"
  fail "nemesis exited with status $status"
fi

# One `column seed class` line per violation, then one row per dirty run.
observed=$(awk '
  /^== .* seed [0-9]+ ==$/ { column = $2; seed = $4; next }
  column != "" && /^  seed / {
    if (match($0, /1SR: [A-Za-z]+/)) {
      class = substr($0, RSTART + 5, RLENGTH - 5)
    } else if (match($0, /: [a-z ]+: /)) {
      class = substr($0, RSTART + 2, RLENGTH - 4)
      gsub(/ /, "-", class)
    } else {
      class = "unclassified"
    }
    print column, seed, class
  }' "$err" | sort -u | awk '
  { run = $1 " " $2 }
  run != prev { if (prev != "") print prev, sig; prev = run; sig = $3; next }
  { sig = sig "+" $3 }
  END { if (prev != "") print prev, sig }' | sort)

for column in "${columns[@]}"; do
  summary=$(grep "^$column (5 nodes, 1200 seeds): .* dirty runs$" "$out") ||
    fail "no summary line for column $column"
  reported=$(sed 's/.* \([0-9]*\) dirty runs$/\1/' <<<"$summary")
  parsed=$(grep -c "^$column " <<<"$observed" || true)
  ((reported == parsed)) ||
    fail "$column reports $reported dirty runs but $parsed were parsed"
done

known=$(grep -v -e '^#' -e '^[[:space:]]*$' "$known_file" | tr -s ' \t' ' ' | sort)
unlisted=$(comm -13 <(echo "$known") <(echo "$observed") | grep . || true)
recovered=$(comm -23 <(echo "$known") <(echo "$observed") | grep . || true)
if [[ -n $unlisted ]]; then
  cat "$err"
  echo "ratchet: dirty runs not in $known_file:"
  echo "$unlisted"
fi
if [[ -n $recovered ]]; then
  echo "ratchet: listed runs that came back clean or with another signature;"
  echo "delete these rows from $known_file (the list only shrinks):"
  echo "$recovered"
fi
[[ -z $unlisted && -z $recovered ]] || exit 1
echo "ratchet: $(grep -c . <<<"$observed" || true) dirty runs, every one listed"
