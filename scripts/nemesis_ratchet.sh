#!/usr/bin/env bash
# Nemesis ratchet (ROADMAP 1(c)): runs the full sweep, `nemesis` with no
# arguments (every column of bin/nemesis.rs's COLUMNS table over its own
# seeds), and compares its dirty runs, each as `column seed signature`,
# with scripts/nemesis_known_dirty.txt. The sweep names each dirty run in
# a header line, `== column seed N: signature ==`, where the signature is
# the run's violation kinds, sorted and joined with `+` (`StaleRead`,
# `epoch-safety`, ...).
#
# Fails on a dirty run the list does not hold; on a listed run that came
# back clean or with another signature (delete or re-derive its row, so the
# list only shrinks); and when the sweep crashes.
# Usage: scripts/nemesis_ratchet.sh   (run from anywhere inside the repo)
set -euo pipefail
cd "$(dirname "$0")/.."
export LC_ALL=C

known_file=scripts/nemesis_known_dirty.txt
out=$(mktemp)
err=$(mktemp)
trap 'rm -f "$out" "$err"' EXIT

fail() {
  echo "ratchet: $*"
  exit 1
}

status=0
cargo run --release --quiet -p coterie-harness --bin nemesis >"$out" 2>"$err" || status=$?
cat "$out"
# The bin exits 0 when every schedule is clean and 1 when it found
# violations; anything else is a crash.
if ((status > 1)); then
  cat "$err"
  fail "nemesis exited with status $status"
fi

# One `column seed signature` row per dirty run, from its header line.
observed=$(sed -n 's/^== \([a-z0-9-]*\) seed \([0-9]*\): \([A-Za-z+-]*\) ==$/\1 \2 \3/p' "$err" | sort)
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
