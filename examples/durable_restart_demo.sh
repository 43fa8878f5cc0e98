#!/usr/bin/env bash
# Durable warm-restart demo: run the ingest service over a real data
# directory, kill -9 it mid-stream, and restart — the fsync'd segment
# log means every acknowledged epoch survives and the new process
# resumes the epoch axis exactly where the old one died. Exits non-zero
# unless the restart restores every acknowledged epoch.
#
# Usage: examples/durable_restart_demo.sh [path/to/ingest_service]
# (defaults to build/examples/ingest_service relative to the repo root)

set -u

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
binary="${1:-$repo_root/build/examples/ingest_service}"
if [ ! -x "$binary" ]; then
  echo "ingest_service binary not found at $binary — build first:" >&2
  echo "  cmake -B build -S . && cmake --build build -j" >&2
  exit 1
fi

data_dir="$(mktemp -d "${TMPDIR:-/tmp}/mergeable_demo_XXXXXX")"
trap 'rm -rf "$data_dir"' EXIT

echo "== 1. clean run: seal 4 epochs into $data_dir =="
"$binary" --data-dir "$data_dir" --epochs 4 2>/dev/null

echo
echo "== 2. start a long run and kill -9 it mid-stream =="
"$binary" --data-dir "$data_dir" --restore --epochs 1000 \
  >"$data_dir/victim.out" 2>/dev/null &
victim=$!
# Let it seal a few epochs, then kill it without any chance to clean up.
sleep 1
kill -9 "$victim" 2>/dev/null
wait "$victim" 2>/dev/null
sealed_before_kill="$(grep -c '^sealed epoch' "$data_dir/victim.out")"
echo "killed pid $victim after it acknowledged $sealed_before_kill seals:"
tail -3 "$data_dir/victim.out"

echo
echo "== 3. warm restart: recover, resume the axis, serve history =="
"$binary" --data-dir "$data_dir" --restore --epochs 2 2>/dev/null |
  tee "$data_dir/restart.out"

echo
echo "Every epoch acknowledged before the kill is in the restored count:"
echo "a 'sealed epoch N' line printed by step 2 reappears as history in"
echo "step 3 — the fsync-before-acknowledge discipline at work."

# The check holds whenever the kill lands: step 1's 4 epochs plus every
# seal step 2 acknowledged must come back (an epoch sealed but not yet
# acknowledged may come back too).
restored="$(sed -n 's/^restored \([0-9]*\) epochs.*/\1/p' "$data_dir/restart.out")"
expected=$((4 + sealed_before_kill))
if [ -z "$restored" ] || [ "$restored" -lt "$expected" ]; then
  echo "FAIL: restored ${restored:-no} epochs, expected at least $expected" \
    "(4 from step 1 + $sealed_before_kill acknowledged in step 2)" >&2
  exit 1
fi
echo "OK: restored $restored epochs >= 4 + $sealed_before_kill acknowledged"
