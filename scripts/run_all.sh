#!/usr/bin/env bash
# Full verification harness: builds, runs every test, then regenerates
# every paper table/figure. Writes test_output.txt / bench_output.txt at
# the repository root (gitignored run logs).
set -u
cd "$(dirname "$0")/.."

cmake -B build -G Ninja && cmake --build build || exit 1

ctest --test-dir build 2>&1 | tee test_output.txt

: > bench_output.txt
for b in build/bench/*; do
  if [ -f "$b" ] && [ -x "$b" ]; then
    echo "===== $(basename "$b") =====" | tee -a bench_output.txt
    "$b" 2>/dev/null | tee -a bench_output.txt
  fi
done
