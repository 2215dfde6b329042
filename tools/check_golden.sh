#!/usr/bin/env bash
#===----------------------------------------------------------------------===//
#
# Part of AlgSpec. MIT license.
#
#===----------------------------------------------------------------------===//
#
# Runs one command and byte-diffs its standard output against a committed
# golden file. Fails when the command exits non-zero or when any byte of
# its output differs; standard error is passed through, not compared.
#
# Usage: check_golden.sh <golden-file> <command> [args...]
#
set -u

GOLDEN=${1:?usage: check_golden.sh <golden-file> <command> [args...]}
shift

OUT=$(mktemp)
trap 'rm -f "$OUT"' EXIT

"$@" > "$OUT"
status=$?
if [ "$status" -ne 0 ]; then
  echo "FAIL: command exited $status: $*"
  exit 1
fi
if ! diff -u "$GOLDEN" "$OUT"; then
  echo "FAIL: output differs from committed golden $GOLDEN"
  exit 1
fi
echo "$(basename "$GOLDEN"): byte-identical"
