#!/usr/bin/env bash
# Golden static-analysis, compiled-plan and chosen-model outputs.
#
# Runs `gdlog_shell --lint-json` over every shipped program and every
# lint fixture and diffs the output against the checked-in goldens in
# tests/goldens/. The JSON is deterministic by construction (integer-only
# analysis rendering, no timestamps or build identity), so any drift is a
# real behavior change — either a regression or an intentional analyzer
# improvement that must be re-blessed with --update.
#
# Additionally runs `gdlog_shell --explain-analyze` over the shipped
# programs and diffs the model plus the EXPLAIN ANALYZE table against
# tests/goldens/<name>.explain. For each rule the table lists every goal
# in plan order with its bound-column count, the planner's estimate,
# and the probes, rows and matches the run saw, so it pins the compiled
# plans' goal order and probe columns. Counts are deterministic for a
# fixed program; the table carries no timings.
#
# Finally runs `gdlog_shell --choices --seed K` over the shipped programs
# at seeds 0 and 2 and diffs the model plus its choice-audit trail
# against tests/goldens/<name>.seed<K>.choices. This pins which stable
# model each seed picks: any drift in candidate order, tie-breaking, or
# audit counts shows up here even when the model set is unchanged.
#
#   tools/check_goldens.sh BUILD_DIR            check; exit 1 on drift
#   tools/check_goldens.sh BUILD_DIR --update   refresh the goldens
set -u

cd "$(dirname "$0")/.."
BUILD_DIR=${1:?usage: check_goldens.sh BUILD_DIR [--update]}
MODE=${2:-check}
SHELL_BIN="$BUILD_DIR/tools/gdlog_shell"

if [ ! -x "$SHELL_BIN" ]; then
  echo "error: $SHELL_BIN not built" >&2
  exit 2
fi

mkdir -p tests/goldens
fail=0
for f in programs/*.dl tests/fixtures/*.dl; do
  name=$(basename "$f" .dl)
  golden="tests/goldens/$name.json"
  # --lint-json exits 1 when the program has error-severity diagnostics;
  # that is part of what the golden captures, not a script failure.
  out=$("$SHELL_BIN" "$f" --lint-json 2>/dev/null) || true
  if [ "$MODE" = "--update" ]; then
    printf '%s\n' "$out" > "$golden"
    echo "updated $golden"
  elif [ ! -f "$golden" ]; then
    echo "MISSING GOLDEN: $golden (run tools/check_goldens.sh $BUILD_DIR --update)"
    fail=1
  elif ! printf '%s\n' "$out" | diff -u "$golden" -; then
    echo "GOLDEN DRIFT: $f vs $golden"
    fail=1
  fi
done

# EXPLAIN ANALYZE goldens: shipped programs, plus the two fixtures whose
# rule shapes no shipped program has (a nested negated conjunction and
# a 65-literal body). The other fixtures exercise diagnostics; their
# plans are incidental.
for f in programs/*.dl tests/fixtures/nested_not.dl \
         tests/fixtures/wide_rule.dl; do
  name=$(basename "$f" .dl)
  golden="tests/goldens/$name.explain"
  out=$("$SHELL_BIN" "$f" --explain-analyze 2>/dev/null) || true
  if [ "$MODE" = "--update" ]; then
    printf '%s\n' "$out" > "$golden"
    echo "updated $golden"
  elif [ ! -f "$golden" ]; then
    echo "MISSING GOLDEN: $golden (run tools/check_goldens.sh $BUILD_DIR --update)"
    fail=1
  elif ! printf '%s\n' "$out" | diff -u "$golden" -; then
    echo "GOLDEN DRIFT: $f vs $golden"
    fail=1
  fi
done

# Chosen-model goldens: the model and choice audit per seed.
for f in programs/*.dl; do
  name=$(basename "$f" .dl)
  for seed in 0 2; do
    golden="tests/goldens/$name.seed$seed.choices"
    out=$("$SHELL_BIN" "$f" --choices --seed "$seed" 2>/dev/null) || true
    if [ "$MODE" = "--update" ]; then
      printf '%s\n' "$out" > "$golden"
      echo "updated $golden"
    elif [ ! -f "$golden" ]; then
      echo "MISSING GOLDEN: $golden (run tools/check_goldens.sh $BUILD_DIR --update)"
      fail=1
    elif ! printf '%s\n' "$out" | diff -u "$golden" -; then
      echo "GOLDEN DRIFT: $f --seed $seed vs $golden"
      fail=1
    fi
  done
done
exit $fail
