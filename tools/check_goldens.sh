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
# and six fixtures at seeds 0 and 2 and diffs the model plus its
# choice-audit trail against tests/goldens/<name>.seed<K>.choices. The
# fixtures are tests/fixtures/stage_flat_cycle.dl (a stage clique with a
# flat cycle beside a relation only its next rule reads), match_bulk.dl
# (a 300-arc matching whose candidates all reach Q before the first
# retrieval, so the queue pops them from one sorted run),
# choice_sides.dl (one choice goal per side shape), fact_text.dl (a
# sort with tied costs over fact text in every form the raw fact scan
# reads, so its audit pins the order the facts load in),
# choice_rejects.dl (choice rules without next whose pops are rejected
# by the extremum filter and by a head term that fails) and
# next_fd_rejects.dl (a next rule whose choice(W, I) rejects a pop: W
# does not fix the queue's class, so L alone would let it fire). This
# pins which stable model each seed picks: any drift in candidate order,
# tie-breaking, or audit counts shows up here even when the model set is
# unchanged.
#
# Each of those runs is repeated with --linear-least and with
# --provenance and diffed against the same golden. The linear ablation
# finds each retrieval by a scan, sharing neither the heap nor the run,
# so it is an oracle for pop order; provenance must not change what is
# chosen. (--no-merge changes the audit's counts, so it is not checked.)
#
# The seed-0 run is repeated with a durable database (--db-dir, a fresh
# temporary directory per program) and diffed against the same golden:
# the inline facts then travel through the WAL, and the model, the
# audit and its rule numbers must not notice. It is run again on the
# same directory, which recovers the EDB into the catalog: the reload
# must log nothing, so the directory's bytes must not change. The pair
# is repeated on a fresh directory with --checkpoint-every 3, so that
# the facts land in snapshots and the reopen recovers from one plus a
# WAL tail.
#
# Last, for every program and fixture that runs, the "analysis" object
# of `--json-report` is diffed against the one `--lint-json` prints,
# both as sorted-key JSON (python3). The run report computes the
# analysis after the run, seeded from the EDB as it stood when the run
# started; lint computes it before any run. They must agree: a rule's
# derived rows leaking into the EDB seeds shows up here, on programs
# that have no .explain golden too.
#
# And for every program and fixture that the plain run refuses at load
# with "AnalysisError: [GDnnn] ...", that refusal must be one of the
# diagnostics `--lint-json` prints, rendered as DiagnosticToStatus
# renders it: "[code] message", " at line L, column C" when located,
# then "; note" for each note. Load and lint share one structural
# verdict, so a refusal lint does not print is drift.
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

# EXPLAIN ANALYZE goldens: shipped programs, plus the four fixtures
# whose rule shapes no shipped program has (a nested negated conjunction,
# a 65-literal body, one rule per kind of compiled scan column, and goals
# that run only in the order readiness finds). The other fixtures
# exercise diagnostics; their plans are incidental.
for f in programs/*.dl tests/fixtures/nested_not.dl \
         tests/fixtures/wide_rule.dl tests/fixtures/column_ops.dl \
         tests/fixtures/bind_order.dl; do
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
CHOICE_PROGRAMS="programs/*.dl tests/fixtures/stage_flat_cycle.dl
  tests/fixtures/match_bulk.dl tests/fixtures/choice_sides.dl
  tests/fixtures/fact_text.dl tests/fixtures/choice_rejects.dl
  tests/fixtures/next_fd_rejects.dl"
for f in $CHOICE_PROGRAMS; do
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

# The same chosen models by the linear ablation and with provenance, and
# with a durable database. Checked only; the default in-memory run above
# is what --update blesses.
if [ "$MODE" != "--update" ]; then
  for f in $CHOICE_PROGRAMS; do
    name=$(basename "$f" .dl)
    for seed in 0 2; do
      golden="tests/goldens/$name.seed$seed.choices"
      for flag in --linear-least --provenance; do
        out=$("$SHELL_BIN" "$f" --choices --seed "$seed" "$flag" \
          2>/dev/null) || true
        if ! printf '%s\n' "$out" | diff -u "$golden" -; then
          echo "GOLDEN DRIFT: $f --seed $seed $flag vs $golden"
          fail=1
        fi
      done
    done
  done
  for f in $CHOICE_PROGRAMS; do
    name=$(basename "$f" .dl)
    golden="tests/goldens/$name.seed0.choices"
    for every in 0 3; do
      db=$(mktemp -d)
      for run in fresh reopen; do
        before=$(cat "$db"/* 2>/dev/null | cksum)
        out=$("$SHELL_BIN" "$f" --choices --seed 0 --db-dir "$db" \
          --checkpoint-every "$every" 2>/dev/null) || true
        if ! printf '%s\n' "$out" | diff -u "$golden" -; then
          echo "GOLDEN DRIFT: $f --seed 0 --db-dir ($run," \
            "--checkpoint-every $every) vs $golden"
          fail=1
        fi
        if [ "$run" = reopen ] && [ "$(cat "$db"/* | cksum)" != "$before" ]; then
          echo "DURABLE DRIFT: reloading $f into its database logged" \
            "(--checkpoint-every $every)"
          fail=1
        fi
      done
      rm -rf "$db"
    done
  done
fi

# The analysis a run reports equals the one lint reports.
analysis_of() {
  python3 -c 'import json, sys
print(json.dumps(json.load(sys.stdin)["analysis"], indent=1, sort_keys=True))'
}
if [ "$MODE" != "--update" ]; then
  for f in programs/*.dl tests/fixtures/*.dl; do
    # The report is the last line; a program that does not run has none.
    report=$("$SHELL_BIN" "$f" --json-report 2>/dev/null) || continue
    lint=$("$SHELL_BIN" "$f" --lint-json 2>/dev/null) || true
    want=$(printf '%s\n' "$lint" | analysis_of) || want=
    got=$(printf '%s\n' "$report" | tail -n 1 | analysis_of) || got=
    if [ -z "$want" ] || [ "$want" != "$got" ]; then
      diff -u <(printf '%s\n' "$want") <(printf '%s\n' "$got")
      echo "ANALYSIS DRIFT: $f --json-report vs --lint-json"
      fail=1
    fi
  done
fi

# A load refusal is a diagnostic lint prints.
lint_as_statuses() {
  python3 -c 'import json, sys
for d in json.load(sys.stdin)["diagnostics"]:
    s = "AnalysisError: [%s] %s" % (d["code"], d["message"])
    if "line" in d:
        s += " at line %d, column %d" % (d["line"], d["column"])
    print(s + "".join("; " + n for n in d.get("notes", [])))'
}
if [ "$MODE" != "--update" ]; then
  for f in programs/*.dl tests/fixtures/*.dl; do
    line=$("$SHELL_BIN" "$f" 2>&1 >/dev/null |
      grep -F "$f: AnalysisError: [GD" | head -n 1)
    [ -n "$line" ] || continue
    refusal=${line#"$f: "}
    if ! "$SHELL_BIN" "$f" --lint-json 2>/dev/null | lint_as_statuses |
        grep -qxF -- "$refusal"; then
      echo "LOAD DRIFT: $f is refused with \"$refusal\"," \
        "which --lint-json does not print"
      fail=1
    fi
  done
fi
exit $fail
