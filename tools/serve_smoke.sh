#!/usr/bin/env bash
# Live-endpoint smoke: starts a gdlog_shell run with --serve-obs on an
# ephemeral port, scrapes the endpoints WHILE the run is in flight,
# follows the SSE progress stream to termination, re-scrapes during the
# post-run linger window, and validates every Prometheus exposition with
# tools/check_prometheus.py. Bodies land in the artifact directory for
# upload. Used by the CI obs-smoke step; runs locally too:
#
#   tools/serve_smoke.sh <build-dir> <artifact-dir>
set -euo pipefail

BUILD_DIR=${1:-build}
OUT_DIR=${2:-obs-artifacts/serve}
SHELL_BIN="$BUILD_DIR/tools/gdlog_shell"
CHECK="$(dirname "$0")/check_prometheus.py"
mkdir -p "$OUT_DIR"

# Eight runaway chains bounded by --deadline-ms: guarantees a run long
# enough that the mid-run scrapes land while run_state is "running" on
# any machine, and exercises serving across a guardrail bounded stop.
PROG=$(mktemp "${TMPDIR:-/tmp}/serve_smoke.XXXXXX.dl")
trap 'rm -f "$PROG"' EXIT
cat > "$PROG" <<'EOF'
c(0, 0). c(1, 0). c(2, 0). c(3, 0).
c(4, 0). c(5, 0). c(6, 0). c(7, 0).
c(K, M) <- c(K, N), M = N + 1, N < 2000000000.
EOF

"$SHELL_BIN" "$PROG" --deadline-ms 4000 \
  --serve-obs 0 --serve-linger-ms 8000 --progress \
  > "$OUT_DIR/run_stdout.txt" 2> "$OUT_DIR/run_stderr.txt" &
RUN_PID=$!

# The endpoint is announced on stderr before the run starts.
PORT=""
for _ in $(seq 1 100); do
  PORT=$(sed -n 's/.*obs endpoint: http:\/\/127\.0\.0\.1:\([0-9]*\).*/\1/p' \
           "$OUT_DIR/run_stderr.txt" | head -1)
  [ -n "$PORT" ] && break
  sleep 0.05
done
if [ -z "$PORT" ]; then
  echo "serve_smoke: no obs endpoint announced" >&2
  cat "$OUT_DIR/run_stderr.txt" >&2
  kill "$RUN_PID" 2> /dev/null || true
  exit 1
fi
BASE="http://127.0.0.1:$PORT"
echo "serve_smoke: endpoint $BASE (run pid $RUN_PID)"

# --- Mid-run scrapes -------------------------------------------------------
sleep 0.5  # well inside the 4s run
curl -sSf "$BASE/healthz" > "$OUT_DIR/healthz.txt"
grep -q '^ok$' "$OUT_DIR/healthz.txt"

curl -sSf "$BASE/statusz" > "$OUT_DIR/statusz_live.json"
python3 - "$OUT_DIR/statusz_live.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["run_state"] == "running", doc["run_state"]
assert "version" in doc["build"]
EOF

# The live scrape must be a valid exposition with the run-state gauges,
# the server's own request counter (the healthz above already landed),
# and real histogram series — mid-run.
curl -sSf -D "$OUT_DIR/metrics_headers.txt" "$BASE/metrics" \
  > "$OUT_DIR/metrics_live.prom"
grep -qi 'Content-Type: text/plain; version=0.0.4' \
  "$OUT_DIR/metrics_headers.txt"
python3 "$CHECK" "$OUT_DIR/metrics_live.prom" \
  --require gdlog_build_info \
  --require gdlog_engine_uptime_seconds \
  --require gdlog_engine_run_state \
  --require gdlog_http_requests_total \
  --min-histograms 2
grep -q 'gdlog_engine_run_state{state="running"} 1' \
  "$OUT_DIR/metrics_live.prom"

# Mid-run the bounded ring has lapped far past run-start; recent round
# events, stamped with the run's counters, prove the recorder is live.
curl -sSf "$BASE/blackbox" > "$OUT_DIR/blackbox_live.txt"
grep -q 'flight recorder:' "$OUT_DIR/blackbox_live.txt"
grep -Eq 'ms round +a0=[0-9]+ a1=[0-9]+ round=[1-9][0-9]* tuples=[1-9][0-9]* gamma=[0-9]+ stages=[0-9]+ mem=[1-9][0-9]*$' \
  "$OUT_DIR/blackbox_live.txt"

# /runs is empty mid-run (reports are pushed only after a run ends).
test "$(curl -s -o /dev/null -w '%{http_code}' "$BASE/runs/last")" = 404

# --- SSE stream to termination --------------------------------------------
# Blocks until the run's termination event closes the stream; the 30s
# cap is a hang backstop only.
curl -sSf -m 30 -N "$BASE/progress" > "$OUT_DIR/progress.sse"
# run-start is not asserted: the ring has lapped it long before a
# mid-run subscriber connects (it replays only the retained window).
grep -q '^event: progress$' "$OUT_DIR/progress.sse"
grep -q '"kind":"round"' "$OUT_DIR/progress.sse"
grep -q '"kind":"termination"' "$OUT_DIR/progress.sse"
python3 - "$OUT_DIR/progress.sse" <<'EOF'
import json, sys
events = 0
last_seq = 0
for line in open(sys.argv[1]):
    if line.startswith("data: "):
        seq = json.loads(line[6:])["seq"]
        assert seq > last_seq, f"SSE seq {seq} after {last_seq}"
        last_seq = seq
        events += 1
assert events >= 3, f"only {events} SSE events"
print(f"serve_smoke: {events} SSE progress events, valid JSON, seq increasing")
EOF

# --- Post-run scrapes (linger window) --------------------------------------
curl -sSf "$BASE/runs/last" > "$OUT_DIR/runs_last.json"
python3 - "$OUT_DIR/runs_last.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["termination"]["reason"] == "deadline", doc["termination"]
EOF
curl -sSf "$BASE/runs" > "$OUT_DIR/runs.json"

curl -sSf "$BASE/metrics" > "$OUT_DIR/metrics_final.prom"
python3 "$CHECK" "$OUT_DIR/metrics_final.prom" --min-histograms 2
grep -q 'gdlog_engine_run_state{state="stopped"} 1' \
  "$OUT_DIR/metrics_final.prom"

curl -sSf "$BASE/statusz" > "$OUT_DIR/statusz_final.json"

# The --progress stderr ticker printed live round lines.
grep -q 'round' "$OUT_DIR/run_stderr.txt"

# The runaway run ends in a bounded stop: exit code 3 by contract.
RC=0
wait "$RUN_PID" || RC=$?
if [ "$RC" -ne 3 ]; then
  echo "serve_smoke: expected bounded-stop exit 3, got $RC" >&2
  exit 1
fi
echo "serve_smoke: OK"
