#!/usr/bin/env bash
# End-to-end smoke of the public surface: boot dkserved with a data
# dir, run the same dkctl pipeline locally and remotely, and assert
# the results — JSON and generated edge-list files — are byte-identical
# and deterministic across runs and worker counts.
#
# Usage: scripts/e2e.sh [workdir]   (defaults to a fresh temp dir)
set -euo pipefail

cd "$(dirname "$0")/.."
WORK="${1:-$(mktemp -d)}"
PORT="${E2E_PORT:-18080}"
BASE="http://127.0.0.1:${PORT}"

echo "e2e: workdir ${WORK}"
mkdir -p "${WORK}"
go build -o "${WORK}/dkctl" ./cmd/dkctl
go build -o "${WORK}/dkserved" ./cmd/dkserved

"${WORK}/dkserved" -addr "127.0.0.1:${PORT}" -data-dir "${WORK}/data" >"${WORK}/dkserved.log" 2>&1 &
SERVED_PID=$!
trap 'kill ${SERVED_PID} 2>/dev/null || true' EXIT

# Wait for readiness (the satellite endpoint, not just TCP).
for i in $(seq 1 50); do
  if curl -fsS "${BASE}/v1/readyz" >/dev/null 2>&1; then break; fi
  if [ "$i" = 50 ]; then echo "e2e: dkserved never became ready"; cat "${WORK}/dkserved.log"; exit 1; fi
  sleep 0.2
done
echo "e2e: dkserved ready on ${BASE}"

cd "${WORK}"
./dkctl pipeline example > p.json

# Local run (in-process, pkg/dk), two worker counts.
./dkctl -workers 1 pipeline run -out local p.json > local.json
./dkctl -workers 4 pipeline run -out local-w4 p.json > local-w4.json
diff -u local.json local-w4.json
diff -r local local-w4
echo "e2e: local runs worker-invariant"

# Remote run (HTTP, pkg/dkclient), twice.
./dkctl -server "${BASE}" pipeline run -out remote p.json > remote.json
./dkctl -server "${BASE}" pipeline run -out remote2 p.json > remote2.json
diff -u remote.json remote2.json
diff -r remote remote2
echo "e2e: remote runs deterministic"

# The acceptance gate: local and remote are byte-identical — JSON
# results and every generated edge-list file.
diff -u local.json remote.json
diff -r local remote
echo "e2e: local and remote byte-identical"

# Standalone commands agree across modes too — including a dataset
# reference with its own synthesis seed (regression: the seed must not
# be lost on the wire).
./dkctl extract -d 2 -metrics dataset:hot:7 > extract-local.json
./dkctl -server "${BASE}" extract -d 2 -metrics dataset:hot:7 > extract-remote.json
# 'cached' reports server cache state and may legitimately differ.
sed 's/"cached": [a-z]*/"cached": X/' extract-local.json > a.json
sed 's/"cached": [a-z]*/"cached": X/' extract-remote.json > b.json
diff -u a.json b.json
echo "e2e: extract agrees across modes"

# Standalone compare too, with a dataset reference on one side and a
# generated edge-list file (uploaded, or sent by hash when the server
# already knows it) on the other.
./dkctl compare -d 3 -spectral dataset:hot:7 local/gen.0.txt > compare-local.json
./dkctl -server "${BASE}" compare -d 3 -spectral dataset:hot:7 local/gen.0.txt > compare-remote.json
diff -u compare-local.json compare-remote.json
echo "e2e: compare agrees across modes"

# Scenario subsystem: an extract → generate → netsim pipeline over the
# measured graph plus an 8-replica dK-random ensemble must produce
# measured-vs-ensemble curves for all three scenario kinds that are
# byte-identical across worker counts and across local/remote execution.
cat > netsim.json <<'EOF'
{"steps":[
  {"id":"ext","op":"extract","source":{"dataset":"hot","seed":7},"d":2},
  {"id":"gen","op":"generate","source":{"step":"ext"},"d":2,"replicas":8,"seed":42},
  {"id":"sim","op":"netsim","source":{"step":"ext"},
   "ensemble":[{"step":"gen","replica":0},{"step":"gen","replica":1},
               {"step":"gen","replica":2},{"step":"gen","replica":3},
               {"step":"gen","replica":4},{"step":"gen","replica":5},
               {"step":"gen","replica":6},{"step":"gen","replica":7}],
   "scenarios":[{"kind":"robustness","fracs":[0,0.25,0.5,0.75],"targeted":true,"trials":2},
                {"kind":"epidemic","beta":0.5,"rounds":12,"trials":2},
                {"kind":"routing","pairs":12,"ttl":64,"trials":2}],
   "seed":9}
]}
EOF
./dkctl -workers 1 pipeline run netsim.json > netsim-w1.json
./dkctl -workers 4 pipeline run netsim.json > netsim-w4.json
diff -u netsim-w1.json netsim-w4.json
./dkctl -server "${BASE}" pipeline run netsim.json > netsim-remote.json
diff -u netsim-w1.json netsim-remote.json
grep -q '"divergence"' netsim-w1.json
for kind in robustness epidemic routing; do
  grep -q "\"kind\": \"${kind}\"" netsim-w1.json || { echo "e2e: netsim result missing ${kind} curves"; exit 1; }
done
echo "e2e: netsim curves worker-invariant and identical across modes"

# The netsim subcommand (default scenario set) agrees across modes too.
./dkctl netsim -trials 2 -seed 5 dataset:hot:7 > sim-local.json
./dkctl -server "${BASE}" netsim -trials 2 -seed 5 dataset:hot:7 > sim-remote.json
diff -u sim-local.json sim-remote.json
echo "e2e: dkctl netsim agrees across modes"

# Execution tracing: submit a traced pipeline job directly, fetch its
# trace, and assert the span tree is well-formed end to end — dkctl
# trace validates (one root, no orphan spans) and renders the timeline,
# which must reach from the request span down to the rewiring
# convergence events of the generate replicas.
JOB=$(curl -fsS -H 'Content-Type: application/json' -d @p.json "${BASE}/v1/pipelines" \
  | sed 's/.*"job_id":"\([^"]*\)".*/\1/')
for i in $(seq 1 100); do
  STATUS=$(curl -fsS "${BASE}/v1/jobs/${JOB}" | sed 's/.*"status":"\([^"]*\)".*/\1/')
  if [ "${STATUS}" = "done" ]; then break; fi
  if [ "${STATUS}" = "failed" ] || [ "$i" = 100 ]; then echo "e2e: traced job ${JOB} status ${STATUS}"; exit 1; fi
  sleep 0.2
done
curl -fsS "${BASE}/v1/jobs/${JOB}/trace" > trace.jsonl
head -1 trace.jsonl | grep -q '"kind":"trace"'
./dkctl -server "${BASE}" trace "${JOB}" > trace.txt
for span in request job queued step resolve construct intern replica; do
  grep -q "${span}" trace.txt || { echo "e2e: trace timeline missing span '${span}'"; cat trace.txt; exit 1; }
done
grep -q "convergence" trace.txt
grep -cq "sweep" trace.txt
echo "e2e: traced pipeline job yields a complete span tree"

# Health, stats, and graceful shutdown.
./dkctl -server "${BASE}" health | grep -q '"ready": true'
./dkctl -server "${BASE}" stats | grep -q '"POST /v1/pipelines"'
./dkctl -server "${BASE}" stats > stats.json
grep -q '"scenarios"' stats.json
grep -q '"robustness"' stats.json
curl -fsS "${BASE}/metrics" > metrics.txt
grep -q 'dk_http_request_seconds_bucket' metrics.txt
grep -q 'dk_pipeline_phase_seconds_count' metrics.txt
grep -q 'dk_scenario_runs_total{kind="epidemic"}' metrics.txt
grep -q 'dk_scenario_seconds_bucket' metrics.txt
kill -TERM "${SERVED_PID}"
wait "${SERVED_PID}"
grep -q "draining" "${WORK}/dkserved.log"
grep -q "bye" "${WORK}/dkserved.log"
trap - EXIT
echo "e2e: graceful drain verified"
echo "e2e: PASS"
