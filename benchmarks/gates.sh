#!/usr/bin/env bash
# Run one CI gate: bash benchmarks/gates.sh <gate>
#
# Each gate runs its CLI checks, writing under gate-out/<gate>/, then
# its bench, which fails unless its fresh benchmarks/out/BENCH_*.json
# equals the committed benchmarks/results/ baseline series for series.
set -euo pipefail

gate=${1:?usage: bash benchmarks/gates.sh <gate>}
cd "$(dirname "$0")/.."
export PYTHONPATH=src
out=gate-out/$gate
rm -rf "$out"
mkdir -p "$out"

bench() { python -m pytest "benchmarks/$1" -x -q; }

case $gate in
analytics)
  python -m repro.cli fuzz --size tiny --oracle --hours 0.5 \
    --seed-corpus 10 --observe-dir "$out/traced-campaign"
  python -m repro.cli observe check "$out/traced-campaign/metrics.json" \
    --require fuzz.executions --require serve.completed --slo default
  python -m repro.cli observe report "$out/traced-campaign" \
    --slo default --title "CI bench-gate campaign" \
    --out "$out/health-report/report.txt"
  cp "$out/traced-campaign/alerts.json" "$out/health-report/"
  bench test_bench_pr4_analytics.py
  ;;
analyze)
  python -m repro.cli analyze kernel \
    --releases 6.8,6.9,6.10 --size tiny --strict \
    --out "$out/analyze-findings/kernel-findings.json"
  python -m repro.cli analyze corpus --size tiny --seed-corpus 100 \
    --out "$out/analyze-findings/corpus-findings.json"
  python -m repro.cli analyze oracle \
    --size tiny --corpus-size 30 --mutations 40 --epochs 1 \
    --compare-pmm --out "$out/analyze-findings/oracle-metrics.json"
  bench test_bench_pr5_analyze.py
  ;;
fleet)
  bench test_bench_cluster_scaling.py
  ;;
service)
  state=$out/service-state
  python -m repro.cli submit \
    --state-dir "$state" --fleet-size 4 --time-slice 300 \
    --tenant alice --size tiny --hours 0.3 --seed 3 --seed-corpus 10
  python -m repro.cli submit --state-dir "$state" --tenant bob \
    --size tiny --hours 0.3 --seed 9 --seed-corpus 10 \
    --priority 5 --budget-hours 1.0 --max-concurrent 1
  # A supervised, sharded cluster job whose worker 1 dies at 950 s,
  # after the kill point below, so the restart happens in the resumed
  # runs.
  echo '{"seed": 3, "windows": [["worker_kill:1", 950.0, 950.0]]}' \
    > "$out/worker-kill.json"
  python -m repro.cli submit --state-dir "$state" --tenant carol \
    --size tiny --hours 0.3 --seed 5 --seed-corpus 10 \
    --workers 2 --shards 2 --heartbeat-deadline 60 \
    --faults "$out/worker-kill.json"
  # Kill the service mid-run (80% of the horizon), then resume twice
  # from the same checkpoint bytes.  Two independent restores of one
  # state replay every admitted campaign bit-identically, so the full
  # status JSON must diff clean.
  python -m repro.cli serve --state-dir "$state" --until 864
  cp -r "$state" "$state-b"
  python -m repro.cli serve --state-dir "$state"
  python -m repro.cli serve --state-dir "$state-b"
  python -m repro.cli status --state-dir "$state" --json \
    > "$out/resume-a.json"
  python -m repro.cli status --state-dir "$state-b" --json \
    > "$out/resume-b.json"
  diff "$out/resume-a.json" "$out/resume-b.json"
  python -m repro.cli status --state-dir "$state" --tenant bob --json \
    | python -c "
import json, sys
body = json.load(sys.stdin)['body']
assert body['completed'] == 1, body
assert body['charged_hours'] == 0.3, body
assert abs(body['budget_remaining'] - 0.7) < 1e-9, body
assert body['quota']['priority'] == 5, body
print('quota accounting ok:', body['tenant'], body)
"
  python -c "
from repro.service import Request, load_service
response = load_service('$state').handle(
    Request('GET', '/campaigns/job-3/result'))
assert response.ok, response.body
assert response.body['result']['restarts'] >= 1, response.body
print('supervised restart ok:', response.body['result']['restarts'])
"
  python -m repro.cli serve --state-dir "$state" \
    --report-out "$out/service-health/report.txt"
  python -m repro.cli status --state-dir "$state" --json \
    > "$out/service-health/status.json"
  bench test_bench_pr7_service.py
  ;;
specgen)
  python -m repro.cli specgen infer \
    --releases 6.8,6.9,6.10 --size tiny --strict --lint \
    --out "$out/specgen-artifacts"
  python -m repro.cli specgen diff \
    --releases 6.8,6.9,6.10 --size tiny --strict \
    --out "$out/specgen-artifacts/fidelity.json"
  python -m repro.cli specgen campaign \
    --releases 6.8 --size tiny --hours 0.3 --seed-corpus 10 \
    --min-ratio 0.7 --strict --out "$out/specgen-artifacts/campaign.json"
  bench test_bench_pr8_specgen.py
  ;;
explain)
  python -m repro.cli fuzz --kernel 6.8 --size tiny --oracle --hours 0.5 \
    --observe-dir "$out/explain-artifacts"
  python -m repro.cli observe explain bugs --dir "$out/explain-artifacts" \
    --table "$out/explain-artifacts/attribution.json"
  python -m repro.cli observe render \
    "$out/explain-artifacts/spans.jsonl" --lineage
  bench test_bench_pr9_provenance.py
  ;;
impact)
  python -m repro.cli analyze impact 6.8 6.9 --size tiny --strict \
    --manifest "$out/impact-artifacts/targets_6_8_6_9.json" \
    --out "$out/impact-artifacts/findings_6_8_6_9.json"
  python -m repro.cli analyze impact 6.9 6.10 --size tiny --strict \
    --manifest "$out/impact-artifacts/targets_6_9_6_10.json" \
    --out "$out/impact-artifacts/findings_6_9_6_10.json"
  python -m repro.cli fuzz \
    --directed patch:6.8..6.9 --oracle --size tiny \
    --hours 1.0 --seed-corpus 50 | tee "$out/impact-artifacts/directed.txt"
  grep -q "directed: all" "$out/impact-artifacts/directed.txt"
  bench test_bench_pr10_impact.py
  ;;
chaos)
  # Exits 1 if any invariant fails: corpus-entry loss, non-monotone
  # fleet coverage, degradation beyond the bound, or a kill+resume of
  # the supervised cluster that is not bit-identical.
  python -m repro.cli cluster chaos \
    --size tiny --oracle --hours 1.0 --seed-corpus 10 \
    --workers 4 --shards 2 --heartbeat-deadline 600 \
    --observe-dir "$out/chaos-campaign"
  python -m repro.cli observe check "$out/chaos-campaign/metrics.json" \
    --require chaos.lost_edges --require chaos.resume_identical \
    --slo supervision --strict
  python -m repro.cli observe report "$out/chaos-campaign" \
    --slo supervision --title "CI chaos-gate campaign" \
    --out "$out/chaos-health/report.txt"
  cp "$out/chaos-campaign/alerts.json" "$out/chaos-health/"
  ;;
*) echo "unknown gate: $gate" >&2; exit 2 ;;
esac
