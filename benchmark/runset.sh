#!/usr/bin/env bash
# One run-set: every workload on ten seeds, untraced, recorded to a
# JSON-lines file for `-compare`. Two run-sets of one commit are the
# repeatability check; one of the parent and one of a change are an A/B.
#
#   bash benchmark/runset.sh a.jsonl            # seeds 1..10
#   bash benchmark/runset.sh b.jsonl 11 20      # seeds 11..20
#   TRACE=1 bash benchmark/runset.sh t.jsonl 1 1 # one traced run per workload
#   bash benchmark/run.sh -compare a.jsonl b.jsonl
set -euo pipefail
out=${1:?usage: runset.sh OUT.jsonl [FIRST_SEED LAST_SEED]}
first=${2:-1}
last=${3:-10}
trace=${TRACE:-0}
for seed in $(seq "$first" "$last"); do
	for workload in scale_table paper_eval chaos_sweep udp_failover; do
		bash benchmark/run.sh --workload "$workload" --seed "$seed" --trace "$trace" --record "$out" >/dev/null
	done
done
