#!/usr/bin/env bash
# Runs all four workloads REPS times in sequence on one seed, each run as
# long as BENCHMARK.json's run_seconds, and prints one JSON line per run:
# the workload, seed, repetition, GOMAXPROCS and the bench's own result
# line.
#
#   bash bench/run.sh SEED REPS > runs.jsonl
#   python3 bench/summarize.py runs.jsonl
#
# Run it from the repository root.
set -euo pipefail

if [ $# -ne 2 ]; then
	echo "usage: bash bench/run.sh SEED REPS" >&2
	exit 2
fi
seed=$1 reps=$2
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
for ((rep = 0; rep < reps; rep++)); do
	for w in evolve-hetero stream-long grid-cold serve-mixed; do
		# A run whose outputs fail their checks exits 1 but still ends
		# with its result line (correct: false); keep it in the log.
		out=$(bash bench/bench.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0) || true
		procs=$(sed -n 's/^# bench .*gomaxprocs=\([0-9]*\).*/\1/p' <<<"$out")
		printf '{"workload":"%s","seed":%s,"rep":%d,"gomaxprocs":%s,"result":%s}\n' \
			"$w" "$seed" "$rep" "$procs" "$(tail -n 1 <<<"$out")"
	done
done
