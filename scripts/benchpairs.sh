#!/usr/bin/env bash
# Compares this checkout with a parent revision on one benchmark
# workload, by bench/README.md's "Comparing two commits" procedure:
# PAIRS pairs of runs on one seed, alternating which side runs first,
# each run as long as BENCHMARK.json's run_seconds.
#
#   bash scripts/benchpairs.sh PARENT_REV WORKLOAD PAIRS SEED
#
# The parent revision is exported with `git archive` into a temporary
# directory (under $TMPDIR), which is removed on exit; each side builds
# the benchmark from its own sources. Every run's result line goes to
# parent.jsonl or change.jsonl in .bench_build/pairs/WORKLOAD-seedSEED/,
# emptied first, and the script stops at the first run that is not
# correct. At the end it prints the parent's own quartiles, then
# bench/summarize.py's comparison of the change against the parent.
set -euo pipefail

if [ $# -ne 4 ] || ! [[ $3 =~ ^[1-9][0-9]*$ ]]; then
	echo "usage: bash scripts/benchpairs.sh PARENT_REV WORKLOAD PAIRS SEED" >&2
	exit 2
fi
rev=$1 workload=$2 pairs=$3 seed=$4
cd "$(git rev-parse --show-toplevel)"
if ! commit=$(git rev-parse --verify --quiet "$rev^{commit}"); then
	echo "benchpairs: unknown revision $rev" >&2
	exit 2
fi
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')

parent=$(mktemp -d)
trap 'chmod -R u+w "$parent" 2>/dev/null; rm -rf "$parent"' EXIT
git archive "$commit" | tar -x -C "$parent"

out=.bench_build/pairs/$workload-seed$seed
mkdir -p "$out"
: >"$out/parent.jsonl"
: >"$out/change.jsonl"

# run SIDE DIR PAIR: one bench run from DIR, appended to SIDE.jsonl.
run() {
	local line
	# A run whose outputs fail their checks exits 1 but still ends with
	# its result line; the check below stops on it.
	line=$(cd "$2" && bash bench/bench.sh --workload "$workload" --seed "$seed" \
		--seconds "$seconds" --trace 0 | tail -n 1) || true
	if ! python3 -c 'import json, sys; sys.exit(0 if json.loads(sys.argv[1])["correct"] else 1)' "$line" 2>/dev/null; then
		echo "benchpairs: the $1 run of pair $3 is not correct; stopping:" >&2
		echo "$line" >&2
		exit 1
	fi
	printf '{"workload":"%s","result":%s}\n' "$workload" "$line" >>"$out/$1.jsonl"
}

for ((i = 1; i <= pairs; i++)); do
	if ((i % 2)); then
		run parent "$parent" "$i"
		run change . "$i"
	else
		run change . "$i"
		run parent "$parent" "$i"
	fi
	echo "benchpairs: pair $i of $pairs done" >&2
done

echo "# parent ($commit) alone: $out/parent.jsonl"
python3 bench/summarize.py "$out/parent.jsonl"
echo "# change against parent: $out/change.jsonl"
python3 bench/summarize.py "$out/change.jsonl" --against "$out/parent.jsonl"
