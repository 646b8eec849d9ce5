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
# correct. After the pairs, TRACED traced passes (--trace 1) per side
# from the same export, again alternating which side runs first, write
# parent-trace.jsonl and change-trace.jsonl there. One traced pass per
# side cannot tell a layer's change from its pass-to-pass swing, so the
# per-layer comparison is of the passes' medians. At the end it prints
# the parent's own quartiles, then bench/summarize.py's comparison of
# the change against the parent, for the timed pairs and for the traced
# passes' per-layer metrics.
set -euo pipefail

# TRACED is the number of traced passes per side.
readonly TRACED=3

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
for f in parent change parent-trace change-trace; do
	: >"$out/$f.jsonl"
done

# run FILE DIR TRACE WHAT: one bench run from DIR with --trace TRACE,
# appended to FILE.jsonl; WHAT names the run if it is not correct.
run() {
	local line
	# A run whose outputs fail their checks exits 1 but still ends with
	# its result line; the check below stops on it.
	line=$(cd "$2" && bash bench/bench.sh --workload "$workload" --seed "$seed" \
		--seconds "$seconds" --trace "$3" | tail -n 1) || true
	if ! python3 -c 'import json, sys; sys.exit(0 if json.loads(sys.argv[1])["correct"] else 1)' "$line" 2>/dev/null; then
		echo "benchpairs: $4 is not correct; stopping:" >&2
		echo "$line" >&2
		exit 1
	fi
	printf '{"workload":"%s","result":%s}\n' "$workload" "$line" >>"$out/$1.jsonl"
}

# nonzero FILE: FILE's result lines without the metrics that read 0 in
# any of them. A traced pass reports 0 for every layer its workload
# never reaches, and bench/summarize.py divides by a metric's median.
# Dropping a metric from every line keeps line i of each file pass i.
nonzero() {
	python3 -c 'import json, sys
runs = [json.loads(line) for line in open(sys.argv[1])]
zero = {k for run in runs for k, m in run["result"]["metrics"].items() if m["value"] == 0}
for run in runs:
    metrics = run["result"]["metrics"]
    run["result"]["metrics"] = {k: m for k, m in metrics.items() if k not in zero}
    print(json.dumps(run))' "$1"
}

for ((i = 1; i <= pairs; i++)); do
	if ((i % 2)); then
		run parent "$parent" 0 "the parent run of pair $i"
		run change . 0 "the change run of pair $i"
	else
		run change . 0 "the change run of pair $i"
		run parent "$parent" 0 "the parent run of pair $i"
	fi
	echo "benchpairs: pair $i of $pairs done" >&2
done
for ((i = 1; i <= TRACED; i++)); do
	if ((i % 2)); then
		run parent-trace "$parent" 1 "the parent's traced pass $i"
		run change-trace . 1 "the change's traced pass $i"
	else
		run change-trace . 1 "the change's traced pass $i"
		run parent-trace "$parent" 1 "the parent's traced pass $i"
	fi
	echo "benchpairs: traced pass $i of $TRACED done" >&2
done

echo "# parent ($commit) alone: $out/parent.jsonl"
python3 bench/summarize.py "$out/parent.jsonl"
echo "# change against parent: $out/change.jsonl"
python3 bench/summarize.py "$out/change.jsonl" --against "$out/parent.jsonl"
echo "# traced passes ($TRACED per side), change against parent: $out/change-trace.jsonl"
python3 bench/summarize.py <(nonzero "$out/change-trace.jsonl") --against <(nonzero "$out/parent-trace.jsonl")
