"""Summarizes bench result lines (bench/run.sh output, or any JSON lines
of the form {"workload": ..., "result": <bench result line>}).

    python3 bench/summarize.py runs.jsonl
        each workload x metric: run count, quartiles, median and spread
        (q3 - q1 as a share of the median, statistics.quantiles n=4)

    python3 bench/summarize.py change.jsonl --against parent.jsonl
        adds the parent's median, the change's median relative to it, and
        how many pairs the change wins (line i of each file is pair i,
        for the same workload); "better" comes from BENCHMARK.json
"""

import json
import os
import statistics
import sys


def load(path):
    vals, failed = {}, 0
    with open(path) as f:
        for line in f:
            run = json.loads(line)
            res = run["result"]
            failed += res["failed"]
            for name, m in res["metrics"].items():
                vals.setdefault((run["workload"], name), []).append(m["value"])
    return vals, failed


def quartiles(vs):
    if len(vs) < 2:
        return vs[0], vs[0]
    q = statistics.quantiles(vs, n=4)
    return q[0], q[2]


def main(args):
    parent = None
    if "--against" in args:
        i = args.index("--against")
        parent, args = load(args[i + 1]), args[:i] + args[i + 2 :]
    vals, failed = load(args[0])
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}

    head = f"{'workload':14} {'metric':16} {'n':>3} {'q1':>11} {'median':>11} {'q3':>11} {'spread':>7}"
    print(head + ("  parent-median   change  wins" if parent else ""))
    for (w, name), vs in sorted(vals.items()):
        q1, q3 = quartiles(vs)
        med = statistics.median(vs)
        line = f"{w:14} {name:16} {len(vs):3} {q1:11.4f} {med:11.4f} {q3:11.4f} {100 * (q3 - q1) / med:6.2f}%"
        pv = parent[0].get((w, name)) if parent else None
        if pv:
            pmed = statistics.median(pv)
            lower = better.get(name) == "lower"
            wins = sum((c < p) if lower else (c > p) for c, p in zip(vs, pv))
            line += f"  {pmed:13.4f} {100 * (med / pmed - 1):+7.2f}%  {wins}/{min(len(vs), len(pv))}"
        print(line)
    print(f"failed ops: {failed}" + (f" (parent: {parent[1]})" if parent else ""))


if __name__ == "__main__":
    main(sys.argv[1:])
