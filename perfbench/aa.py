#!/usr/bin/env python3
"""A/A check: two sets of benchmark runs of the same code, compared metric by metric.

Usage (from the repository root)::

    python3 perfbench/aa.py

Each set runs every workload of ``BENCHMARK.json`` ten times with
``--trace 0`` and the run length it sets, one run at a time: the first set on
seeds 1-10, the second on seeds 11-20.  For every workload and end-to-end
metric it prints each set's median and spread (inter-quartile distance over
median, as ``statistics.quantiles(values, n=4)`` gives the quartiles), the
change of the second set's median against the first's in the metric's worse
direction, and the bound from ``BENCHMARK.json``.  ``ok`` means both spreads
are within a third of the bound and the change, in either direction, is
within the bound; the failed-share row is ok when no operation failed and
every run was correct.  The exit code is 0 only if every row is ok.  Raw
results go to ``.perfbench_out/aa.json``.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]

    results = {w: ([], []) for w in workloads}
    for k in range(2):
        for w in workloads:
            for i in range(RUNS):
                seed = 1 + k * RUNS + i
                result = run_once(w, seed, seconds)
                results[w][k].append(result)
                print(f"set {k} {w} seed {seed}: " + " ".join(
                    f"{m}={v['value']:.4g}" for m, v in result["metrics"].items()), file=sys.stderr, flush=True)
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    (ROOT / ".perfbench_out" / "aa.json").write_text(json.dumps(results, indent=1))

    all_ok = True
    print(f"runs per set: {RUNS}, seconds per run: {seconds}")
    print("| workload | metric | median per set | spread per set | change | bound | ok |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    for w in workloads:
        first, second = results[w]
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sets = [[r["metrics"][name]["value"] for r in runs] for runs in (first, second)]
            medians = [statistics.median(v) for v in sets]
            spreads = [spread(v) for v in sets]
            change = (medians[1] - medians[0]) / medians[0] * (1 if metric["better"] == "lower" else -1)
            ok = abs(change) <= bound and max(spreads) <= bound / 3
            all_ok &= ok
            print(f"| {w} | {name} | " + " / ".join(f"{m:.4g}" for m in medians)
                  + " | " + " / ".join(f"{s:.2%}" for s in spreads)
                  + f" | {change:+.2%} | {bound:.0%} | {'yes' if ok else 'NO'} |")
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs) for runs in (first, second)]
        ok = shares == [0, 0] and all(r["correct"] for r in first + second)
        all_ok &= ok
        print(f"| {w} | failed share | " + " / ".join(f"{s:.3g}" for s in shares)
              + f" | | | | {'yes' if ok else 'NO'} |")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
