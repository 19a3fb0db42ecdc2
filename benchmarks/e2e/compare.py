"""Compare two result files of run.py: ``compare.py A.json B.json``.

One row per (end-to-end metric, workload): both medians, the ratio B/A
(base: A), the bound from BENCHMARK.json and a verdict.

``worse``       B's median is worse than A's by more than the bound
``unresolved``  the run-to-run spread (interquartile range over median,
                the wider of the two files) exceeds the bound, so a change
                of that size could hide in it - unless every run of one
                file beats every run of the other
``better``      B's median is better by more than the spread
``same``        anything else

Exact counts (flops, proposals, gpu-sim model counts, ``g_rel_err``) are
compared for identity and reported; a difference there means the numerics
or the chain changed, not the speed. Exit status is non-zero on any
``worse``. Comparing two files of one commit is the A/A check.
"""

from __future__ import annotations

import json
import statistics
import sys

from run import load_spec


def spread(runs: list) -> float:
    if len(runs) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(runs, n=4)
    return (q3 - q1) / abs(statistics.median(runs))


def verdict(a: list, b: list, lower_is_better: bool, bound: float):
    """(verdict, spread) for the runs of one metric in A and in B."""
    sign = 1.0 if lower_is_better else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    worsening = sign * (med_b - med_a) / abs(med_a)
    noise = max(spread(a), spread(b))
    b_beats_a = max(sign * x for x in b) < min(sign * x for x in a)
    a_beats_b = max(sign * x for x in a) < min(sign * x for x in b)
    if noise > bound:
        if b_beats_a:
            return "better", noise
        if a_beats_b and worsening > bound:
            return "worse", noise
        return "unresolved", noise
    if worsening > bound:
        return "worse", noise
    if worsening < -noise and worsening < 0.0:
        return "better", noise
    return "same", noise


def compare(a: dict, b: dict, spec: dict) -> int:
    worse = 0
    header = (f"{'workload':<18} {'metric':<16} {'A median':>12} {'B median':>12} "
              f"{'B/A':>8} {'spread':>8} {'bound':>6}  verdict")
    print(header)
    for name in (w["name"] for w in spec["workloads"]):
        wa, wb = a["workloads"].get(name), b["workloads"].get(name)
        if wa is None or wb is None:
            print(f"{name:<18} missing from one file")
            continue
        for m in spec["end_to_end"]:
            runs_a = wa["end_to_end"][m["name"]]["runs"]
            runs_b = wb["end_to_end"][m["name"]]["runs"]
            v, noise = verdict(runs_a, runs_b, m["better"] == "lower", m["bound"])
            med_a, med_b = statistics.median(runs_a), statistics.median(runs_b)
            worse += v == "worse"
            print(f"{name:<18} {m['name']:<16} {med_a:>12.5g} {med_b:>12.5g} "
                  f"{med_b / med_a:>8.4f} {100 * noise:>7.2f}% "
                  f"{100 * m['bound']:>5.0f}%  {v}   "
                  f"[{m['unit']}, n={len(runs_a)}/{len(runs_b)}, base A]")
        # any increase of the failure ratio counts
        fa, fb = max(wa["failed_ops_ratio"]), max(wb["failed_ops_ratio"])
        v = "worse" if fb > fa else "same"
        worse += v == "worse"
        print(f"{name:<18} {'failed_ops_ratio':<16} {fa:>12.5g} {fb:>12.5g} "
              f"{'':>8} {'':>8} {'any':>6}  {v}")
        differing = [k for k in wa["exact"] if wa["exact"][k] != wb["exact"].get(k)]
        print(f"{name:<18} exact counts     "
              + ("identical" if not differing else "DIFFER: " + ", ".join(differing)))
    return 1 if worse else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    files = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            files.append(json.load(fh))
    for label, path, data in zip("AB", argv, files):
        p = data["provenance"]
        print(f"{label}: {path}  git {p['git'][:12]}  seed {p['seed']}  "
              f"{p['seconds']} s x {p['repeats']} runs  {p['time_utc']}")
    return compare(files[0], files[1], load_spec())


if __name__ == "__main__":
    sys.exit(main())
