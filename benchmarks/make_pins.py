#!/usr/bin/env python3
"""Write ``pins.json``: the base corpora and the reports they must produce.

The base graphs are drawn once from G(n, 1/2) with a fixed seed; ``run.py``
relabels them with the run's seed.  The pinned records are what the program
at the reference commit reports for each base graph.  A report is
invariant under relabeling the vertices together with a constant ``c``, so
these records fix the whole expected report of every seed.  Re-pinning
changes what the benchmark accepts as correct; do it only together with a
change that is meant to change reports, and say so.

    python3 benchmarks/make_pins.py
"""

from __future__ import annotations

import json
import random
import sys

import run

BASE_SEED = 20250203
# corpus -> (vertex count, number of distinct labeled graphs drawn)
BASE = {
    "g45": ((4, 4), (5, 8)),
    "g67": ((6, 60), (7, 60)),
}


def draw_base(rng: random.Random, plan) -> list:
    base, seen = [], set()
    for n, count in plan:
        pairs = [(i, j) for j in range(2, n + 1) for i in range(1, j)]
        drawn = 0
        while drawn < count:
            edges = [p for p in pairs if rng.random() < 0.5]
            g6 = run.graph6(n, edges)
            if g6 not in seen:
                seen.add(g6)
                base.append([n, [list(e) for e in edges]])
                drawn += 1
    return base


def verify(work_name: str, args: list[str]) -> dict:
    suite, _, c_value = run.WORKLOADS[work_name]
    out = run.WORK / work_name / "pin-report.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    wall, code, _ = run.run_child(["-m", "boundedpowers", "verify", "--suite", suite] + args
                                  + run.c_policy_args(c_value) + ["--jobs", "1", "--out", str(out)])
    if code != 0:
        sys.exit(f"{work_name}: verify exited {code}")
    with open(out, encoding="utf-8") as handle:
        report = json.load(handle)
    print(f"{work_name}: {report['summary']} in {wall:.2f} s", file=sys.stderr)
    return report


def pin_seeded(work_name: str, base: list) -> dict:
    corpus = [(k, run.graph6(n, edges)) for k, (n, edges) in enumerate(base)]
    path = run.WORK / work_name / "base.g6"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(g6 + "\n" for _, g6 in corpus), encoding="ascii")
    report = verify(work_name, ["--graph6", path.relative_to(run.ROOT).as_posix()])
    index = {g6: k for k, g6 in corpus}
    records = [[] for _ in base]
    for r in report["records"]:
        records[index[r["key"].rsplit("|", 1)[0]]].append([r["s"], r["outcome"], r["detail"]])
    config = dict(report["config"], graph6_path=None)
    rebuilt = run.expected_report(dict(config, graph6_path=report["config"]["graph6_path"]),
                                  run.WORKLOADS[work_name][2], corpus, records)
    if run.report_digest(rebuilt) != run.report_digest(report):
        sys.exit(f"{work_name}: the pinned records do not rebuild the report")
    return {"config": config, "records": records}


def pin_exhaustive(work_name: str, nmax: int) -> dict:
    report = verify(work_name, ["--nmax", str(nmax)])
    graphs = sum(1 << (n * (n - 1) // 2) for n in range(1, nmax + 1))
    return {"graphs": graphs, "summary": report["summary"], "digest": run.report_digest(report)}


def main() -> int:
    rng = random.Random(BASE_SEED)
    corpora = {name: draw_base(rng, plan) for name, plan in BASE.items()}
    workloads = {}
    for name, (_, corpus_name, _) in run.WORKLOADS.items():
        if corpus_name is None:
            workloads[name] = {"full": pin_exhaustive(name, run.EXHAUSTIVE_NMAX),
                               "smoke": pin_exhaustive(name, run.SMOKE_NMAX)}
        else:
            workloads[name] = pin_seeded(name, corpora[corpus_name])
    for name, pin in workloads.items():
        for rec in pin.get("records", []):
            if any(outcome == "fail" for _, outcome, _ in rec):
                sys.exit(f"{name}: the reference commit reports a counterexample")
    with open(run.PINS, "w", encoding="utf-8") as handle:
        json.dump({"base_seed": BASE_SEED, "corpora": corpora, "workloads": workloads},
                  handle, separators=(",", ":"))
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
