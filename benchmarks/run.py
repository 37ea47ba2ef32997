#!/usr/bin/env python3
"""Outside-in benchmark of ``boundedpowers verify``.

Each workload runs one suite over a corpus the benchmark writes from its seed,
as ``python3 -m boundedpowers verify --jobs 1`` in a fresh process per run,
with ``PYTHONPATH`` pointing at this checkout's ``src``.  Every report is
checked byte for byte against the report rebuilt from ``pins.json``, so a run
that computes something else is counted as failed, never timed.

    python3 benchmarks/run.py --workload reg-c2 --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py --all --seed 1 --seconds 25

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer ones
from an in-process traced run (see ``layertrace.py``).  The last line of
standard output is one JSON object; the line before it holds the provenance.
See ``README.md`` for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import layertrace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"
PINS = BENCH_DIR / "pins.json"

# Workload -> (suite, corpus, constant bound c).  A named corpus is a list of
# base graphs in pins.json that the seed relabels and reorders; None means
# the exhaustive labeled corpus that the CLI enumerates itself (no seed).
WORKLOADS = {
    "reg-c2": ("regmain", "g45", 2),
    "top-ones": ("linres-top", "g67", 1),
    "colon-c2": ("banerjee-colon", "g45", 2),
    "lq-c2": ("edge-lq", None, 2),
}
EXHAUSTIVE_NMAX = 5
SMOKE_GRAPHS = 6
SMOKE_NMAX = 3

MIN_VERIFY_RUNS = 3
MIN_SETUP_RUNS = 5
VERIFY_RUNS_PER_SETUP = 4
CHILD_TIMEOUT_S = 120.0
# stop starting runs once one more could push the whole run past this
HARD_LIMIT_S = 150.0

END_TO_END = (
    ("verify_s", "s"),
    ("decided_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)

SETUP_PROBE = """\
import sys
import boundedpowers
from boundedpowers.graphs import enumerate_labeled_graphs, read_graph6_file
if sys.argv[1] == "--nmax":
    graphs = [g for n in range(1, int(sys.argv[2]) + 1) for g in enumerate_labeled_graphs(n)]
else:
    graphs = list(read_graph6_file(sys.argv[1]))
print(len(graphs), boundedpowers.__file__)
"""


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here at all (no program, no pins)."""


class ProbeError(RuntimeError):
    """A set-up probe failed or loaded another copy of the package."""


# ---------------------------------------------------------------- corpora


def graph6(n: int, edges) -> str:
    """graph6 line of a simple graph on 1..n (n <= 62), edges as (i, j) pairs."""
    present = {(min(i, j), max(i, j)) for i, j in edges}
    bits = [1 if (i, j) in present else 0 for j in range(2, n + 1) for i in range(1, j)]
    bits += [0] * (-len(bits) % 6)
    data = [n + 63] + [
        int("".join(map(str, bits[k:k + 6])), 2) + 63 for k in range(0, len(bits), 6)
    ]
    return bytes(data).decode("ascii")


def relabeled_corpus(base: list, seed: int) -> list[tuple[int, str]]:
    """(base index, graph6) per instance: every base graph under a seeded
    vertex relabeling, in seeded order.  The work an instance costs does not
    depend on its labels, so the seed varies the input, not its difficulty."""
    rng = random.Random(seed)
    corpus = []
    for index, (n, edges) in enumerate(base):
        perm = [0] + rng.sample(range(1, n + 1), n)
        corpus.append((index, graph6(n, [(perm[i], perm[j]) for i, j in edges])))
    rng.shuffle(corpus)
    return corpus


def report_digest(report: dict) -> str:
    """sha256 of the report's deterministic part, byte-identical to
    ``VerificationReport.to_json(with_timings=False)``."""
    body = {k: v for k, v in report.items() if k != "timings"}
    return hashlib.sha256(json.dumps(body, sort_keys=True, indent=1).encode()).hexdigest()


def expected_report(config: dict, c_value: int, corpus, pinned_records) -> dict:
    """The report the program must write for this corpus, rebuilt from the
    per-base-graph records pinned at the reference commit."""
    records = []
    for index, g6 in corpus:
        n = ord(g6[0]) - 63
        c = [c_value] * n
        key = f"{g6}|{','.join(map(str, c))}"
        for s, outcome, detail in pinned_records[index]:
            records.append({"key": key, "instance": {"graph6": g6, "c": c},
                            "s": s, "outcome": outcome, "detail": detail})
    records.sort(key=lambda r: (r["key"], -1 if r["s"] is None else r["s"]))
    counts = {o: sum(r["outcome"] == o for r in records) for o in ("pass", "fail", "skip")}
    return {
        "config": config,
        "records": records,
        "counterexamples": [r for r in records if r["outcome"] == "fail"],
        "summary": dict(counts, total=len(records)),
    }


class Workload:
    """One workload at one seed: its command line and its expected report."""

    def __init__(self, name: str, seed: int, smoke: bool = False):
        pins = load_pins()
        self.name, self.seed = name, seed
        self.suite, corpus_name, self.c_value = WORKLOADS[name]
        self.dir = WORK / name
        self.report_path = self.dir / "report.json"
        pin = pins["workloads"][name]
        if corpus_name is None:
            nmax = SMOKE_NMAX if smoke else EXHAUSTIVE_NMAX
            exact = pin["smoke" if smoke else "full"]
            self.corpus_args = ["--nmax", str(nmax)]
            self.probe_args = ["--nmax", str(nmax)]
            self.graphs = exact["graphs"]
            self.corpus_sha256 = None  # the CLI enumerates it; the digest pins it
            self.digest, self.summary = exact["digest"], exact["summary"]
            self.corpus_text = None
        else:
            base = pins["corpora"][corpus_name]
            records = pin["records"]
            if smoke:
                base, records = base[:SMOKE_GRAPHS], records[:SMOKE_GRAPHS]
            corpus = relabeled_corpus(base, seed)
            self.corpus_text = "".join(g6 + "\n" for _, g6 in corpus)
            corpus_path = self.dir / "corpus.g6"
            rel = corpus_path.relative_to(ROOT).as_posix()
            self.corpus_args = ["--graph6", rel]
            self.probe_args = [rel]
            self.graphs = len(corpus)
            self.corpus_sha256 = hashlib.sha256(self.corpus_text.encode()).hexdigest()
            config = dict(pin["config"], graph6_path=rel)
            expected = expected_report(config, self.c_value, corpus, records)
            self.digest, self.summary = report_digest(expected), expected["summary"]
        out = self.report_path.relative_to(ROOT).as_posix()
        self.verify_args = (["verify", "--suite", self.suite] + self.corpus_args
                            + c_policy_args(self.c_value) + ["--jobs", "1", "--out", out])

    def write_corpus(self) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)
        if self.corpus_text is not None:
            (self.dir / "corpus.g6").write_text(self.corpus_text, encoding="ascii")

    @property
    def decided(self) -> int:
        return self.summary["pass"] + self.summary["fail"]


def c_policy_args(c_value: int) -> list[str]:
    if c_value == 1:
        return ["--c-policy", "ones"]
    return ["--c-policy", "constant", "--c-value", str(c_value)]


def load_pins() -> dict:
    if not PINS.is_file():
        raise BenchmarkError(f"missing {PINS}")
    with open(PINS, encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------- child runs


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("BOUNDEDPOWERS_JOBS", None)
    return env


def run_child(args: list[str], timeout: float = CHILD_TIMEOUT_S) -> tuple[float, int, int]:
    """Run ``python3 ARGS`` from the checkout root with output discarded;
    return (wall seconds, exit code, peak RSS in KiB).  A child that outlives
    ``timeout`` is killed and reported with exit code -9."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable] + args, cwd=ROOT, env=child_env(),
                            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss


def setup_probe(work: Workload) -> float:
    """Wall seconds of a fresh process that imports the package and loads the
    workload's corpus; raises ProbeError when it fails or loads another copy."""
    start = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", SETUP_PROBE] + work.probe_args,
                         cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                         capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    wall = time.perf_counter() - start
    fields = out.stdout.split()
    if out.returncode != 0 or len(fields) != 2:
        raise ProbeError(f"setup probe failed: {out.stderr.strip()[-300:]}")
    if fields[0] != str(work.graphs) or not Path(fields[1]).resolve().is_relative_to(SRC):
        raise ProbeError(f"setup probe loaded {fields[0]} graphs from {fields[1]}")
    return wall


def check_report(path: Path, digest: str) -> tuple[bool, str]:
    """(report is the pinned one, its digest); a missing or unreadable report
    does not match."""
    try:
        with open(path, encoding="utf-8") as handle:
            report = json.load(handle)
    except (OSError, ValueError):
        return False, "unreadable"
    got = report_digest(report)
    return got == digest and report.get("summary", {}).get("fail") == 0, got


class Tally:
    """Records attempted and failed over a run's verify calls."""

    def __init__(self, work: Workload):
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.digests: set[str] = set()
        self.errors: list[str] = []

    def verify(self, exit_code: int, what: str) -> bool:
        """Count one verify run; all its records fail unless it exited 0 and
        wrote the pinned report."""
        ok, digest = check_report(self.work.report_path, self.work.digest)
        self.digests.add(digest)
        if exit_code != 0 or not ok:
            return self.fail(f"{what}: exit {exit_code}, report {digest[:16]}")
        self.attempted += self.work.summary["total"]
        return True

    def fail(self, error: str) -> bool:
        self.attempted += self.work.summary["total"]
        self.failed += self.work.summary["total"]
        self.errors.append(error)
        return False


def run_verify(work: Workload, args: list[str]) -> tuple[float, int, int]:
    """run_child for one verify command, with any earlier report removed."""
    work.report_path.unlink(missing_ok=True)
    return run_child(args + work.verify_args)


# ---------------------------------------------------------------- measuring


def quartiles(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"n": len(values), "min": min(values), "q1": q1, "median": q2, "q3": q3,
            "max": max(values), "iqr_share": (q3 - q1) / q2 if q2 else 0.0}


def measure_end_to_end(work: Workload, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """Untraced verify runs for ``seconds``, with a set-up probe before every
    fourth one."""
    walls, rss, setups = [], [], []
    start = time.perf_counter()
    try:
        setup_probe(work)  # warm-up: compiles bytecode in a fresh checkout
        while True:
            elapsed = time.perf_counter() - start
            last = walls[-1] if walls else 0.0
            if len(walls) >= MIN_VERIFY_RUNS and (
                    elapsed >= seconds or elapsed + last > HARD_LIMIT_S):
                break
            if len(walls) % VERIFY_RUNS_PER_SETUP == 0:
                setups.append(setup_probe(work))
            wall, code, maxrss = run_verify(work, ["-m", "boundedpowers"])
            if not tally.verify(code, f"verify run {len(walls) + 1}"):
                return {}, {}
            walls.append(wall)
            rss.append(maxrss / 1024.0)
        while len(setups) < MIN_SETUP_RUNS:
            setups.append(setup_probe(work))
    except ProbeError as exc:
        tally.fail(str(exc))
        return {}, {}
    verify_s = statistics.median(walls)
    metrics = {
        "verify_s": verify_s,
        "decided_per_s": work.decided / verify_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rss),
    }
    return metrics, {"verify_s": quartiles(walls), "setup_s": quartiles(setups),
                     "peak_rss_mb": quartiles(rss)}


def measure_layers(work: Workload, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """Alternate untraced verify runs and traced in-process runs for ``seconds``;
    report the layers of the traced run with the median wall time."""
    stats_path = work.dir / "trace.json"
    trace_script = (BENCH_DIR / "layertrace.py").relative_to(ROOT).as_posix()
    plain, traced, samples, absent = [], [], [], []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        last = (plain[-1] + traced[-1]) if traced else 0.0
        if traced and (elapsed >= seconds or elapsed + last > HARD_LIMIT_S):
            break
        wall, code, _ = run_verify(work, ["-m", "boundedpowers"])
        if not tally.verify(code, f"untraced run {len(plain) + 1}"):
            return {}, {}
        plain.append(wall)
        stats_path.unlink(missing_ok=True)
        wall, code, _ = run_verify(work, [trace_script, stats_path.relative_to(ROOT).as_posix()])
        if not tally.verify(code, f"traced run {len(traced) + 1}"):
            return {}, {}
        with open(stats_path, encoding="utf-8") as handle:
            result = json.load(handle)
        if not Path(result["module_file"]).resolve().is_relative_to(SRC):
            tally.fail(f"traced run imported {result['module_file']}")
            return {}, {}
        traced.append(wall)
        samples.append(layertrace.layer_values(result["stats"]))
        absent = result["absent"]
    if not traced:
        return {}, {}
    # one coherent snapshot, so that the layer times add up
    middle = sorted(range(len(traced)), key=traced.__getitem__)[(len(traced) - 1) // 2]
    metrics = dict(samples[middle])
    metrics["trace.wall_s"] = traced[middle]
    metrics["trace.overhead_s"] = traced[middle] - statistics.median(plain)
    metrics["report.skip_share"] = work.summary["skip"] / work.summary["total"]
    return metrics, {"verify_s": quartiles(plain), "trace.wall_s": quartiles(traced),
                     "absent": absent}


def layer_metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    specs = [(f"{name}.{key}", unit, better)
             for name, key, unit, better in layertrace.LAYER_METRICS]
    specs += [(f"{module}.self_s", "s", "lower") for module in layertrace.MODULES]
    specs += [("trace.wall_s", "s", "lower"), ("trace.overhead_s", "s", "lower"),
              ("report.skip_share", "ratio", "lower")]
    return specs


def commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(work: Workload, tally: Tally, spread: dict) -> dict:
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((SRC / "boundedpowers").glob("*.py")))
    return {
        "workload": work.name, "suite": work.suite, "seed": work.seed,
        "corpus": " ".join(work.corpus_args), "corpus_sha256": work.corpus_sha256, "records": work.summary["total"],
        "pinned_report_sha256": work.digest, "report_sha256": sorted(tally.digests),
        "skip_share": work.summary["skip"] / work.summary["total"],
        "fail_share": tally.failed / tally.attempted if tally.attempted else 1.0,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "commit": commit(), "src_lines": src_lines,
        "spread": spread, "errors": tally.errors,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> tuple[dict, dict]:
    """(result object, provenance) of one benchmark run."""
    work = Workload(name, seed, smoke)
    work.write_corpus()
    tally = Tally(work)
    if trace:
        values, spread = measure_layers(work, seconds, tally)
        specs = layer_metric_specs()
    else:
        values, spread = measure_end_to_end(work, seconds, tally)
        specs = [(metric, unit, None) for metric, unit in END_TO_END]
    if not values:
        values = {name: 0.0 for name, _, _ in specs}
    metrics = {metric: {"value": values[metric], "unit": unit} for metric, unit, _ in specs}
    correct = tally.failed == 0 and tally.attempted > 0
    result = {"correct": correct, "attempted": max(tally.attempted, 1),
              "failed": tally.failed if tally.attempted else 1, "metrics": metrics}
    return result, provenance(work, tally, spread)


def print_table(seed: int, seconds: float) -> bool:
    """Every end-to-end metric of every workload, by name and unit."""
    names = [m for m, _ in END_TO_END] + ["skip_share", "fail_share"]
    units = [u for _, u in END_TO_END] + ["ratio", "ratio"]
    print("workload  " + "  ".join(f"{n}[{u}]".rjust(18) for n, u in zip(names, units)))
    ok = True
    for name in WORKLOADS:
        result, prov = run_workload(name, seed, seconds, trace=False)
        values = [result["metrics"][m]["value"] for m, _ in END_TO_END]
        values += [prov["skip_share"], prov["fail_share"]]
        print(f"{name:<9} " + "  ".join(f"{v:18.6g}" for v in values), flush=True)
        ok = ok and result["correct"]
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="table of all workloads")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny corpora, for testing the benchmark itself")
    args = parser.parse_args(argv)
    # a terminated benchmark still kills and reaps its current child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "boundedpowers" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'boundedpowers'}", file=sys.stderr)
        return 2
    try:
        if args.all:
            return 0 if print_table(args.seed, args.seconds) else 1
        if args.workload is None:
            parser.error("one of --workload or --all is required")
        result, prov = run_workload(args.workload, args.seed, args.seconds,
                                    bool(args.trace), args.smoke)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
