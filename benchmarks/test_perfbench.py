"""Tests of the benchmark itself: tracer arithmetic, the report gate, the
tolerance of absent names, and a smoke run of every workload."""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import layertrace
import run

BENCH_DIR = Path(__file__).resolve().parent


def _fake_clock():
    now = [0.0]
    return now, (lambda: now[0])


class TestSelfTime:
    def test_nested_call_tree(self):
        now, clock = _fake_clock()
        tracer = layertrace.Tracer(clock)
        ns = types.SimpleNamespace()

        def leaf():
            now[0] += 2

        def mid():
            now[0] += 1
            ns.leaf()
            now[0] += 1
            ns.leaf()

        def top():
            now[0] += 3
            ns.mid()
            now[0] += 4

        ns.leaf = tracer.wrap("m.leaf", leaf)
        ns.mid = tracer.wrap("m.mid", mid)
        ns.top = tracer.wrap("m.top", top)
        ns.top()
        stats = tracer.stats
        assert (stats["m.leaf"]["calls"], stats["m.leaf"]["self_s"]) == (2, 4)
        assert (stats["m.mid"]["self_s"], stats["m.mid"]["total_s"]) == (2, 6)
        assert (stats["m.top"]["self_s"], stats["m.top"]["total_s"]) == (7, 13)

    def test_recursion_counts_total_once(self):
        now, clock = _fake_clock()
        tracer = layertrace.Tracer(clock)
        ns = types.SimpleNamespace()

        def rec(k):
            now[0] += 1
            if k:
                ns.rec(k - 1)

        ns.rec = tracer.wrap("m.rec", rec)
        ns.rec(2)
        stat = tracer.stats["m.rec"]
        assert (stat["calls"], stat["self_s"], stat["total_s"]) == (3, 3, 3)

    def test_counter_time_is_charged_to_nobody(self):
        now, clock = _fake_clock()
        tracer = layertrace.Tracer(clock)
        ns = types.SimpleNamespace()

        def slow_count(stat, args, kwargs, result):
            now[0] += 5
            stat["found"] += 1

        def parent():
            now[0] += 1
            ns.child()

        ns.child = tracer.wrap("m.child", lambda: now.__setitem__(0, now[0] + 2),
                               count=slow_count)
        ns.parent = tracer.wrap("m.parent", parent)
        ns.parent()
        assert tracer.stats["m.child"]["self_s"] == 2
        assert tracer.stats["m.parent"]["self_s"] == 1
        assert tracer.stats["m.child"]["found"] == 1

    def test_generator_steps_are_timed(self):
        now, clock = _fake_clock()
        tracer = layertrace.Tracer(clock)

        def gen():
            for k in range(3):
                now[0] += 1
                yield k

        wrapped = tracer.wrap("m.gen", gen)
        assert list(wrapped()) == [0, 1, 2]
        assert tracer.stats["m.gen"]["calls"] == 1
        assert tracer.stats["m.gen"]["self_s"] == 3


class TestInstall:
    @pytest.fixture
    def fake_package(self, monkeypatch):
        pkg = types.ModuleType("fakepkg")
        mod = types.ModuleType("fakepkg.mod")
        user = types.ModuleType("fakepkg.user")

        def work(x):
            return x + 1

        class Thing:
            def method(self):
                return 7

        mod.work, mod.Thing = work, Thing
        user.work = work  # a `from .mod import work` copy
        pkg.work = work
        for m in (pkg, mod, user):
            monkeypatch.setitem(sys.modules, m.__name__, m)
        return pkg, mod, user, work

    def test_every_binding_wrapped_and_restored(self, fake_package):
        pkg, mod, user, work = fake_package
        tracer = layertrace.Tracer()
        tracer.install(pkg, [("mod", "work", None, None, None),
                             ("mod", "Thing.method", None, None, None)])
        assert mod.work is not work and user.work is mod.work and pkg.work is mod.work
        assert user.work(1) == 2 and mod.work(2) == 3 and mod.Thing().method() == 7
        assert tracer.stats["mod.work"]["calls"] == 2
        assert tracer.stats["mod.Thing.method"]["calls"] == 1
        tracer.uninstall()
        assert mod.work is work and user.work is work and pkg.work is work

    def test_absent_names_are_tolerated(self, fake_package):
        pkg = fake_package[0]
        tracer = layertrace.Tracer()
        tracer.install(pkg, [("mod", "gone", None, None, None),
                             ("mod", "Thing.gone", None, None, None),
                             ("nomodule", "f", None, None, None)])
        assert tracer.absent == ["mod.gone", "mod.Thing.gone", "nomodule.f"]
        values = layertrace.layer_values(tracer.stats)
        assert values["homology.upper_koszul.self_s"] == 0
        assert values["homology.upper_koszul.face_yield"] == 0


class TestReportGate:
    @pytest.fixture
    def work(self, tmp_path):
        work = run.Workload("reg-c2", seed=5, smoke=True)
        work.report_path = tmp_path / "report.json"
        return work

    def _write_expected(self, work):
        pins = run.load_pins()
        corpus = run.relabeled_corpus(pins["corpora"]["g45"][:run.SMOKE_GRAPHS], work.seed)
        config = dict(pins["workloads"]["reg-c2"]["config"],
                      graph6_path=work.corpus_args[1])
        report = run.expected_report(config, 2, corpus,
                                     pins["workloads"]["reg-c2"]["records"])
        report["timings"] = {"wall_seconds": 1.0, "jobs": 1}
        work.report_path.write_text(json.dumps(report))
        return report

    def test_pinned_report_passes(self, work):
        self._write_expected(work)
        tally = run.Tally(work)
        assert tally.verify(0, "run")
        assert (tally.attempted, tally.failed) == (work.summary["total"], 0)

    def test_tampered_report_counted_as_failed(self, work):
        report = self._write_expected(work)
        report["records"][0]["detail"] = report["records"][0]["detail"].replace("reg=", "reg=1")
        work.report_path.write_text(json.dumps(report))
        tally = run.Tally(work)
        assert not tally.verify(0, "run")
        assert tally.failed == tally.attempted == work.summary["total"]

    @pytest.mark.parametrize("code", [1, 2, -9])
    def test_bad_exit_counted_as_failed(self, work, code):
        self._write_expected(work)
        tally = run.Tally(work)
        assert not tally.verify(code, "run")
        assert tally.failed == work.summary["total"]

    def test_missing_report_counted_as_failed(self, work):
        tally = run.Tally(work)
        assert not tally.verify(0, "run")

    def test_relabeling_keeps_the_graphs(self):
        from boundedpowers.graphs import Graph, parse_graph6

        base = run.load_pins()["corpora"]["g45"]
        corpus = run.relabeled_corpus(base, seed=9)
        assert sorted(k for k, _ in corpus) == list(range(len(base)))
        for index, g6 in corpus:
            n, edges = base[index]
            graph = parse_graph6(g6)
            assert graph.n == n and len(graph.edges) == len(edges)
        n, edges = base[0]
        assert run.graph6(n, edges) == Graph.from_edges(n, edges).to_graph6()


class TestContract:
    def test_benchmark_json_lists_every_metric(self):
        spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
        assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
        assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
        assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
            run.layer_metric_specs()

    @pytest.mark.parametrize("workload,trace", [
        ("reg-c2", 0), ("top-ones", 0), ("colon-c2", 1), ("lq-c2", 1)])
    def test_smoke_run(self, workload, trace):
        out = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "4",
             "--seconds", "0", "--trace", str(trace), "--smoke"],
            capture_output=True, text=True, timeout=120, check=True)
        result = json.loads(out.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        names = (run.END_TO_END if not trace else run.layer_metric_specs())
        assert list(result["metrics"]) == [spec[0] for spec in names]

    def test_refuses_without_program(self, tmp_path):
        shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
        out = subprocess.run(
            [sys.executable, "benchmarks/run.py", "--workload", "reg-c2", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp_path, capture_output=True, text=True, timeout=60)
        assert out.returncode != 0 and out.stdout == ""
