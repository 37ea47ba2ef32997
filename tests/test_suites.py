"""Suite harness: determinism, skip/fail bookkeeping, corpus handling."""

import json
import random
import sys
from operator import le

import pytest

import boundedpowers.suites as suites
from boundedpowers import (Graph, MonomialIdeal, SuiteConfig, canon, cli, connections,
                           cycle_graph, homology, path_graph, run_suite)
from boundedpowers.suites import SUITE_NAMES

GRAPH_SUITES = [name for name, suite in suites._SUITES.items() if suite.corpus == "graphs"]
C2 = dict(c_policy="constant", c_value=2)

# What each run reads, written out from each suite's statement rather than
# derived from suites._SUITES.  Every run reads suite and jobs.
SEARCHING = {"edge-lq", "squarefree-lq", "rfirst"}  # max_generators
HOMOLOGY = {"linres-top", "regcol", "colon-reg", "regmain"}  # char
S_RANGE = {"rfirst", "regcol", "deg2", "banerjee-colon", "colon-reg", "regmain"}  # max_s
IDEAL_READS = {"random_count", "random_nmax", "seed", "max_generators"}
POLICY_READS = {"ones": set(), "constant": {"c_value"}, "random": {"c_value", "seed"},
                "explicit": {"c_explicit"}}
CORPUS_SOURCES = {"nmax", "graph6_path", "random_count"}


def spec_reads(suite, options):
    """The fields a run of ``suite`` with ``options`` reads."""
    read = {"suite", "jobs"}
    if suite in ("boston", "istanbul"):
        return read | IDEAL_READS
    if suite == "remark45":
        return read
    # a graph suite reads one corpus source, and random_nmax and seed only
    # with random_count
    sources = CORPUS_SOURCES & set(options)
    read |= sources if len(sources) == 1 else set()
    if "random_count" in sources:
        read |= {"random_nmax", "seed"}
    if suite != "squarefree-lq":
        read |= {"c_policy"} | POLICY_READS[options.get("c_policy", "ones")]
    for name, readers in (("max_generators", SEARCHING), ("char", HOMOLOGY), ("max_s", S_RANGE)):
        if suite in readers:
            read.add(name)
    return read


# one value other than the default for every SuiteConfig field but suite
OTHER_VALUE = {
    "nmax": 3, "graph6_path": "g.g6", "random_count": 2, "random_nmax": 4, "seed": 5,
    "c_policy": "constant", "c_value": 2, "c_explicit": (1, 2), "char": 3,
    "max_generators": 10, "max_s": 2, "jobs": 2,
}


def refusal(**options):
    """The message SuiteConfig refuses ``options`` with, or None."""
    try:
        SuiteConfig(**options)
    except ValueError as exc:
        return str(exc)
    return None


def read_options(suite, **options):
    """``options`` without the fields ``suite`` does not read: the search cap
    for a suite that does not search, and the c fields for squarefree-lq, with
    the seed when only the c policy would read it."""
    if suite not in SEARCHING:
        options.pop("max_generators", None)
    if suite == "squarefree-lq":
        for name in ("c_policy", "c_value", "c_explicit"):
            options.pop(name, None)
        if "random_count" not in options:
            options.pop("seed", None)
    return dict(suite=suite, **options)


class TestConfig:
    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            SuiteConfig(suite="nope")

    def test_unknown_field_rejected(self):
        with pytest.raises(TypeError, match="SuiteConfig has no field 'max_gens'"):
            SuiteConfig(suite="rfirst", nmax=3, max_gens=5)
        with pytest.raises(TypeError):
            SuiteConfig(nmax=3)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            SuiteConfig(suite="essen", c_policy="weird")

    def test_explicit_policy_needs_vector(self):
        with pytest.raises(ValueError):
            SuiteConfig(suite="essen", c_policy="explicit")

    def test_composite_characteristic_rejected(self):
        for char in (1, 4, -2):
            with pytest.raises(ValueError, match="0 or a prime"):
                SuiteConfig(suite="regmain", nmax=3, char=char)

    def test_all_suites_registered(self):
        assert set(SUITE_NAMES) == set(suites._SUITES)

    def test_every_field_is_a_verify_flag(self):
        # a field no flag sets is a knob no caller can turn
        verify = cli.build_parser()._subparsers._group_actions[0].choices["verify"]
        dests = {action.dest for action in verify._actions} - {"suite", "out", "help"}
        assert dests == SuiteConfig.DEFAULTS.keys()

    @pytest.mark.parametrize("max_s", [0, -3])
    def test_nonpositive_max_s_rejected(self, max_s):
        with pytest.raises(ValueError, match="max_s must be >= 1"):
            SuiteConfig(suite="regmain", nmax=3, max_s=max_s, **C2)

    @pytest.mark.parametrize("c_value", [0, -1])
    def test_random_policy_needs_a_positive_c_value(self, c_value):
        # every c drawn from [0, c_value] would be all zero, so the draw never ends
        with pytest.raises(ValueError, match="c_value >= 1"):
            SuiteConfig(suite="regmain", random_count=5, c_policy="random", c_value=c_value)

    @pytest.mark.parametrize("corpus", [dict(nmax=0), dict(nmax=-2), dict(random_count=0)],
                             ids=["nmax=0", "nmax=-2", "count=0"])
    def test_empty_corpus_size_rejected(self, corpus):
        with pytest.raises(ValueError, match="must be >= 1"):
            SuiteConfig(suite="regmain", **corpus)

    def test_nmax_above_the_enumeration_cap_rejected(self):
        # refused before any corpus is built: n = 8 alone has 2^28 labeled
        # graphs, one payload each, more than the memory of a small host
        SuiteConfig(suite="regmain", nmax=7)
        for nmax in (8, 9, 10):
            with pytest.raises(ValueError, match=f"nmax must be <= 7, got {nmax}"):
                SuiteConfig(suite="regmain", nmax=nmax)

    @pytest.mark.parametrize("suite, options, field, floor", [
        ("regmain", dict(random_nmax=1), "random_nmax", 2),
        ("regmain", dict(random_nmax=-5), "random_nmax", 2),
        ("essen", dict(random_nmax=0), "random_nmax", 2),
        ("boston", dict(random_nmax=0), "random_nmax", 1),
        ("istanbul", dict(random_nmax=-1), "random_nmax", 1),
    ])
    def test_random_corpus_size_out_of_domain(self, suite, options, field, floor):
        # a random ideal needs one variable, and a random graph two vertices
        with pytest.raises(ValueError, match=f"{field} must be >= {floor}, got "):
            SuiteConfig(suite=suite, random_count=3, **options)

    def test_random_corpus_sizes_at_their_floor(self):
        report = run_suite(SuiteConfig(suite="regmain", random_count=4, random_nmax=2, **C2))
        assert {len(r["instance"]["c"]) for r in report.records} == {2}
        report = run_suite(SuiteConfig(suite="boston", random_count=5, random_nmax=1))
        assert {r["instance"]["ideal"]["n"] for r in report.records} == {1}
        assert report.failed == 0

    @pytest.mark.parametrize("corpus", [
        dict(nmax=3, random_count=2),
        dict(nmax=3, graph6_path="g.g6"),
        dict(graph6_path="g.g6", random_count=2),
    ], ids=["nmax+count", "nmax+graph6", "graph6+count"])
    def test_one_corpus_source(self, corpus):
        # only one source is ever read, so a second one would be echoed but ignored
        with pytest.raises(ValueError, match="choose one corpus source"):
            SuiteConfig(suite="regmain", **corpus)

    @pytest.mark.parametrize("policy", ["ones", "constant", "random"])
    def test_explicit_vector_needs_explicit_policy(self, policy):
        with pytest.raises(ValueError, match="suite 'essen' does not read c_explicit"):
            SuiteConfig(suite="essen", nmax=2, c_policy=policy, c_explicit=(5, 5))

    @pytest.mark.parametrize("suite, corpus", [
        ("boston", dict(nmax=2)),
        ("istanbul", dict(graph6_path="g.g6")),
        ("remark45", dict(nmax=2)),
        ("remark45", dict(graph6_path="g.g6")),
        ("remark45", dict(random_count=2)),
    ])
    def test_corpus_field_the_suite_does_not_read(self, suite, corpus):
        with pytest.raises(ValueError, match=f"suite '{suite}' does not read {[*corpus][0]} "):
            SuiteConfig(suite=suite, **corpus)

    @pytest.mark.parametrize("suite, corpus", [
        ("edge-lq", dict(nmax=2, **C2)),
        ("squarefree-lq", dict(nmax=2)),
        ("essen", dict(nmax=2)),
        ("linres-top", dict(nmax=2)),
        ("boston", dict(random_count=2)),
        ("istanbul", dict(random_count=2)),
        ("remark45", dict()),
    ])
    def test_max_s_on_a_suite_without_s_range(self, suite, corpus):
        with pytest.raises(ValueError, match=f"suite '{suite}' does not read max_s "):
            SuiteConfig(suite=suite, max_s=1, **corpus)

    @pytest.mark.parametrize("suite, corpus", [
        ("boston", dict(random_count=2)),
        ("istanbul", dict(random_count=2)),
        ("remark45", dict()),
    ])
    @pytest.mark.parametrize("c_fields", [
        C2, dict(c_policy="random"), dict(c_value=3),
        dict(c_policy="explicit", c_explicit=(1, 2)),
    ], ids=["constant", "random", "value", "explicit"])
    def test_c_field_the_suite_does_not_read(self, suite, corpus, c_fields):
        # the message names the first field in declaration order
        with pytest.raises(ValueError, match=f"suite '{suite}' does not read {[*c_fields][0]} "):
            SuiteConfig(suite=suite, **corpus, **c_fields)

    @pytest.mark.parametrize("suite", SUITE_NAMES)
    def test_each_field_is_accepted_exactly_when_read(self, suite):
        # a field that OTHER_VALUE does not list fails here until it is added
        # to OTHER_VALUE and to spec_reads
        assert {name: default != OTHER_VALUE.get(name)
                for name, default in SuiteConfig.DEFAULTS.items()} == dict.fromkeys(OTHER_VALUE, True)
        wrong = []
        for corpus in ({}, dict(nmax=3), dict(graph6_path="g.g6"), dict(random_count=2)):
            for policy in ({}, dict(c_policy="constant"), dict(c_policy="random"),
                           dict(c_policy="explicit", c_explicit=(1, 2))):
                base = {**corpus, **policy}
                for name in [None, *OTHER_VALUE]:
                    if name in base:
                        continue
                    options = base if name is None else {**base, name: OTHER_VALUE[name]}
                    unread = set(options) - spec_reads(suite, options)
                    message = refusal(suite=suite, **options)
                    # refused exactly when a field is unread, by a message
                    # that names one of the unread fields
                    named = message is not None and any(name in message for name in unread)
                    if (message is not None) != bool(unread) or unread and not named:
                        wrong.append((options, unread, message))
        assert wrong == []

    @pytest.mark.parametrize("suite, c_fields, floor", [
        ("edge-lq", dict(c_policy="constant", c_value=0), 1),
        ("edge-lq", dict(c_policy="explicit", c_explicit=(1, 0)), 1),
        ("essen", dict(c_policy="constant", c_value=-1), 0),
        ("essen", dict(c_policy="explicit", c_explicit=(-1, 2)), 0),
    ], ids=["edge-lq-constant", "edge-lq-explicit", "essen-constant", "essen-explicit"])
    def test_c_below_the_suite_floor(self, suite, c_fields, floor):
        # refused before any graph is read; the file does not exist
        with pytest.raises(ValueError, match=f"suite '{suite}' needs every entry of c >= {floor}"):
            SuiteConfig(suite=suite, graph6_path="missing.g6", **c_fields)

    def test_corpus_fields_each_suite_reads(self):
        SuiteConfig(suite="boston", random_count=2)
        SuiteConfig(suite="remark45")
        SuiteConfig(suite="regmain", nmax=2, max_s=1, **C2)
        SuiteConfig(suite="essen", graph6_path="g.g6", c_policy="explicit", c_explicit=(1, 2))

    def test_max_s_below_the_s_range_is_a_skip(self):
        # colon-reg starts at s = 2, so max_s = 1 leaves every instance without
        # an s; each one must still be reported
        full = run_suite(SuiteConfig(suite="colon-reg", nmax=4, **C2))
        capped = run_suite(SuiteConfig(suite="colon-reg", nmax=4, max_s=1, **C2))
        assert {r["key"] for r in capped.records} == {r["key"] for r in full.records}
        assert capped.summary == {"pass": 0, "fail": 0, "skip": 75, "total": 75}
        details = [r["detail"] for r in capped.records]
        assert sum("max_s=1: no s with 2 <= s <= max_s" in d for d in details) == 71


class TestFixedSuite:
    def test_remark45(self):
        report = run_suite(SuiteConfig(suite="remark45"))
        assert report.summary == {"pass": 1, "fail": 0, "skip": 0, "total": 1}
        assert "delta=1" in report.records[0]["detail"]
        assert "lq_ordering=none" in report.records[0]["detail"]


class TestReports:
    def test_summary_matches_records(self):
        report = run_suite(SuiteConfig(suite="essen", nmax=3))
        tally = {"pass": 0, "fail": 0, "skip": 0}
        for record in report.records:
            tally[record["outcome"]] += 1
        assert report.summary["pass"] == tally["pass"]
        assert report.summary["fail"] == tally["fail"]
        assert report.summary["skip"] == tally["skip"]
        assert report.summary["total"] == len(report.records)

    def test_records_sorted(self):
        report = run_suite(SuiteConfig(suite="regmain", nmax=3))
        keys = [(r["key"], -1 if r["s"] is None else r["s"]) for r in report.records]
        assert keys == sorted(keys)

    def test_skips_are_distinct(self):
        # the edgeless graphs have delta 0 and must be reported as skips
        report = run_suite(SuiteConfig(suite="essen", nmax=2))
        outcomes = {r["key"]: r["outcome"] for r in report.records}
        assert outcomes["@|1"] == "skip"
        assert outcomes["A?|1,1"] == "skip"
        assert outcomes["A_|1,1"] == "pass"
        assert report.summary["fail"] == 0

    @pytest.mark.parametrize("suite", ["boston", "edge-lq"])
    def test_config_echoes_the_ideal_corpus_shape(self, suite):
        # every suite echoes the fixed shape of a random ideal, which the
        # pinned reports hold
        config = run_suite(SuiteConfig(suite=suite, random_count=2)).config
        assert config.keys() == {*SuiteConfig._fields, "ideal_max_generators",
                                 "ideal_max_exponent", "samples_per_instance"} - {"jobs"}
        assert (config["ideal_max_generators"], config["ideal_max_exponent"],
                config["samples_per_instance"]) == (6, 2, 3)

    def test_deterministic_across_jobs(self):
        base = dict(suite="deg2", nmax=3, c_policy="constant", c_value=2)
        serial = run_suite(SuiteConfig(jobs=1, **base))
        parallel = run_suite(SuiteConfig(jobs=3, **base))
        assert serial.to_json(with_timings=False) == parallel.to_json(with_timings=False)

    @pytest.mark.parametrize("jobs, cpus, workers", [
        (1000, 64, 7),  # one worker per evaluated class at most
        (1000, 2, 2),  # one per CPU at most
        (3, 64, 3),
        (4, None, None),  # no CPU count: one process, no pool
        (4, 1, None),
    ])
    def test_pool_size_is_capped(self, monkeypatch, jobs, cpus, workers):
        # the fork start method starts every worker of a pool at its first
        # submit, so a large --jobs must not reach the pool; the fake pool
        # maps in this process and starts nothing
        import concurrent.futures
        import os

        started = []

        class RecordingPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        base = dict(suite="deg2", nmax=3, c_policy="constant", c_value=2)
        serial = run_suite(SuiteConfig(**base)).to_json(with_timings=False)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        report = run_suite(SuiteConfig(jobs=jobs, **base))
        assert report.timings["classes"] == 7
        assert started == ([] if workers is None else [workers])
        assert report.to_json(with_timings=False) == serial

    def test_deterministic_with_random_policy(self):
        base = dict(suite="regmain", random_count=15, seed=9, c_policy="random", c_value=2)
        first = run_suite(SuiteConfig(**base))
        second = run_suite(SuiteConfig(**base))
        assert first.to_json(with_timings=False) == second.to_json(with_timings=False)

    def test_timings_live_in_sidecar(self):
        for options in (dict(suite="remark45"), dict(suite="essen", nmax=3)):
            report = run_suite(SuiteConfig(**options))
            data = report.to_dict()
            assert "wall_seconds" in data["timings"]
            assert "jobs" in data["timings"]
            assert "jobs" not in data["config"]
            assert "timings" not in report.to_dict(with_timings=False)
            # stage seconds from run_suite, outside the deterministic part
            names = ("corpus_s", "classes_s", "evaluate_s", "assemble_s")
            stages = [data["timings"][name] for name in names]
            assert all(isinstance(t, float) and t >= 0 for t in stages)
            assert sum(stages) <= data["timings"]["wall_seconds"] + 1e-5
            text = report.to_json(with_timings=False)
            assert not any(name in text for name in names)


class TestCorpora:
    def test_graph6_file_corpus(self, tmp_path):
        lines = [Graph.from_edges(4, [(1, 2), (3, 4)]).to_graph6(), "D?{"]
        path = tmp_path / "corpus.g6"
        path.write_text("\n".join(lines) + "\n")
        report = run_suite(SuiteConfig(suite="essen", graph6_path=str(path)))
        assert report.summary["total"] == 2
        assert report.summary["fail"] == 0

    def test_empty_corpus(self, tmp_path):
        path = tmp_path / "empty.g6"
        path.write_text("")
        report = run_suite(SuiteConfig(suite="essen", graph6_path=str(path)))
        assert report.summary == {"pass": 0, "fail": 0, "skip": 0, "total": 0}
        assert report.failed == 0

    def test_random_graph_corpus_respects_nmax(self):
        report = run_suite(
            SuiteConfig(suite="essen", random_count=20, random_nmax=4, seed=1)
        )
        assert report.summary["total"] == 20
        for record in report.records:
            graph6 = record["key"].split("|")[0]
            assert len(record["instance"]["c"]) <= 4, graph6

    def test_explicit_c_policy(self, tmp_path):
        # explicit vectors need a corpus with one fixed ambient
        path = tmp_path / "threes.g6"
        path.write_text(
            "\n".join(
                Graph.from_edges(3, edges).to_graph6()
                for edges in ([], [(1, 2)], [(1, 2), (2, 3)], [(1, 2), (2, 3), (1, 3)])
            )
            + "\n"
        )
        report = run_suite(
            SuiteConfig(suite="essen", graph6_path=str(path),
                        c_policy="explicit", c_explicit=(2, 2, 2))
        )
        assert report.summary["total"] == 4 and report.summary["fail"] == 0
        with pytest.raises(ValueError):
            run_suite(SuiteConfig(suite="essen", nmax=3,
                                  c_policy="explicit", c_explicit=(2, 2, 2)))

    def test_random_c_starts_at_the_suite_floor(self):
        # edge-lq needs c > 0, so its random draws start at 1; essen's at 0
        for suite, low in (("edge-lq", 1), ("essen", 0)):
            report = run_suite(SuiteConfig(suite=suite, random_count=30, c_policy="random",
                                           c_value=2, seed=4))
            entries = {x for r in report.records for x in r["instance"]["c"]}
            assert entries == set(range(low, 3))

    def test_random_ideals_have_the_echoed_shape(self):
        payloads = suites._ideal_instances(SuiteConfig(suite="istanbul", random_count=60, seed=1))
        assert len(payloads) == 60
        for payload in payloads:
            gens = payload["ideal"]["gens"]
            assert 1 <= len(gens) <= 6 and max(map(max, gens)) <= 2
            assert len(payload["cs"]) == 3
            for c, c_small in payload["cs"]:
                assert max(c) <= 3 and all(map(le, c_small, c))

    def test_positive_suite_rejects_zero_constant(self):
        with pytest.raises(ValueError):
            run_suite(SuiteConfig(suite="edge-lq", nmax=2, c_policy="constant", c_value=0))


class TestTheoremSuitesSmall:
    @pytest.mark.parametrize(
        "suite",
        ["edge-lq", "squarefree-lq", "essen", "linres-top", "rfirst",
         "regcol", "deg2", "banerjee-colon", "colon-reg", "regmain"],
    )
    def test_no_counterexamples_small_corpus(self, suite):
        report = run_suite(SuiteConfig(**read_options(suite, nmax=3, max_generators=10, **C2)))
        assert report.failed == 0, report.counterexamples[:1]

    def test_boston_istanbul_small(self):
        for suite in ("boston", "istanbul"):
            report = run_suite(SuiteConfig(suite=suite, random_count=40, seed=2))
            assert report.failed == 0, report.counterexamples[:1]
            assert report.summary["pass"] > 0

    @pytest.mark.parametrize("suite", ["boston", "istanbul"])
    def test_ideal_over_the_cap_is_one_skip(self, suite):
        # a refused ideal stands as one skip record for all its c samples
        report = run_suite(SuiteConfig(suite=suite, random_count=60, seed=3, max_generators=3))
        refused = [r for r in report.records if "refused" in r["detail"]]
        assert refused
        for r in refused:
            assert r["outcome"] == "skip" and r["s"] is None and "|" not in r["key"]
            assert r["detail"] == "linear quotients search refused: 4 generators > cap 3"
            assert not any(q["key"].startswith(r["key"] + "|") for q in report.records)


class TestSRange:
    @pytest.mark.parametrize("suite", ["deg2", "rfirst"])
    def test_no_s_below_delta_is_one_skip(self, tmp_path, suite):
        path = tmp_path / "k2.g6"
        path.write_text(Graph.from_edges(2, [(1, 2)]).to_graph6() + "\n")
        report = run_suite(SuiteConfig(suite=suite, graph6_path=str(path)))
        assert [(r["outcome"], r["s"], r["detail"]) for r in report.records] == [
            ("skip", None, "delta=1: no s with 1 <= s <= delta-1")
        ]

    @pytest.mark.parametrize("suite", GRAPH_SUITES)
    def test_one_chain_build_per_instance(self, level_builds, suite):
        # at most one chain per instance, and in fact exactly one per
        # isomorphism class: 11 labeled graphs on up to 3 vertices, 1 + 2 + 4
        # classes
        report = run_suite(SuiteConfig(**read_options(suite, nmax=3, max_generators=10, **C2)))
        assert len({r["key"] for r in report.records}) == 11
        assert len(level_builds) == report.timings["classes"] == 7

    def test_regcol_computes_each_level_regularity_once(self, monkeypatch):
        seen = []  # keeps every ideal alive, so ids stay unique
        original = homology.regularity

        def recorded(ideal, *args):
            seen.append(ideal)
            return original(ideal, *args)

        # the checks import regularity from homology when they run
        monkeypatch.setattr(homology, "regularity", recorded)
        report = run_suite(SuiteConfig(suite="regcol", nmax=3, **C2))
        assert any(r["s"] == 2 for r in report.records)  # some delta >= 3
        assert len({id(ideal) for ideal in seen}) == len(seen)


class TestCounterexamplePath:
    def test_forced_failure_is_reported(self, monkeypatch):
        # break chordality detection so the equivalence check must fail
        monkeypatch.setattr(Graph, "is_chordal", lambda self: False)
        report = run_suite(SuiteConfig(suite="edge-lq", nmax=2))
        assert report.failed > 0
        assert report.counterexamples
        record = report.counterexamples[0]
        assert record["outcome"] == "fail"
        assert record["instance"]["graph6"]
        assert json.dumps(report.to_dict())  # serializable with payloads

    @staticmethod
    def verify(capsys, argv):
        """``boundedpowers verify ARGV``, in this process: the exit code and
        the report."""
        code = cli.main(["verify", *argv])
        return code, json.loads(capsys.readouterr().out)

    @staticmethod
    def p3(tmp_path):
        """Options for a corpus of P3 at c = 2.  Its delta is 2, so
        banerjee-colon checks s = 1 and colon-reg checks s = 2."""
        path = tmp_path / "P3.g6"
        path.write_text("Bg\n")
        return ["--graph6", str(path), "--c-policy", "constant", "--c-value", "2"]

    def test_banerjee_colon_reports_a_missing_quadric(self, capsys, tmp_path, monkeypatch):
        original = connections.colon_quadrics
        monkeypatch.setattr(connections, "colon_quadrics", lambda graph, c, u: MonomialIdeal(
            graph.n, original(graph, c, u).gens[:-1]))
        code, report = self.verify(capsys, ["--suite", "banerjee-colon", *self.p3(tmp_path)])
        assert code == 1
        assert report["summary"] == {"pass": 0, "fail": 1, "skip": 0, "total": 1}
        assert report["counterexamples"] == [{
            "key": "Bg|2,2,2", "instance": {"graph6": "Bg", "c": [2, 2, 2]}, "s": 1,
            "outcome": "fail",
            "detail": 'u=[0, 1, 1] direct={"n": 3, "gens": [[0, 1, 1], [1, 1, 0]]} '
                      'quadrics={"n": 3, "gens": [[0, 1, 1]]}'}]

    def test_colon_reg_reports_a_regularity_above_the_bound(self, capsys, tmp_path,
                                                            monkeypatch):
        # the check reads regularity from homology when it runs
        original = homology.regularity
        monkeypatch.setattr(homology, "regularity", lambda ideal, char=0: original(ideal, char) + 1)
        code, report = self.verify(capsys, ["--suite", "colon-reg", *self.p3(tmp_path)])
        assert code == 1
        assert report["summary"] == {"pass": 0, "fail": 1, "skip": 0, "total": 1}
        assert report["counterexamples"] == [{
            "key": "Bg|2,2,2", "instance": {"graph6": "Bg", "c": [2, 2, 2]}, "s": 2,
            "outcome": "fail", "detail": "u=[0, 1, 1] reg=3 bound=2"}]

    def test_edge_lq_reports_a_level_without_linear_quotients(self, capsys, monkeypatch):
        # the check searches the instance's own chain through suites' binding
        monkeypatch.setattr(suites, "find_lq_ordering", lambda ideal, *args: None)
        code, report = self.verify(capsys, ["--suite", "edge-lq", "--nmax", "3",
                                            "--c-policy", "constant", "--c-value", "2"])
        assert code == 1
        # every graph on up to 3 vertices has a chordal complement; only the
        # three edgeless ones, with an empty chain, still pass
        assert report["summary"] == {"pass": 3, "fail": 8, "skip": 0, "total": 11}
        assert {r["detail"] for r in report["counterexamples"]} == {
            "all_powers_lq=False complement_chordal=True"}

    def test_edge_lq_stops_at_the_first_level_without_an_ordering(self, tmp_path, monkeypatch):
        # C5 is self-complementary and not chordal, and its edge ideal itself
        # has no linear quotients, so no later level is searched
        sizes = []
        original = suites.find_lq_ordering

        def find(ideal, *args):
            sizes.append(len(ideal.gens))
            return original(ideal, *args)

        monkeypatch.setattr(suites, "find_lq_ordering", find)
        path = tmp_path / "c5.g6"
        path.write_text(cycle_graph(5).to_graph6() + "\n")
        report = run_suite(SuiteConfig(suite="edge-lq", graph6_path=str(path), **C2))
        assert [(r["outcome"], r["detail"]) for r in report.records] == [
            ("pass", "all_powers_lq=False complement_chordal=False")]
        assert sizes == [5]

    def test_istanbul_reports_lost_linear_quotients(self, capsys, monkeypatch):
        # an ordering for the ideal itself, none for any restriction of it
        original = suites.find_lq_ordering

        def find(ideal, *args):
            if sys._getframe(1).f_code.co_name == "_eval_istanbul":
                return None
            return original(ideal, *args)

        monkeypatch.setattr(suites, "find_lq_ordering", find)
        code, report = self.verify(capsys, ["--suite", "istanbul", "--count", "1", "--seed", "3"])
        assert code == 1
        instance = {"index": 0, "ideal": {"n": 2, "gens": [[1, 2], [2, 0]]},
                    "cs": [[[3, 2], [1, 0]], [[3, 3], [3, 1]], [[1, 1], [1, 0]]]}
        assert report["summary"] == {"pass": 0, "fail": 3, "skip": 0, "total": 3}
        assert report["counterexamples"] == [
            {"key": f"ideal00000|c{t}", "instance": instance, "s": t, "outcome": "fail",
             "detail": f"restriction to c={c} lost linear quotients"}
            for t, c in enumerate(["3,2", "3,3", "1,1"])]


def record_order(r):
    return (r["key"], -1 if r["s"] is None else r["s"])


def reference_records(cfg):
    """Every instance of the corpus evaluated on its own, records flattened."""
    _, instances = suites._graph_corpus(cfg)
    evaluate = suites._SUITES[cfg.suite].evaluate
    records = [r for payload in instances for r in evaluate(payload, cfg)]
    return sorted(records, key=record_order)


def relabeled_corpus(tmp_path):
    """Five graphs on 5 vertices, each under four relabelings, one of them
    the identity twice over, so the file also holds exact duplicates."""
    rng = random.Random(17)
    base = [cycle_graph(5), path_graph(5), Graph.from_edges(5, [(1, 2), (2, 3), (1, 3), (3, 4)]),
            Graph.from_edges(5, [(1, 2), (1, 3), (1, 4), (2, 3)]), Graph(5)]
    lines = []
    for graph in base:
        perms = [list(range(1, 6))] * 2 + [rng.sample(range(1, 6), 5) for _ in range(2)]
        for perm in perms:
            edges = [(perm[i - 1], perm[j - 1]) for i, j in graph.edges]
            lines.append(Graph.from_edges(5, edges).to_graph6())
    path = tmp_path / "relabeled.g6"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


CORPORA = {
    "nmax4-ones": dict(nmax=4),
    "nmax4-c2": dict(nmax=4, **C2),
    "random-c": dict(random_count=40, random_nmax=5, seed=3, c_policy="random", c_value=2),
    "relabeled-g6": dict(c_policy="constant", c_value=2),
    "nmax4-random-c": dict(nmax=4, c_policy="random", c_value=2, seed=5),
}


def fail_on_an_edge(monkeypatch):
    """Make deg2 fail every graph with an edge, naming its first edge."""
    def check(inst, s):
        edges = inst.graph.sorted_edges()
        return inst.record(not edges, f"first edge {edges[0]}" if edges else "edgeless")

    monkeypatch.setitem(suites._SUITES, "deg2",
                        suites._SUITES["deg2"]._replace(evaluate=suites._GraphSuite(check)))


class TestIsomorphismMemo:
    @pytest.mark.parametrize("corpus", CORPORA)
    @pytest.mark.parametrize("suite", GRAPH_SUITES)
    def test_records_equal_per_instance_evaluation(self, tmp_path, suite, corpus):
        options = dict(CORPORA[corpus])
        if corpus == "relabeled-g6":
            options["graph6_path"] = relabeled_corpus(tmp_path)
        cfg = SuiteConfig(**read_options(suite, max_generators=10, **options))
        report = run_suite(cfg)
        assert report.records == reference_records(cfg)
        assert report.timings["classes"] < report.timings["instances"]

    @pytest.mark.parametrize("suite", GRAPH_SUITES)
    def test_jobs_2_matches_jobs_1(self, suite):
        base = read_options(suite, nmax=4, max_generators=10, **C2)
        serial = run_suite(SuiteConfig(jobs=1, **base))
        parallel = run_suite(SuiteConfig(jobs=2, **base))
        assert serial.to_json(with_timings=False) == parallel.to_json(with_timings=False)
        assert parallel.timings["classes"] == serial.timings["classes"] == 18

    def test_class_counts_in_timings(self):
        report = run_suite(SuiteConfig(suite="essen", nmax=4))
        assert {k: report.timings[k] for k in
                ("instances", "classes", "reevaluated", "over_budget")} == {
            "instances": 75, "classes": 18, "reevaluated": 0, "over_budget": 0}
        assert "classes" not in report.to_json(with_timings=False)

    @pytest.mark.parametrize("budget", [0, 1])
    @pytest.mark.parametrize("suite", ["regmain", "banerjee-colon"])
    def test_tiny_leaf_budget_gives_the_same_report(self, tmp_path, monkeypatch, suite, budget):
        # a graph6 corpus: the exhaustive corpus at a constant c finds its
        # classes as orbits and never calls canonical_form
        cfg = SuiteConfig(suite=suite, graph6_path=relabeled_corpus(tmp_path), **C2)
        expected = run_suite(cfg).to_json(with_timings=False)
        monkeypatch.setattr(canon, "LEAF_BUDGET", budget)
        report = run_suite(cfg)
        assert report.to_json(with_timings=False) == expected
        over = report.timings["over_budget"]
        assert (over == 20) if budget == 0 else (0 < over < 20)
        assert report.timings["classes"] > 5

    def test_fail_details_stay_with_their_member(self, monkeypatch):
        # a check whose fail detail names a labeled edge: copying the
        # representative's record would give every member the wrong edge
        fail_on_an_edge(monkeypatch)
        cfg = SuiteConfig(suite="deg2", nmax=4, **C2)
        report = run_suite(cfg)
        assert report.records == reference_records(cfg)
        for record in report.counterexamples:
            first = suites.parse_graph6(record["instance"]["graph6"]).sorted_edges()[0]
            assert record["detail"] == f"first edge {first}"
        # 71 instances with an edge, in 14 classes whose other members rerun
        assert len(report.counterexamples) == 71
        assert report.timings["reevaluated"] == 71 - 14


def assert_written_like_json_dumps(report):
    for with_timings in (True, False):
        expected = json.dumps(report.to_dict(with_timings), sort_keys=True, indent=1)
        assert report.to_json(with_timings) == expected


class TestReportWriter:
    @pytest.mark.parametrize("suite", SUITE_NAMES)
    def test_every_suite(self, suite):
        if suite in ("boston", "istanbul"):
            options = dict(suite=suite, random_count=10, seed=3)
        elif suite == "remark45":
            options = dict(suite=suite)
        else:
            options = read_options(suite, nmax=4, **C2)
        assert_written_like_json_dumps(run_suite(SuiteConfig(**options)))

    def test_failing_report(self, monkeypatch):
        fail_on_an_edge(monkeypatch)
        report = run_suite(SuiteConfig(suite="deg2", nmax=4, **C2))
        assert report.failed == len(report.counterexamples) == 71
        assert_written_like_json_dumps(report)

    def test_empty_corpus(self, tmp_path):
        path = tmp_path / "empty.g6"
        path.write_text("")
        report = run_suite(SuiteConfig(suite="regmain", graph6_path=str(path)))
        assert report.records == []
        assert_written_like_json_dumps(report)

    def test_backslash_in_graph6(self):
        # a backslash is graph6 byte 63 + 0b011101, which four-vertex graphs reach
        report = run_suite(SuiteConfig(suite="essen", nmax=4))
        assert any("\\" in record["key"] for record in report.records)
        assert_written_like_json_dumps(report)

    def test_strings_are_escaped(self):
        # quotes, backslashes, control and non-ASCII characters in every
        # string field, and a payload and a record outside the templates
        odd = 'a "b" \\ c\td\n\u00e9\u2603\x1f'
        records = [suites._record(odd, {"graph6": odd, "c": [1, 2]}, "fail", odd, 3),
                   suites._record("k", {"graph6": "A_", "c": []}, odd, "", None),
                   suites._record("k", {"ideal": {"n": 1, "gens": [[1]]}, "c": [1]}, "pass", odd),
                   {"key": odd, "extra": [odd]}]
        report = suites.VerificationReport({"suite": odd, "nested": {"x": [1.5, None]}},
                                           records, records[:1],
                                           {"fail": 1, "pass": 1, "skip": 0, "total": 4},
                                           {"wall_seconds": 0.25, odd: [odd]})
        assert_written_like_json_dumps(report)
