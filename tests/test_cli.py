"""Command-line interface: subcommands, I/O conventions, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import boundedpowers.cli as cli
from boundedpowers.cli import main

REMARK_IDEAL_JSON = '{"n": 5, "gens": [[1,1,1,0,0],[1,0,0,1,1]]}'
P4_JSON = '{"n": 4, "edges": [[1,2],[2,3],[3,4]]}'


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io

        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestIdealCommands:
    def test_restrict(self, tmp_path, capsys):
        src = write(tmp_path, "i.json", '{"n": 2, "gens": [[2,0],[1,1]]}')
        code, out, _ = run(capsys, ["ideal", "restrict", "--c", "1,1", "--in", src])
        assert code == 0
        assert json.loads(out) == {"n": 2, "gens": [[1, 1]]}

    def test_power(self, tmp_path, capsys):
        src = write(tmp_path, "i.json", '{"n": 2, "gens": [[1,1]]}')
        code, out, _ = run(capsys, ["ideal", "power", "--s", "2", "--in", src])
        assert code == 0 and json.loads(out)["gens"] == [[2, 2]]

    def test_colon(self, tmp_path, capsys):
        src = write(tmp_path, "i.json", '{"n": 3, "gens": [[1,1,0],[0,1,1]]}')
        code, out, _ = run(capsys, ["ideal", "colon", "--u", "0,1,0", "--in", src])
        assert code == 0 and json.loads(out)["gens"] == [[0, 0, 1], [1, 0, 0]]

    def test_betti_and_reg(self, tmp_path, capsys):
        src = write(tmp_path, "p4.json", '{"n": 4, "gens": [[1,1,0,0],[0,1,1,0],[0,0,1,1]]}')
        code, out, _ = run(capsys, ["ideal", "betti", "--in", src])
        assert code == 0
        assert json.loads(out) == {"char": 0, "entries": [[0, 2, 3], [1, 3, 2]]}
        code, out, _ = run(capsys, ["ideal", "reg", "--in", src])
        assert code == 0 and json.loads(out) == {"regularity": 2, "char": 0}

    def test_stdin_input(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys, ["ideal", "power", "--s", "2"],
            stdin='{"n": 2, "gens": [[1,1]]}', monkeypatch=monkeypatch,
        )
        assert code == 0 and json.loads(out)["gens"] == [[2, 2]]


class TestGraphCommands:
    def test_match(self, tmp_path, capsys):
        src = write(tmp_path, "g.json", P4_JSON)
        code, out, _ = run(capsys, ["graph", "match", "--in", src])
        assert code == 0 and json.loads(out) == {"matching_number": 2}

    def test_match_on_a_long_path(self, tmp_path, capsys):
        # 1200 vertices: deeper than the interpreter's default recursion limit
        edges = [[i, i + 1] for i in range(1, 1200)]
        src = write(tmp_path, "p1200.json", json.dumps({"n": 1200, "edges": edges}))
        code, out, _ = run(capsys, ["graph", "match", "--in", src])
        assert code == 0 and json.loads(out) == {"matching_number": 600}

    def test_match_on_a_dense_graph(self, tmp_path, capsys):
        # K46: exponential for a branching search over vertex subsets
        edges = [[i, j] for j in range(2, 47) for i in range(1, j)]
        src = write(tmp_path, "k46.json", json.dumps({"n": 46, "edges": edges}))
        code, out, _ = run(capsys, ["graph", "match", "--in", src])
        assert code == 0 and json.loads(out) == {"matching_number": 23}

    def test_chordal_graph6_input(self, tmp_path, capsys):
        src = write(tmp_path, "g.g6", "D?{\n")
        code, out, _ = run(capsys, ["graph", "chordal", "--in", src])
        assert code == 0 and json.loads(out) == {"chordal": True}

    def test_complement(self, tmp_path, capsys):
        src = write(tmp_path, "g.json", P4_JSON)
        code, out, _ = run(capsys, ["graph", "complement", "--in", src])
        assert code == 0
        assert json.loads(out) == {"n": 4, "edges": [[1, 3], [1, 4], [2, 4]]}


class TestOtherCommands:
    def test_delta_ones_policy(self, tmp_path, capsys):
        src = write(tmp_path, "i.json", REMARK_IDEAL_JSON)
        code, out, _ = run(capsys, ["delta", "--c-policy", "ones", "--in", src])
        assert code == 0 and json.loads(out)["delta"] == 1

    def test_delta_on_graph(self, tmp_path, capsys):
        src = write(tmp_path, "g.json", P4_JSON)
        code, out, _ = run(capsys, ["delta", "--c", "1,1,1,1", "--in", src])
        assert code == 0 and json.loads(out)["delta"] == 2

    def test_delta_on_graph6(self, tmp_path, capsys):
        src = write(tmp_path, "p4.g6", "Ch\n")  # the path 1-2-3-4
        code, out, _ = run(capsys, ["delta", "--c", "1,1,1,1", "--in", src])
        assert code == 0 and json.loads(out) == {"delta": 2, "c": [1, 1, 1, 1]}

    def test_lq_check_empty_order(self, capsys, monkeypatch):
        # an empty string is the empty vector: the ordering of the zero ideal
        code, out, _ = run(capsys, ["lq", "check", "--order", ""],
                           stdin='{"n": 1, "gens": []}', monkeypatch=monkeypatch)
        assert code == 0 and json.loads(out) == {"order": [], "valid": True}

    def test_lq_find_zero_ideal(self, capsys, monkeypatch):
        # the zero ideal's ordering () is falsy but found
        code, out, _ = run(capsys, ["lq", "find"],
                           stdin='{"n": 2, "gens": []}', monkeypatch=monkeypatch)
        assert code == 0 and json.loads(out) == {"found": True, "order": []}

    def test_lq_find_and_check(self, tmp_path, capsys):
        src = write(tmp_path, "i.json", REMARK_IDEAL_JSON)
        code, out, _ = run(capsys, ["lq", "find", "--in", src])
        assert code == 0 and json.loads(out) == {"found": False, "order": None}
        src2 = write(tmp_path, "j.json", '{"n": 3, "gens": [[1,1,0],[0,1,1]]}')
        code, out, _ = run(capsys, ["lq", "check", "--order", "1,0", "--in", src2])
        assert code == 0 and json.loads(out)["valid"] is True

    def test_polymatroidal(self, tmp_path, capsys):
        src = write(tmp_path, "i.json", '{"n": 2, "gens": [[2,0],[1,1],[0,2]]}')
        code, out, _ = run(capsys, ["polymatroidal", "--in", src])
        assert code == 0
        assert json.loads(out) == {
            "equigenerated": True,
            "polymatroidal": True,
            "matroidal": False,
        }

    def test_colon_quadrics(self, tmp_path, capsys):
        src = write(tmp_path, "g.json", P4_JSON)
        code, out, _ = run(
            capsys,
            ["colon-quadrics", "--c", "1,1,1,1", "--u", "0,1,1,0", "--in", src],
        )
        assert code == 0 and out.strip() == '{"n": 4, "gens": [[1, 0, 0, 1]]}'

    def test_colon_quadrics_reads_s_off_u(self, tmp_path, capsys):
        # s = deg(u) / 2, so there is no --s to disagree with u
        src = write(tmp_path, "g.json", P4_JSON)
        with pytest.raises(SystemExit) as exit_info:
            main(["colon-quadrics", "--s", "1", "--c", "1,1,1,1", "--u", "0,1,1,0", "--in", src])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --s" in capsys.readouterr().err

    def test_colon_quadrics_at_a_large_power(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys, ["colon-quadrics", "--c", "1000001,1000001", "--u", "1000000,1000000"],
            stdin="A_\n", monkeypatch=monkeypatch,
        )
        assert code == 0 and json.loads(out)["gens"] == [[1, 1]]


class TestVerify:
    def test_passing_suite_exit_zero(self, tmp_path, capsys):
        out_file = tmp_path / "report.json"
        code, _, _ = run(
            capsys,
            ["verify", "--suite", "essen", "--nmax", "3", "--c-policy", "ones",
             "--out", str(out_file)],
        )
        assert code == 0
        report = json.loads(out_file.read_text())
        assert report["summary"]["fail"] == 0
        assert report["config"]["suite"] == "essen"

    def test_counterexample_exit_one(self, capsys, monkeypatch):
        from boundedpowers.suites import VerificationReport

        fake = VerificationReport(
            config={}, records=[], counterexamples=[{"key": "x"}],
            summary={"pass": 0, "fail": 1, "skip": 0, "total": 1},
        )
        monkeypatch.setattr(cli, "run_suite", lambda cfg: fake)
        code, _, _ = run(capsys, ["verify", "--suite", "essen", "--nmax", "2"])
        assert code == 1

    def test_identical_reports_across_runs(self, tmp_path, capsys):
        args = ["verify", "--suite", "deg2", "--nmax", "3", "--c-policy", "constant",
                "--c-value", "2"]
        code1, out1, _ = run(capsys, args)
        code2, out2, _ = run(capsys, args)
        assert code1 == code2 == 0
        strip = lambda text: {k: v for k, v in json.loads(text).items() if k != "timings"}
        assert strip(out1) == strip(out2)


class TestErrorHandling:
    def test_bad_json_exit_two(self, tmp_path, capsys):
        src = write(tmp_path, "bad.json", "{broken")
        code, _, err = run(capsys, ["ideal", "reg", "--in", src])
        assert code == 2 and "error" in err

    def test_graph_fed_to_ideal_command(self, tmp_path, capsys):
        src = write(tmp_path, "g.json", P4_JSON)
        code, _, err = run(capsys, ["ideal", "reg", "--in", src])
        assert code == 2 and "ideal JSON" in err

    def test_malformed_graph6(self, tmp_path, capsys):
        src = write(tmp_path, "bad.g6", "D?\n")
        code, _, err = run(capsys, ["graph", "chordal", "--in", src])
        assert code == 2 and "offset" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["graph", "chordal", "--in", "/nonexistent/x.g6"])
        assert code == 2

    def test_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "not-a-suite"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["ideal", "restrict"],
        ["ideal", "colon"],
        ["lq", "check"],
    ])
    def test_missing_required_flag(self, tmp_path, capsys, argv):
        src = write(tmp_path, "i.json", '{"n": 2, "gens": [[1,1]]}')
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--in", src])
        assert exc.value.code == 2
        assert "requires --" in capsys.readouterr().err

    def test_lq_find_over_cap(self, tmp_path, capsys):
        src = write(tmp_path, "i.json", REMARK_IDEAL_JSON)
        code, _, err = run(capsys, ["lq", "find", "--max-gens", "1", "--in", src])
        assert code == 2 and "cap 1" in err

    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_lq_find_cap_below_one(self, capsys, monkeypatch, cap):
        # the message verify gives for the same flag
        for ideal in ('{"n": 2, "gens": []}', REMARK_IDEAL_JSON):
            code, out, err = run(capsys, ["lq", "find", "--max-gens", cap],
                                 stdin=ideal, monkeypatch=monkeypatch)
            assert code == 2 and out == ""
            assert f"max_generators must be >= 1, got {cap}" in err
        code, _, err = run(capsys, ["verify", "--suite", "edge-lq", "--nmax", "2",
                                    "--max-gens", cap])
        assert code == 2 and f"max_generators must be >= 1, got {cap}" in err

    @pytest.mark.parametrize("char", ["1", "4", "-2"])
    def test_composite_characteristic(self, tmp_path, capsys, char):
        src = write(tmp_path, "i.json", '{"n": 2, "gens": [[1,1]]}')
        for argv in (["ideal", "reg", "--in", src],
                     ["verify", "--suite", "regmain", "--nmax", "2"]):
            code, _, err = run(capsys, argv + ["--char", char])
            assert code == 2 and "0 or a prime" in err

    @pytest.mark.parametrize("max_s", ["0", "-3"])
    def test_nonpositive_max_s(self, capsys, max_s):
        code, out, err = run(capsys, ["verify", "--suite", "regmain", "--nmax", "3",
                                      "--c-policy", "constant", "--c-value", "2",
                                      "--max-s", max_s])
        assert code == 2 and "max_s must be >= 1" in err and out == ""

    @pytest.mark.parametrize("argv", [
        ["--count", "5", "--c-policy", "random", "--c-value", "0"],
        ["--count", "5", "--c-policy", "random", "--c-value", "-1"],
        ["--nmax", "0"],
        ["--nmax", "-2"],
        ["--count", "0"],
    ])
    def test_undrawable_bound_or_empty_corpus(self, capsys, monkeypatch, argv):
        # the random draws would loop forever on c = 0, and the empty corpora
        # would verify nothing: the command must stop before any run starts
        def no_run(cfg):
            raise AssertionError(f"a run started for {cfg}")

        monkeypatch.setattr(cli, "run_suite", no_run)
        code, out, err = run(capsys, ["verify", "--suite", "regmain"] + argv)
        assert code == 2 and ">= 1" in err and out == ""

    def test_nmax_above_the_enumeration_cap(self, capsys, monkeypatch):
        def no_run(cfg):
            raise AssertionError(f"a run started for {cfg}")

        monkeypatch.setattr(cli, "run_suite", no_run)
        code, out, err = run(capsys, ["verify", "--suite", "edge-lq", "--nmax", "8"])
        assert code == 2 and "nmax must be <= 7, got 8" in err and out == ""

    @pytest.mark.parametrize("argv, message", [
        (["--suite", "regmain", "--random-nmax", "-5"], "random_nmax must be >= 2"),
        (["--suite", "regmain", "--random-nmax", "1"], "random_nmax must be >= 2"),
        (["--suite", "boston", "--random-nmax", "0"], "random_nmax must be >= 1"),
    ])
    def test_random_nmax_out_of_domain(self, capsys, monkeypatch, argv, message):
        # a random graph has at least two vertices, a random ideal one variable
        def no_run(cfg):
            raise AssertionError(f"a run started for {cfg}")

        monkeypatch.setattr(cli, "run_suite", no_run)
        code, out, err = run(capsys, ["verify", "--count", "3"] + argv)
        assert code == 2 and message in err and out == ""

    @pytest.mark.parametrize("argv", [
        ["--suite", "regmain", "--nmax", "3", "--count", "2",
         "--c-policy", "constant", "--c-value", "2"],
        ["--suite", "essen", "--nmax", "2", "--c", "5,5"],
        ["--suite", "istanbul", "--graph6", "k2.g6", "--count", "1"],
        ["--suite", "istanbul", "--graph6", "k2.g6"],
        ["--suite", "remark45", "--nmax", "2"],
        ["--suite", "boston", "--count", "3", "--c-policy", "constant", "--c-value", "3",
         "--max-s", "1"],
        ["--suite", "boston", "--count", "3", "--c-policy", "constant", "--c-value", "3"],
        ["--suite", "essen", "--nmax", "3", "--max-s", "1"],
        ["--suite", "remark45", "--c-policy", "constant", "--c-value", "3"],
        ["--suite", "squarefree-lq", "--nmax", "3", "--c-policy", "constant", "--c-value", "2"],
        ["--suite", "boston", "--count", "3", "--char", "3"],
        ["--suite", "remark45", "--max-gens", "3"],
        ["--suite", "regmain", "--nmax", "3", "--random-nmax", "9"],
        ["--suite", "regmain", "--nmax", "3", "--max-gens", "3"],
        ["--suite", "regmain", "--nmax", "3", "--seed", "5"],
        ["--suite", "regmain", "--nmax", "3", "--c-value", "5"],
        ["--suite", "essen", "--nmax", "3", "--char", "5"],
        ["--suite", "edge-lq", "--nmax", "3", "--c-policy", "constant", "--c-value", "2",
         "--char", "3"],
    ])
    def test_ignored_flag_is_refused(self, tmp_path, capsys, monkeypatch, argv):
        # the run would ignore the flag while the report echoed it
        monkeypatch.chdir(tmp_path)
        write(tmp_path, "k2.g6", "A_\n")
        code, out, err = run(capsys, ["verify"] + argv)
        assert code == 2 and err.startswith("error: ") and out == ""
        assert "Traceback" not in err

    def test_max_s_below_the_s_range_reports_skips(self, capsys):
        code, out, _ = run(capsys, ["verify", "--suite", "colon-reg", "--nmax", "4",
                                    "--c-policy", "constant", "--c-value", "2",
                                    "--max-s", "1"])
        assert code == 0
        assert json.loads(out)["summary"] == {"pass": 0, "fail": 0, "skip": 75, "total": 75}

    def test_delta_without_a_bound(self, tmp_path, capsys):
        src = write(tmp_path, "g.json", P4_JSON)
        code, _, err = run(capsys, ["delta", "--in", src])
        assert code == 2 and "delta needs --c or --c-policy ones" in err

    @pytest.mark.parametrize("argv, text", [
        (["ideal", "restrict", "--c", "1,,1"], '{"n": 2, "gens": [[1, 1]]}'),
        (["lq", "check", "--order", "0,,"], '{"n": 2, "gens": [[1, 1]]}'),
        (["colon-quadrics", "--c", "1,1,1,1", "--u", "0,1,1,"], P4_JSON),
    ])
    def test_empty_vector_entry(self, capsys, monkeypatch, argv, text):
        code, out, err = run(capsys, argv, stdin=text, monkeypatch=monkeypatch)
        assert code == 2 and out == ""
        assert "cannot parse integer vector" in err and "Traceback" not in err

    @pytest.mark.parametrize("command, text", [
        (["ideal", "reg"], '{"n": true, "gens": [[1]]}'),
        (["ideal", "reg"], '{"n": 2, "gens": [[true, 1]]}'),
        (["graph", "chordal"], '{"n": 2, "edges": [[true, 2]]}'),
        (["delta", "--c", "1"], '{"n": true, "gens": [[1]]}'),
    ])
    def test_json_booleans_are_not_integers(self, capsys, monkeypatch, command, text):
        code, out, err = run(capsys, command, stdin=text, monkeypatch=monkeypatch)
        assert code == 2 and out == "" and "must look like" in err

    @pytest.mark.parametrize("command, text", [
        (["ideal", "reg"], '{"n":2,"gens":[1]}'),
        (["ideal", "reg"], '{"n":2,"gens":[[1,"a"]]}'),
        (["graph", "chordal"], '{"n":3,"edges":[1]}'),
    ])
    def test_malformed_json_shape(self, capsys, monkeypatch, command, text):
        code, _, err = run(capsys, command, stdin=text, monkeypatch=monkeypatch)
        assert code == 2 and "must look like" in err

    GRAPH_COMMANDS = [
        ["graph", "complement"],
        ["delta", "--c", "1,1,1"],
        ["colon-quadrics", "--c", "1,1,1", "--u", "1,1,0"],
    ]

    @pytest.mark.parametrize("command", GRAPH_COMMANDS)
    def test_non_ascii_graph6(self, capsys, monkeypatch, command):
        code, out, err = run(capsys, command, stdin="Bé\n", monkeypatch=monkeypatch)
        assert code == 2 and out == ""
        assert "outside graph6 range" in err and "byte offset 1" in err

    @pytest.mark.parametrize("command", GRAPH_COMMANDS)
    def test_second_graph6_line(self, capsys, monkeypatch, command):
        code, out, err = run(capsys, command, stdin="A_\n\nBw\n", monkeypatch=monkeypatch)
        assert code == 2 and out == ""
        assert "expected one graph6 line, got 2 non-empty lines" in err

    @pytest.mark.parametrize("bad, message", [
        (b"A@", "nonzero padding bits (line 3, byte offset 1)"),
        ("Bé".encode("utf-8"), "character '\\udcc3' outside graph6 range 63..126 "
                               "(line 3, byte offset 1)"),
    ])
    def test_bad_corpus_line_is_named(self, tmp_path, capsys, bad, message):
        corpus = tmp_path / "bad.g6"
        corpus.write_bytes(b"A_\n\n" + bad + b"\nBw\n")
        code, out, err = run(capsys, ["verify", "--suite", "deg2", "--graph6", str(corpus)])
        assert code == 2 and out == "" and message in err

    @pytest.mark.parametrize("command", GRAPH_COMMANDS)
    def test_control_bytes_in_graph6(self, capsys, monkeypatch, command):
        # str.splitlines and str.strip would drop 0x1c and read K2
        code, out, err = run(capsys, command, stdin="\x1cA_\n", monkeypatch=monkeypatch)
        assert code == 2 and out == ""
        assert "outside graph6 range" in err and "byte offset 0" in err

    def test_graph6_offset_counts_from_the_start_of_the_line(self, capsys, monkeypatch):
        code, out, err = run(capsys, ["graph", "complement"], stdin="\n  A@\n",
                             monkeypatch=monkeypatch)
        assert code == 2 and out == "" and "nonzero padding bits (byte offset 3)" in err

    def test_blank_lines_around_one_graph6_line(self, capsys, monkeypatch):
        code, out, _ = run(capsys, ["graph", "complement"], stdin="\nA_\n\n  \n",
                           monkeypatch=monkeypatch)
        assert code == 0 and json.loads(out) == {"n": 2, "edges": []}


    @pytest.mark.parametrize("crash", [RuntimeError("boom"), MemoryError()],
                             ids=["RuntimeError", "MemoryError"])
    def test_a_crash_exits_three_not_one(self, capsys, monkeypatch, crash):
        # exit 1 means a counterexample was found, so a crash must not give it
        def run_suite(config):
            raise crash

        monkeypatch.setattr(cli, "run_suite", run_suite)
        code, out, err = run(capsys, ["verify", "--suite", "remark45"])
        assert code == 3 and out == ""
        assert "Traceback" in err and type(crash).__name__ in err

    def test_keyboard_interrupt_is_not_caught(self, monkeypatch):
        def run_suite(config):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "run_suite", run_suite)
        with pytest.raises(KeyboardInterrupt):
            main(["verify", "--suite", "remark45"])


class TestStartup:
    def test_import_leaves_the_process_pool_out(self):
        # a --jobs 1 run never uses the pool, so it must not pay at every
        # start for importing it and multiprocessing
        src = Path(cli.__file__).resolve().parents[1]
        code = "import sys, boundedpowers.cli; print('concurrent.futures' in sys.modules)"
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                env=dict(os.environ, PYTHONPATH=str(src)), timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"

    # suite -> (a layer its checks call, layers it must not load)
    LAYERS = {
        "edge-lq": ("linquot", {"homology", "connections", "polymatroid"}),
        "banerjee-colon": ("connections", {"homology", "polymatroid"}),
        "regmain": ("homology", {"connections", "polymatroid"}),
        "deg2": ("powers", {"homology", "connections", "polymatroid"}),
    }

    @pytest.mark.parametrize("suite", LAYERS)
    def test_a_suite_loads_only_the_layers_it_runs(self, suite):
        # every module a process loads is compiled at its start when no
        # bytecode is cached; dataclasses would also load inspect, about
        # 20 ms more on every run
        src = Path(cli.__file__).resolve().parents[1]
        argv = ["verify", "--suite", suite, "--nmax", "3", "--c-policy", "constant",
                "--c-value", "2", "--out", os.devnull]
        code = (f"import sys, boundedpowers.cli; code = boundedpowers.cli.main({argv!r}); "
                "print(code, *sorted(m.split('.')[1] for m in sys.modules "
                "if m.startswith('boundedpowers.')), "
                "*sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                env=dict(os.environ, PYTHONPATH=str(src)), timeout=60)
        assert result.returncode == 0, result.stderr
        exit_code, *loaded = result.stdout.split()
        used, unused = self.LAYERS[suite]
        assert exit_code == "0" and used in loaded
        assert not (unused | {"dataclasses", "inspect"}) & set(loaded), loaded
