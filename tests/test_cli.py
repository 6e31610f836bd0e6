import ast
import io
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from transub import (
    DENSE_VERTEX_BUDGET,
    BudgetError,
    ParseError,
    PreconditionError,
    Relation,
    TriangleFoundError,
    cli,
    errors,
    extremal,
    parse_edge_list,
    parse_matrix,
    parse_relation,
    relation,
)
from transub.cli import (
    EXIT_BUDGET,
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_USAGE,
    EXIT_VERIFY,
    main,
)

PATH_EDGE_LIST = "3 2\n1 2\n2 3\n"
NOT_UTF8 = b"\xff\xfe3 2\n1 2\n2 3\n"
CYCLE_EDGE_LIST = "3 3\n1 2\n2 3\n3 1\n"


@pytest.fixture
def path_file(tmp_path):
    p = tmp_path / "path.rel"
    p.write_text(PATH_EDGE_LIST)
    return str(p)


@pytest.fixture
def cycle_file(tmp_path):
    p = tmp_path / "cycle.rel"
    p.write_text(CYCLE_EDGE_LIST)
    return str(p)


class TestMaximal:
    def test_verified_run_writes_result(self, path_file, tmp_path, capsys):
        out = tmp_path / "out.rel"
        code = main(["maximal", "--input", path_file, "--algorithm", "v2",
                     "--verify", "--output", str(out)])
        assert code == EXIT_OK
        assert parse_edge_list(out.read_text()).arcs() == [(1, 2)]
        report = capsys.readouterr().err
        assert "transitive:pass" in report and "maximal:pass" in report

    def test_transitive_input_round_trips(self, tmp_path, capsys):
        src = tmp_path / "t.rel"
        src.write_text("3 3\n1 2\n1 3\n2 3\n")
        code = main(["maximal", "--input", str(src), "--algorithm", "v1", "--verify"])
        assert code == EXIT_OK
        assert capsys.readouterr().out == "3 3\n1 2\n1 3\n2 3\n"

    def test_empty_input(self, tmp_path, capsys):
        src = tmp_path / "e.rel"
        src.write_text("2 0\n")
        assert main(["maximal", "--input", str(src)]) == EXIT_OK
        assert capsys.readouterr().out == "2 0\n"

    def test_matrix_format_preserved(self, tmp_path, capsys):
        src = tmp_path / "m.rel"
        src.write_text("010\n001\n000\n")
        assert main(["maximal", "--input", str(src)]) == EXIT_OK
        assert capsys.readouterr().out == "010\n000\n000\n"

    def test_json_report(self, path_file, capsys):
        assert main(["maximal", "--input", path_file, "--verify", "--json"]) == EXIT_OK
        captured = capsys.readouterr()
        report = json.loads(captured.err)
        assert report["command"] == "maximal"
        assert report["n"] == 3 and report["m"] == 2 and report["result_size"] == 1
        assert all(check["pass"] for check in report["checks"])
        assert isinstance(report["wall_time_ns"], int)


class TestMaximum:
    def test_exact_cycle(self, cycle_file, capsys):
        assert main(["maximum", "--input", cycle_file, "--mode", "exact"]) == EXIT_OK
        assert parse_edge_list(capsys.readouterr().out).arcs() == [(1, 2)]

    def test_quarter_check_recorded(self, cycle_file, capsys):
        assert main(["maximum", "--input", cycle_file, "--mode", "quarter"]) == EXIT_OK
        captured = capsys.readouterr()
        assert "size_ge_quarter:pass" in captured.err

    @pytest.mark.parametrize("text, out", [
        ("5 9\n1 4\n2 1\n2 4\n3 1\n3 2\n4 1\n4 5\n5 2\n5 4\n", "5 4\n1 4\n3 2\n5 2\n5 4\n"),
        ("6 17\n1 3\n1 4\n1 5\n2 1\n2 6\n3 4\n3 5\n4 1\n4 5\n4 6\n5 1\n5 2\n5 3\n5 4\n"
         "5 6\n6 3\n6 4\n", "6 7\n1 3\n1 4\n5 2\n5 3\n5 4\n6 3\n6 4\n"),
        ("1 1\n1 1\n", "1 1\n1 1\n"),
    ], ids=["2-cycles-n5", "2-cycles-n6", "loop"])
    def test_quarter_floor_with_two_cycles_and_loops(self, tmp_path, capsys, text, out):
        # the plain greedy cut keeps fewer than m/4 arcs of these inputs
        src = tmp_path / "in.rel"
        src.write_text(text)
        assert main(["maximum", "--input", str(src), "--mode", "quarter", "--verify"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out == out
        assert "size_ge_quarter:pass" in captured.err

    def test_dicut_local_out_star(self, tmp_path, capsys):
        src = tmp_path / "star.rel"
        src.write_text("4 3\n1 2\n1 3\n1 4\n")
        for seed in ("0", "1", "7"):
            code = main(["maximum", "--input", str(src), "--mode", "dicut-local",
                         "--seed", seed])
            assert code == EXIT_OK
            assert parse_edge_list(capsys.readouterr().out).m == 3

    def test_dicut_exact(self, cycle_file, capsys):
        assert main(["maximum", "--input", cycle_file, "--mode", "dicut-exact"]) == EXIT_OK
        assert parse_edge_list(capsys.readouterr().out).m == 1

    def test_dicut_local_verify_builds_no_matrix(self, tmp_path, monkeypatch, capsys):
        parsed = []

        def parse_and_keep(text):
            parsed.append(parse_relation(text))
            return parsed[-1]

        monkeypatch.setattr(cli, "parse_relation", parse_and_keep)
        # The route table prices the lookup of the containment check lower on
        # this sparse pair; on a few vertices the matrix test is the cheaper.
        src = tmp_path / "r.rel"
        src.write_text("100 100\n" + "".join(f"{v} {v % 100 + 1}\n" for v in range(1, 101)))
        argv = ["maximum", "--input", str(src), "--mode", "dicut-local", "--verify"]
        assert main(argv) == EXIT_OK
        assert "checks=transitive:pass,contained:pass " in capsys.readouterr().err
        (r, fmt), = parsed
        assert fmt == "edge-list" and r._adj is None

    def test_budget_exit(self, tmp_path, capsys):
        arcs = [(i, j) for i in range(1, 7) for j in range(1, 7) if i != j]
        src = tmp_path / "big.rel"
        src.write_text(f"6 {len(arcs)}\n" + "".join(f"{u} {v}\n" for u, v in arcs))
        assert main(["maximum", "--input", str(src), "--mode", "exact"]) == EXIT_BUDGET
        assert "budget" in capsys.readouterr().err

    def test_dicut_local_over_arc_limit(self, cycle_file, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_LOCAL_SEARCH_ARC_BUDGET", 3)
        assert main(["maximum", "--input", cycle_file, "--mode", "dicut-local"]) == EXIT_OK
        monkeypatch.setattr(cli, "_LOCAL_SEARCH_ARC_BUDGET", 2)
        capsys.readouterr()
        matrix = tmp_path / "cycle.mat"
        matrix.write_text("010\n001\n100\n")
        parsed = []

        def parse_and_keep(text):
            parsed.append(parse_relation(text))
            return parsed[-1]

        monkeypatch.setattr(cli, "parse_relation", parse_and_keep)
        for path in (cycle_file, str(matrix)):
            argv = ["maximum", "--input", path, "--mode", "dicut-local", "--verify"]
            assert main(argv) == EXIT_BUDGET
            assert capsys.readouterr() == (
                "", "budget error: 3 arcs exceeds the dicut-local limit of 2\n"
            )
        assert parsed[-1][0]._codes is None  # the matrix's arc view was not built

    def test_dicut_exact_budget_exit(self, tmp_path, capsys):
        src = tmp_path / "wide.rel"
        src.write_text("21 2\n1 2\n20 21\n")
        assert main(["maximum", "--input", str(src), "--mode", "dicut-exact"]) == EXIT_BUDGET
        assert capsys.readouterr() == (
            "", "budget error: 21 vertices exceeds the enumeration budget of 20\n"
        )

    @pytest.mark.parametrize("command", ["maximal", "closure", "check", "encode"])
    def test_seed_only_where_read(self, command, path_file):
        with pytest.raises(SystemExit) as exc:
            main([command, "--input", path_file, "--seed", "1"])
        assert exc.value.code == 2


class TestClosureAndCheck:
    def test_closure_of_cycle_is_full(self, cycle_file, capsys):
        assert main(["closure", "--input", cycle_file]) == EXIT_OK
        assert parse_edge_list(capsys.readouterr().out).m == 9

    def test_closure_failing_its_check_is_verify_exit(self, cycle_file, monkeypatch, capsys):
        def broken_closure(r):
            return Relation.from_arcs(r.n, [(1, 2), (2, 3)])

        monkeypatch.setattr(cli, "transitive_closure", broken_closure)
        assert main(["closure", "--input", cycle_file]) == EXIT_VERIFY
        captured = capsys.readouterr()
        assert captured.out == "3 2\n1 2\n2 3\n"  # the result is still written
        assert "checks=transitive:fail,contains_input:fail " in captured.err

    def test_closure_over_output_limit(self, cycle_file, tmp_path, monkeypatch, capsys):
        out = tmp_path / "out.rel"
        monkeypatch.setattr(cli, "_CLOSURE_ARC_BUDGET", 9)
        assert main(["closure", "--input", cycle_file, "--output", str(out)]) == EXIT_OK
        monkeypatch.setattr(cli, "_CLOSURE_ARC_BUDGET", 8)
        out.unlink()
        capsys.readouterr()
        assert main(["closure", "--input", cycle_file, "--output", str(out)]) == EXIT_BUDGET
        assert not out.exists()
        assert capsys.readouterr() == (
            "", "budget error: closure of 9 arcs exceeds the edge-list output limit of 8\n"
        )
        matrix = tmp_path / "cycle.mat"
        matrix.write_text("010\n001\n100\n")  # a matrix costs n^2 bytes at any size
        assert main(["closure", "--input", str(matrix)]) == EXIT_OK
        assert capsys.readouterr().out == "111\n111\n111\n"

    def test_check_transitive_verdict(self, tmp_path, capsys):
        src = tmp_path / "t.rel"
        src.write_text("2 1\n1 2\n")
        assert main(["check", "--input", str(src)]) == EXIT_OK
        src.write_text("3 2\n1 2\n2 3\n")
        assert main(["check", "--input", str(src)]) == EXIT_CHECK_FAILED

    def test_check_output_is_accepted_and_never_written(self, path_file, tmp_path, capsys):
        out = tmp_path / "never.rel"
        assert main(["check", "--input", path_file, "--output", str(out)]) == EXIT_CHECK_FAILED
        assert not out.exists() and capsys.readouterr().out == ""
        with pytest.raises(SystemExit):
            main(["check", "--help"])
        assert "--output is accepted and never written" in " ".join(capsys.readouterr().out.split())

    def test_check_sub_maximality(self, path_file, tmp_path, capsys):
        sub = tmp_path / "sub.rel"
        sub.write_text("3 1\n1 2\n")
        assert main(["check", "--input", path_file, "--sub", str(sub)]) == EXIT_OK
        sub.write_text("3 0\n")
        assert main(["check", "--input", path_file, "--sub", str(sub)]) == EXIT_CHECK_FAILED
        assert "maximal:fail" in capsys.readouterr().err

    @pytest.mark.parametrize("candidate, checks", [
        ("3 1\n1 3\n", "contained:fail,transitive:pass,maximal:fail"),
        ("3 2\n1 2\n2 3\n", "contained:pass,transitive:fail,maximal:fail"),
        ("2 1\n1 2\n", "contained:fail,transitive:pass,maximal:fail"),
    ])
    def test_check_sub_rejected_precondition(self, path_file, tmp_path, capsys, candidate, checks):
        sub = tmp_path / "sub.rel"
        sub.write_text(candidate)
        assert main(["check", "--input", path_file, "--sub", str(sub)]) == EXIT_CHECK_FAILED
        assert f"checks={checks} " in capsys.readouterr().err

    def test_check_sub_times_only_the_verdicts(self, path_file, tmp_path, monkeypatch, capsys):
        # Both files are read and parsed before the clock starts.
        events = []
        parse, timed = cli.parse_relation, cli._timed

        def logged_parse(text):
            events.append("parse")
            return parse(text)

        def logged_timed(fn, *args, **kwargs):
            events.append("start")
            out = timed(fn, *args, **kwargs)
            events.append("stop")
            return out

        monkeypatch.setattr(cli, "parse_relation", logged_parse)
        monkeypatch.setattr(cli, "_timed", logged_timed)
        sub = tmp_path / "sub.rel"
        sub.write_text("3 1\n1 2\n")
        assert main(["check", "--input", path_file, "--sub", str(sub)]) == EXIT_OK
        assert events == ["parse", "parse", "start", "stop"]
        assert "checks=contained:pass,transitive:pass,maximal:pass " in capsys.readouterr().err


class TestInvalidUtf8:
    def test_file_is_parse_error(self, tmp_path, capsys):
        src = tmp_path / "bad.rel"
        src.write_bytes(NOT_UTF8)
        assert main(["check", "--input", str(src)]) == EXIT_PARSE
        assert "UTF-8" in capsys.readouterr().err

    def test_stdin_is_parse_error(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(NOT_UTF8)))
        assert main(["check", "--input", "-"]) == EXIT_PARSE
        assert "UTF-8" in capsys.readouterr().err


class TestInputByteLimit:
    """Past ``cli._INPUT_BYTE_BUDGET`` bytes an input exits 4: a file by its
    size before it is read, standard input after one byte over the limit."""

    GARBAGE = b"not a relation\n"  # exit 3 when read

    def test_file_over_the_limit_is_never_read(self, tmp_path, path_file, capsys):
        # A sparse file one byte over the real limit, as input and as --sub:
        # reading it would allocate the whole limit.
        src = tmp_path / "huge.rel"
        with open(src, "wb") as f:
            f.truncate(cli._INPUT_BYTE_BUDGET + 1)
        for argv in (["--input", str(src)], ["--input", path_file, "--sub", str(src)]):
            tracemalloc.start()
            try:
                status = main(["check", *argv])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert status == EXIT_BUDGET and peak < 2 << 20, f"{peak / 2**20:.1f} MiB"
            assert capsys.readouterr().err == (
                f"budget error: input of at least {cli._INPUT_BYTE_BUDGET + 1} bytes exceeds "
                f"the input limit of {cli._INPUT_BYTE_BUDGET}\n"
            )

    def test_file_over_a_small_limit(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_INPUT_BYTE_BUDGET", len(self.GARBAGE) - 1)
        src = tmp_path / "garbage.rel"
        src.write_bytes(self.GARBAGE)
        assert main(["check", "--input", str(src)]) == EXIT_BUDGET
        assert capsys.readouterr().err == (
            f"budget error: input of at least {len(self.GARBAGE)} bytes exceeds the input "
            f"limit of {len(self.GARBAGE) - 1}\n"
        )
        monkeypatch.setattr(cli, "_INPUT_BYTE_BUDGET", len(self.GARBAGE))
        assert main(["check", "--input", str(src)]) == EXIT_PARSE

    def test_stdin_is_read_one_byte_past_the_limit(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_INPUT_BYTE_BUDGET", 4)
        stdin = io.BytesIO(self.GARBAGE)
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(stdin))
        assert main(["check", "--input", "-"]) == EXIT_BUDGET
        assert stdin.tell() == 5
        assert capsys.readouterr().err == (
            "budget error: input of at least 5 bytes exceeds the input limit of 4\n"
        )

    def test_inputs_at_the_limit_are_read(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_INPUT_BYTE_BUDGET", len(PATH_EDGE_LIST))
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(PATH_EDGE_LIST.encode())))
        src = tmp_path / "path.rel"
        src.write_text(PATH_EDGE_LIST)
        for path in ("-", str(src)):
            assert main(["check", "--input", path]) == EXIT_CHECK_FAILED
            assert "checks=transitive:fail,path_length_two:pass " in capsys.readouterr().err


class TestFuzzedInput:
    @settings(max_examples=60)
    @given(st.one_of(st.binary(max_size=40), st.text(alphabet="012 \n#", max_size=30).map(str.encode)))
    @example(NOT_UTF8)
    @example(b"2 1\n1 2\n")
    def test_exit_status_follows_parse_verdict(self, tmp_path_factory, data):
        src = tmp_path_factory.getbasetemp() / "fuzz.rel"
        src.write_bytes(data)
        try:
            parse_relation(data.decode("utf-8"))
            expected = {EXIT_OK, EXIT_CHECK_FAILED}
        except (UnicodeDecodeError, ParseError):
            expected = {EXIT_PARSE}
        except BudgetError:
            expected = {EXIT_BUDGET}
        assert main(["check", "--input", str(src)]) in expected


class TestHugeHeader:
    def test_budget_exit_states_limit(self, tmp_path, capsys):
        src = tmp_path / "huge.rel"
        src.write_text("1000000 0\n")
        assert main(["check", "--input", str(src)]) == EXIT_BUDGET
        err = capsys.readouterr().err
        assert "1000000 vertices" in err and str(DENSE_VERTEX_BUDGET) in err

    def test_matrix_rows_over_budget(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(relation, "DENSE_VERTEX_BUDGET", 3)
        assert parse_matrix("010\n001\n000\n").m == 2
        text = "0110\n0011\n1001\n0100\n"
        with pytest.raises(BudgetError, match="4 vertices exceeds the dense limit of 3"):
            parse_matrix(text)
        src = tmp_path / "m.rel"
        src.write_text(text)
        assert main(["check", "--input", str(src)]) == EXIT_BUDGET
        assert capsys.readouterr().err == "budget error: 4 vertices exceeds the dense limit of 3\n"


class TestLimitCheck:
    """Every limit is checked by ``errors._check_limit``, which states the limit."""

    def test_raises_only_past_the_limit(self):
        errors._check_limit(3, 3, "{} arcs exceeds the test limit")
        with pytest.raises(BudgetError) as exc:
            errors._check_limit(4, 3, "{} arcs exceeds the test limit")
        assert str(exc.value) == "4 arcs exceeds the test limit of 3"

    def test_only_the_helper_raises_budget_errors(self):
        package = Path(errors.__file__).parent
        raisers = [
            f"{path.name}:{node.lineno}"
            for path in sorted(package.glob("*.py")) if path.name != "errors.py"
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
            and getattr(node.exc.func, "id", None) == "BudgetError"
        ]
        assert raisers == []


class TestErrorExits:
    """An error raised by a subcommand leaves one stderr line, the prefix of
    the first ``cli._ERROR_EXITS`` row whose class it is an instance of and
    its message, and exits with that row's status."""

    def test_rows_in_match_order(self):
        assert cli._ERROR_EXITS == (
            (ParseError, "parse error", EXIT_PARSE),
            (BudgetError, "budget error", EXIT_BUDGET),
            (PreconditionError, "precondition error", EXIT_CHECK_FAILED),
            (ValueError, "error", EXIT_USAGE),
            (OSError, "i/o error", EXIT_CHECK_FAILED),
        )

    @pytest.mark.parametrize("error, row, line, status", [
        (ParseError("bad token", 2), 0, "parse error: line 2: bad token", EXIT_PARSE),
        (BudgetError("5 arcs exceeds the test limit of 4"), 1,
         "budget error: 5 arcs exceeds the test limit of 4", EXIT_BUDGET),
        (PreconditionError("vertex count mismatch: 2 != 3"), 2,
         "precondition error: vertex count mismatch: 2 != 3", EXIT_CHECK_FAILED),
        (TriangleFoundError((1, 2, 3)), 2,
         "precondition error: underlying graph contains triangle (1, 2, 3)", EXIT_CHECK_FAILED),
        (ValueError("delta must be non-negative"), 3,
         "error: delta must be non-negative", EXIT_USAGE),
        (FileNotFoundError(2, "No such file or directory", "gone.rel"), 4,
         "i/o error: [Errno 2] No such file or directory: 'gone.rel'", EXIT_CHECK_FAILED),
    ], ids=["parse", "budget", "precondition", "triangle", "value", "os"])
    def test_subcommand_error_exits_by_its_row(self, error, row, line, status, path_file,
                                               monkeypatch, capsys):
        # ``row`` is the first row whose class the error is an instance of.
        assert cli._ERROR_EXITS[row][1:] == (line.split(":")[0], status)

        def fail(args):
            raise error

        monkeypatch.setattr(cli, "_load_relation", fail)
        assert main(["check", "--input", path_file]) == status
        assert capsys.readouterr() == ("", line + "\n")


class TestEncode:
    def test_path_dimacs(self, path_file, capsys):
        assert main(["encode", "--input", path_file]) == EXIT_OK
        assert capsys.readouterr().out == (
            "c var 1 = arc 1 2\nc var 2 = arc 2 3\np cnf 2 1\n-1 -2 0\n"
        )

    def test_empty(self, tmp_path, capsys):
        src = tmp_path / "e.rel"
        src.write_text("3 0\n")
        assert main(["encode", "--input", src.as_posix()]) == EXIT_OK
        assert capsys.readouterr().out == "p cnf 0 0\n"

    def test_parse_error_exit(self, tmp_path, capsys):
        src = tmp_path / "bad.rel"
        src.write_text("nonsense here today\n")
        assert main(["encode", "--input", str(src)]) == EXIT_PARSE

    def test_walk_budget_exit(self, tmp_path, capsys):
        # A hub with 1001 in-arcs and 1001 out-arcs has 1001^2 two-arc walks.
        k, hub = 1001, 2003
        arcs = [(i, hub) for i in range(1, k + 1)] + [(hub, k + i) for i in range(1, k + 1)]
        src = tmp_path / "star.rel"
        src.write_text(f"{hub} {2 * k}\n" + "".join(f"{u} {v}\n" for u, v in arcs))
        assert main(["encode", "--input", str(src)]) == EXIT_BUDGET
        assert capsys.readouterr() == (
            "", "budget error: 1002001 two-arc walks exceeds the encoding budget of 1000000\n"
        )


class TestExperiment:
    def test_zero_trials_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--n", "4", "--m", "4", "--trials", "0"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "flag, message",
        [
            ("--delta", "error: delta must be non-negative, got nan\n"),
            ("--cprime", "error: cprime must be a number, got nan\n"),
        ],
    )
    def test_nan_parameter_is_usage_error(self, flag, message, capsys):
        argv = ["experiment", "--n", "4", "--m", "4", "--trials", "1", flag, "nan"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", message)

    @pytest.mark.parametrize("n, m", [("0", "0"), ("0", "5"), ("-10", "100"), ("-10", "20")])
    def test_vertex_count_below_one(self, n, m, capsys):
        assert main(["experiment", "--n", n, "--m", m, "--trials", "1"]) == 2
        assert capsys.readouterr() == ("", "error: vertex count must be at least 1\n")

    def test_over_budget(self, capsys):
        argv = ["experiment", "--n", "21", "--m", "10", "--trials", "1"]
        assert main(argv) == EXIT_BUDGET
        assert capsys.readouterr() == (
            "", "budget error: 21 vertices exceeds the enumeration budget of 20\n"
        )

    def test_over_budget_before_the_matrix(self, capsys):
        # An orientation's matrix would take 931 GiB.
        argv = ["experiment", "--n", "1000000", "--m", "10", "--trials", "1"]
        assert main(argv) == EXIT_BUDGET
        assert capsys.readouterr() == (
            "", "budget error: 1000000 vertices exceeds the enumeration budget of 20\n"
        )

    def test_over_budget_before_the_graph(self, monkeypatch, capsys):
        # Drawing 10^8 edges would take about 30 GB, at about 300 B per edge.
        def never(*args):
            raise AssertionError("the graph was drawn")

        monkeypatch.setattr(extremal, "random_triangle_free_graph", never)
        argv = ["experiment", "--n", "1000000", "--m", "100000000", "--trials", "1"]
        assert main(argv) == EXIT_BUDGET
        assert capsys.readouterr() == (
            "", "budget error: 1000000 vertices exceeds the enumeration budget of 20\n"
        )

    @pytest.mark.parametrize(
        "k, delta, field",
        [("0", "inf", "balanced_fraction=1.0"), ("-1", "1e10", "chernoff_bound=inf")],
    )
    def test_extreme_delta(self, k, delta, field, capsys):
        argv = ["experiment", "--n", "4", "--m", "4", "--trials", "1", "--k", k, "--delta", delta]
        assert main(argv) == EXIT_OK
        out, err = capsys.readouterr()
        assert err == "" and field in out.split()

    def test_byte_identical_reruns(self, capsys):
        argv = ["experiment", "--n", "6", "--m", "8", "--trials", "4", "--seed", "9"]
        assert main(argv) == EXIT_OK
        first = capsys.readouterr().out
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == first
        assert first.count("trial ") == 4
        assert "summary " in first

    def test_floor_invariant_in_output(self, capsys):
        assert main(["experiment", "--n", "4", "--m", "4", "--trials", "1"]) == EXIT_OK
        line = capsys.readouterr().out.splitlines()[0]
        fields = dict(tok.split("=") for tok in line.split()[1:])
        assert int(fields["max_dicut"]) >= 1

    def test_json_document(self, capsys):
        argv = ["experiment", "--n", "4", "--m", "3", "--trials", "2", "--json"]
        assert main(argv) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["command"] == "experiment"
        assert len(doc["trials"]) == 2
        assert doc["summary"]["trials"] == 2

    @pytest.mark.parametrize("flags, fields", [
        (["--delta", "inf", "--cprime", "inf"], {"delta": "inf", "cprime": "inf", "bound_upper": "inf"}),
        (["--k", "-1", "--delta", "1e10"], {"chernoff_bound": "inf"}),
        (["--cprime=-inf"], {"cprime": "-inf", "bound_upper": "-inf"}),
    ])
    def test_json_spells_non_finite_floats_as_text(self, capsys, flags, fields):
        # RFC 8259 has no Infinity or NaN; a strict parser must read the document.
        argv = ["experiment", "--n", "6", "--m", "5", "--trials", "1", *flags]
        assert main([*argv, "--json"]) == EXIT_OK

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        doc = json.loads(capsys.readouterr().out, parse_constant=reject)
        found = {**doc["trials"][0], **doc["summary"]}
        assert {key: found[key] for key in fields} == fields
        assert main(argv) == EXIT_OK  # the text report spells them alike
        text = capsys.readouterr().out
        assert all(f" {key}={value}" in text for key, value in fields.items())

    def test_json_text_spells_nan_in_nested_lists(self):
        doc = {"a": [1.5, float("nan"), (float("-inf"), 2)], "b": {"c": float("inf")}}
        assert cli._json_text(doc) == '{"a": [1.5, "nan", ["-inf", 2]], "b": {"c": "inf"}}'

    def test_json_of_finite_floats_is_unchanged(self, capsys):
        argv = ["experiment", "--n", "8", "--m", "10", "--trials", "3", "--seed", "5", "--json"]
        assert main(argv) == EXIT_OK
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


class TestBench:
    def test_tiny_run(self, capsys):
        argv = ["bench", "--sizes", "32,64", "--repetitions", "1"]
        assert main(argv) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("bench n=") == 2
        assert "doubling n=32->64" in out

    def test_unsorted_sizes_rejected(self, capsys):
        assert main(["bench", "--sizes", "64,32", "--repetitions", "1"]) == 2

    @pytest.mark.parametrize("sizes", ["0", "-3", "0,16"])
    def test_sizes_below_one_are_usage_errors(self, capsys, sizes):
        assert main(["bench", "--sizes", sizes, "--repetitions", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: sizes must be at least 1")

    def test_size_over_the_dense_limit_allocates_nothing(self, capsys):
        tracemalloc.start()
        try:
            status = main(["bench", "--sizes", "16,20000", "--repetitions", "1"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert status == 4
        assert capsys.readouterr().err == (
            "budget error: 20000 vertices exceeds the dense limit of 10000\n"
        )
        assert peak < 1 << 20, f"{peak / 2**20:.1f} MiB"

    def test_json(self, capsys):
        argv = ["bench", "--sizes", "16", "--repetitions", "1", "--json"]
        assert main(argv) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["rows"][0]["n"] == 16


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        src = tmp_path / "p.rel"
        src.write_text(PATH_EDGE_LIST)
        proc = subprocess.run(
            [sys.executable, "-m", "transub", "maximal", "--input", str(src)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "3 1\n1 2\n"
