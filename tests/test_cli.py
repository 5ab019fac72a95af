import json
import math
import os
import re
import subprocess
import sys
from itertools import permutations
from pathlib import Path

import pytest

from goldens import BLOCK_RULES
from parkline.cli import canonical_json, main
from parkline.enumeration import count_parking
from parkline.procedures import DirTable, Direction, parse_proc_spec


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEnumerate:
    def test_right_r4(self, capsys):
        code, out, _ = invoke(capsys, "enumerate", "--proc", "right", "--r", "4")
        assert code == 0
        assert "count: 125" in out

    def test_far_r3(self, capsys):
        code, out, _ = invoke(capsys, "enumerate", "--proc", "far", "--r", "3")
        assert code == 0
        assert "count: 14" in out

    def test_trivial(self, capsys):
        code, out, _ = invoke(capsys, "enumerate", "--proc", "right", "--r", "1")
        assert code == 0
        assert "count: 1" in out

    def test_expect_universal_failure_exit_1(self, capsys):
        code, out, _ = invoke(
            capsys, "enumerate", "--proc", "far", "--r", "3", "--expect-universal"
        )
        assert code == 1

    def test_cap_exit_2(self, capsys):
        # a walk over 30 spots is refused before any car is placed
        code, _, err = invoke(capsys, "enumerate", "--proc", "far", "--r", "30")
        assert code == 2
        assert "cap" in err
        assert "budget" in err and "walk over 30 spots: 32,212,254,720 car steps" in err
        # and so is the record DP of lbs past 25 spots
        code, _, err = invoke(capsys, "enumerate", "--proc", "lbs", "--r", "30")
        assert code == 2
        assert "interval DP over 30 spots: 24,300,000 car steps" in err
        # and so is an interval DP past 56 spots
        code, _, err = invoke(capsys, "enumerate", "--proc", "right", "--r", "57")
        assert code == 2
        assert "interval DP over 57 spots: 10,556,001 car steps" in err

    def test_walk_within_budget(self, capsys):
        code, out, _ = invoke(
            capsys, "enumerate", "--proc", "right", "--r", "8", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["results"]["count"] == 4_782_969

    def test_bad_proc_exit_3(self, capsys):
        code, _, err = invoke(capsys, "enumerate", "--proc", "bogus", "--r", "2")
        assert code == 3

    def test_missing_proc_exit_3(self, capsys):
        code, _, _ = invoke(capsys, "enumerate", "--r", "2")
        assert code == 3

    def test_every_catalog_spec(self, capsys):
        # pq:q=0 never branches, so it counts like right
        code, out, _ = invoke(capsys, "enumerate", "--proc", "pq:q=0", "--r", "3")
        assert code == 0
        assert "proc=pq:q=0" in out and "count: 16" in out

    def test_missing_parameter_exit_3(self, capsys):
        code, _, err = invoke(capsys, "enumerate", "--proc", "naples", "--r", "3")
        assert code == 3
        assert "requires parameter 'k'" in err

    def test_unknown_parameter_exit_3(self, capsys):
        code, _, err = invoke(capsys, "enumerate", "--proc", "right:z=1", "--r", "3")
        assert code == 3
        assert "no parameter 'z'" in err

    @pytest.mark.parametrize(
        "spec,message",
        [
            ("table:table=x", "table requires parameter 'table' as a DirTable"),
            ("naples:k=2,k=3", "naples repeats parameter 'k'"),
            ("kw:q=1/2,q=1/3", "kw repeats parameter 'q'"),
        ],
    )
    def test_table_and_repeated_parameters_exit_3(self, capsys, spec, message):
        code, out, err = invoke(capsys, "enumerate", "--proc", spec, "--r", "3")
        assert code == 3 and out == ""
        assert message in err


class TestOrbits:
    def test_far_lists_empty_orbits(self, capsys):
        code, out, _ = invoke(
            capsys, "orbits", "--proc", "far", "--r", "3", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        reps = {v["representative"] for v in doc["results"]["violations"]}
        assert reps == {"1,3,1", "1,3,3"}
        members = {tuple(v["members"]) for v in doc["results"]["violations"]}
        assert ("1,3,1", "2,4,2", "3,1,3", "4,2,4") in members

    def test_word_space_overflow_exit_2(self, capsys):
        # 17^16 words overflow int64 keys; refused before any enumeration
        code, _, err = invoke(
            capsys, "orbits", "--proc", "right", "--r", "16", "--cap-unsafe"
        )
        assert code == 2
        assert "overflow" in err

    def test_closest_all_one(self, capsys):
        code, out, _ = invoke(
            capsys, "orbits", "--proc", "closest", "--r", "4", "--format", "json"
        )
        doc = json.loads(out)
        assert doc["results"]["all_one"] is True
        assert doc["results"]["orbit_count"] == 125

    def test_r1(self, capsys):
        code, out, _ = invoke(capsys, "orbits", "--proc", "right", "--r", "1", "--format", "json")
        doc = json.loads(out)
        assert doc["results"]["orbit_count"] == 1
        assert doc["results"]["histogram"] == {"1": 1}


class TestProb:
    def test_kw_mass(self, capsys):
        code, out, _ = invoke(capsys, "prob", "--proc", "kw:q=1/2", "--mass", "2")
        assert code == 0
        assert "total_parking_mass: 3/1" in out

    def test_pq_word(self, capsys):
        code, out, _ = invoke(capsys, "prob", "--proc", "pq:q=2", "--word", "1,1")
        assert code == 0
        assert "parking_probability: 1/3" in out

    def test_permutation(self, capsys):
        code, out, _ = invoke(capsys, "prob", "--proc", "pq:q=1", "--word", "1,2,3")
        assert "parking_probability: 1/1" in out

    def test_per_orbit(self, capsys):
        code, out, _ = invoke(
            capsys, "prob", "--proc", "pq:q=1", "--mass", "2", "--per-orbit",
            "--format", "json",
        )
        doc = json.loads(out)
        assert doc["results"]["orbit_mass"] == {"1,1": "1/1", "1,2": "1/1", "1,3": "1/1"}

    def test_per_orbit_needs_mass(self, capsys):
        code, out, err = invoke(
            capsys, "prob", "--proc", "pq:q=2", "--word", "1,2", "--per-orbit",
            "--format", "json",
        )
        assert code == 3
        assert out == ""
        assert "--per-orbit" in err

    def test_word_and_mass_conflict(self, capsys):
        code, _, _ = invoke(capsys, "prob", "--proc", "kw:q=1/2", "--word", "1", "--mass", "2")
        assert code == 3

    @pytest.mark.parametrize("spec", ["kw:q=inf", "kwseq:qs=1/2+inf"])
    def test_infinite_coin_exit_3(self, capsys, spec):
        code, out, err = invoke(capsys, "prob", "--proc", spec, "--mass", "2")
        assert code == 3 and out == ""
        assert "q must be in [0,1], got inf" in err

    def test_missing_parameter_exit_3(self, capsys):
        code, _, err = invoke(capsys, "prob", "--proc", "kw", "--mass", "2")
        assert code == 3
        assert "requires parameter 'q'" in err

    def test_prob_cap(self, capsys):
        code, _, err = invoke(capsys, "prob", "--proc", "kwseq:qs=1/2", "--mass", "30")
        assert code == 2
        assert "budget" in err and "walk over 30 spots" in err
        code, _, err = invoke(capsys, "prob", "--proc", "kw:q=1/2", "--mass", "57")
        assert code == 2
        assert "budget" in err and "interval DP over 57 spots" in err

    def test_mass_walk_within_budget(self, capsys):
        code, out, _ = invoke(capsys, "prob", "--proc", "pq:q=2", "--mass", "6")
        assert code == 0
        assert "total_parking_mass: 16807/1" in out


def golden(name: str) -> list:
    """(query, canonical JSON output without `elapsed_s`) pairs of a file
    in tests/golden."""
    return [json.loads(line) for line in (Path(__file__).parent / "golden" / name).open()]


def assert_golden(capsys, query: str, expected: str) -> None:
    code, out, _ = invoke(capsys, *query.split(), "--format", "json")
    assert code == 0
    assert re.sub(r'"elapsed_s":[^,]*,', "", out, count=1) == expected


class TestProbGolden:
    """`prob` queries whose canonical JSON, `elapsed_s` aside, was captured
    from the CLI while the engine's weights were Fractions: every later
    engine must reproduce it byte for byte."""

    GOLDEN = golden("prob.jsonl")

    @pytest.mark.parametrize("query,expected", GOLDEN, ids=[query for query, _ in GOLDEN])
    def test_output_is_byte_identical(self, capsys, query, expected):
        assert_golden(capsys, query, expected)


class TestCommandGolden:
    """`enumerate`, `orbits`, `encode` and `fibers` over the catalog at small
    r, captured from the CLI while rules still took a `history` argument:
    every later engine must reproduce them byte for byte."""

    GOLDEN = golden("cli.jsonl")

    @pytest.mark.parametrize("query,expected", GOLDEN, ids=[query for query, _ in GOLDEN])
    def test_output_is_byte_identical(self, capsys, query, expected):
        assert_golden(capsys, query, expected)


class TestFibers:
    def test_right_r3(self, capsys):
        code, out, _ = invoke(
            capsys, "fibers", "--proc", "right", "--r", "3", "--format", "json"
        )
        doc = json.loads(out)
        assert doc["results"]["shape_counts"] == [6, 4, 3, 2, 1]
        assert doc["results"]["shape_total"] == 16
        assert doc["results"]["formula_total"] == 16
        for row in doc["results"]["fibers"]:
            assert row["formula"] == row["brute"]

    @pytest.mark.parametrize("spec", BLOCK_RULES)
    def test_formula_equals_brute_on_every_row(self, capsys, spec):
        code, out, _ = invoke(capsys, "fibers", "--proc", spec, "--r", "7", "--format", "json")
        rows = json.loads(out)["results"]["fibers"]
        assert code == 0
        assert [row["sigma"] for row in rows] == [",".join(map(str, s)) for s in permutations(range(1, 8))]
        assert all(row["formula"] == row["brute"] for row in rows)
        assert sum(row["brute"] for row in rows) == count_parking(parse_proc_spec(spec), 7)

    def test_sigma(self, capsys):
        code, out, _ = invoke(
            capsys, "fibers", "--proc", "right", "--r", "3", "--sigma", "1,2,3",
            "--format", "json",
        )
        doc = json.loads(out)
        assert doc["results"]["fibers"] == [{"sigma": "1,2,3", "formula": 6, "brute": 6}]

    def test_sigma_beyond_the_histogram(self, capsys):
        # one outcome is walked in r^2 car steps, where the whole histogram
        # of a rule without state takes sum_{k<r} r!/(r-k)! * r, past the
        # budget at r = 10; the shape counts are held to Catalan(r) * r
        sigma = ",".join(map(str, range(9, 0, -1)))
        code, out, _ = invoke(
            capsys, "fibers", "--proc", "closest", "--r", "9", "--sigma", sigma, "--format", "json"
        )
        assert code == 0
        results = json.loads(out)["results"]
        [row] = results["fibers"]
        assert row["sigma"] == sigma and row["formula"] == row["brute"] > 1
        assert len(results["shape_counts"]) == math.comb(18, 9) // 10
        code, out, err = invoke(capsys, "fibers", "--proc", "closest", "--r", "10")
        assert (code, out) == (2, "") and "parking runs of length 10: 62,353,010 car steps" in err
        sigma = ",".join(map(str, range(1, 15)))
        code, out, err = invoke(capsys, "fibers", "--proc", "closest", "--r", "14", "--sigma", sigma)
        assert (code, out) == (2, "")
        assert "shape counts of 14 nodes: 37,442,160 (shape, node) pairs exceed the work budget" in err

    def test_sigma_of_wrong_length_exit_3(self, capsys):
        for sigma, length in (("1,2,3,4", 4), ("2,1", 2)):
            code, out, err = invoke(
                capsys, "fibers", "--proc", "right", "--r", "3", "--sigma", sigma
            )
            assert code == 3
            assert out == ""
            assert f"length {length}" in err and "--r 3" in err
        # an empty --sigma is a bad outcome, not a request for all of them
        code, out, err = invoke(capsys, "fibers", "--proc", "right", "--r", "3", "--sigma", "")
        assert code == 3
        assert out == ""

    def test_formula_brute_and_shapes_agree(self, tmp_path, capsys):
        table = DirTable(((Direction.RIGHT,), (Direction.LEFT, Direction.RIGHT)))
        path = tmp_path / "table.json"
        path.write_text(json.dumps(table.to_json()))
        sources = [["--proc", spec] for spec in ("right", "closest", "prime", "naples:k=2")]
        sources.append(["--proc-file", str(path)])
        for source in sources:
            for r in range(1, 6):
                _, out, _ = invoke(capsys, "enumerate", *source, "--r", str(r), "--format", "json")
                count = json.loads(out)["results"]["count"]
                # a naples car backs up before it tries the right, so more words park
                if source[1] != "naples:k=2":
                    assert count == (r + 1) ** (r - 1)
                code, out, _ = invoke(
                    capsys, "fibers", *source, "--r", str(r), "--format", "json"
                )
                assert code == 0
                results = json.loads(out)["results"]
                assert len(results["fibers"]) == math.factorial(r)
                assert all(row["formula"] == row["brute"] for row in results["fibers"])
                assert results["formula_total"] == results["shape_total"] == count
                assert len(results["shape_counts"]) == math.comb(2 * r, r) // (r + 1)

    def test_sigma_texts_follow_the_outcome_rows(self):
        # the rows' texts come from itertools.permutations of the digit
        # strings, in the lexicographic order of the outcome array
        from parkline.cli import word_str
        from parkline.forests import _permutations

        for r in range(1, 9):
            texts = list(map(",".join, permutations([str(i) for i in range(1, r + 1)])))
            assert texts == [word_str(row) for row in _permutations(r).tolist()], r

    def test_r1(self, capsys):
        code, out, _ = invoke(capsys, "fibers", "--proc", "right", "--r", "1", "--format", "json")
        doc = json.loads(out)
        assert doc["results"]["fibers"] == [{"sigma": "1", "formula": 1, "brute": 1}]

    def test_non_formula_procedure_exit_3(self, capsys):
        code, _, err = invoke(capsys, "fibers", "--proc", "lbs", "--r", "2")
        assert code == 3

    def test_word_space_overflow_exit_2(self, capsys):
        # refused before any parking word is grown, as for orbits
        code, _, err = invoke(
            capsys, "fibers", "--proc", "right", "--r", "16", "--cap-unsafe"
        )
        assert code == 2
        assert "overflow" in err


class TestEncode:
    def test_lbs_121(self, capsys):
        code, out, _ = invoke(
            capsys, "encode", "--proc", "lbs", "--word", "1,2,1", "--format", "json"
        )
        doc = json.loads(out)
        assert doc["results"]["support"] == [0, 1, 2]
        assert doc["results"]["displacement"] == 1

    def test_single(self, capsys):
        code, out, _ = invoke(capsys, "encode", "--proc", "right", "--word", "5", "--format", "json")
        doc = json.loads(out)
        assert doc["results"]["support"] == [5]
        assert doc["results"]["shapes"] == ["(|)"]

    def test_right_11(self, capsys):
        code, out, _ = invoke(capsys, "encode", "--proc", "right", "--word", "1,1", "--format", "json")
        doc = json.loads(out)
        assert doc["results"]["shapes"] == ["((|)|)"]
        assert doc["results"]["p_labels"] == [1, 1]

    def test_missing_word(self, capsys):
        code, _, _ = invoke(capsys, "encode", "--proc", "right")
        assert code == 3


class TestTableFile:
    def test_proc_file(self, tmp_path, capsys):
        table = DirTable(((Direction.RIGHT,), (Direction.LEFT, Direction.RIGHT)))
        path = tmp_path / "table.json"
        path.write_text(json.dumps(table.to_json()))
        code, out, _ = invoke(
            capsys, "enumerate", "--proc-file", str(path), "--r", "3"
        )
        assert code == 0
        assert "count: 16" in out

    def test_strict_refuses(self, tmp_path, capsys):
        table = DirTable(((Direction.RIGHT,), (Direction.LEFT, Direction.RIGHT)))
        path = tmp_path / "table.json"
        path.write_text(json.dumps(table.to_json()))
        code, _, err = invoke(
            capsys, "enumerate", "--proc-file", str(path), "--r", "3", "--strict"
        )
        assert code == 3
        assert "strict" in err

    def test_fibers_strict_refuses(self, tmp_path, capsys):
        table = DirTable(((Direction.RIGHT,), (Direction.LEFT, Direction.RIGHT)))
        path = tmp_path / "table.json"
        path.write_text(json.dumps(table.to_json()))
        code, _, err = invoke(
            capsys, "fibers", "--proc-file", str(path), "--strict", "--r", "4"
        )
        assert code == 3
        assert "strict" in err
        # one outcome's walk refuses the rows the table lacks as well
        code, out, err = invoke(
            capsys, "fibers", "--proc-file", str(path), "--strict", "--r", "4", "--sigma", "1,2,3,4"
        )
        assert (code, out) == (3, "")
        assert "strict with r_max=2; refusing r=4" in err

    def test_prob_reads_the_file_and_strict(self, tmp_path, capsys):
        table = DirTable(((Direction.RIGHT,), (Direction.LEFT, Direction.RIGHT)))
        path = tmp_path / "table.json"
        path.write_text(json.dumps(table.to_json()))
        code, out, _ = invoke(capsys, "prob", "--proc-file", str(path), "--mass", "3")
        assert code == 0
        assert "proc=table(r_max=2)" in out and "total_parking_mass: 16/1" in out
        code, out, err = invoke(capsys, "prob", "--proc-file", str(path), "--mass", "3", "--strict")
        assert code == 3 and out == ""
        assert "strict with r_max=2; refusing r=3" in err

    @pytest.mark.parametrize("command", [["enumerate", "--r", "3"], ["prob", "--mass", "3"]])
    def test_strict_needs_a_table(self, capsys, command):
        # a --proc rule has no rows to hold r to, so --strict is refused, not dropped
        code, out, err = invoke(capsys, *command, "--proc", "right", "--strict")
        assert code == 3 and out == ""
        assert "--strict needs --proc-file" in err

    @pytest.mark.parametrize("command", [["enumerate", "--r", "2"], ["prob", "--mass", "2"]])
    def test_proc_and_proc_file_exclude_each_other(self, tmp_path, capsys, command):
        table = DirTable(((Direction.RIGHT,), (Direction.LEFT, Direction.RIGHT)))
        path = tmp_path / "table.json"
        path.write_text(json.dumps(table.to_json()))
        code, out, err = invoke(capsys, *command, "--proc", "right", "--proc-file", str(path))
        assert code == 3 and out == ""
        assert "--proc and --proc-file exclude each other" in err

    def test_malformed_table(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"type": "memoryless_local", "rows": [["R", "L"]]}))
        code, _, _ = invoke(capsys, "enumerate", "--proc-file", str(path), "--r", "2")
        assert code == 3

    @pytest.mark.parametrize("rows", [5, [5], None, ["R", "LR"]])
    def test_rows_not_a_list_of_lists_exit_3(self, tmp_path, capsys, rows):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"type": "memoryless_local", "rows": rows}))
        code, out, err = invoke(capsys, "enumerate", "--proc-file", str(path), "--r", "2")
        assert code == 3 and out == ""
        assert "rows must be a list of lists" in err


class TestFormats:
    def test_json_round_trip_identical(self, capsys):
        for argv in (
            ["enumerate", "--proc", "prime", "--r", "3"],
            ["orbits", "--proc", "far", "--r", "3"],
            ["prob", "--proc", "pq:q=2", "--word", "1,1"],
            ["encode", "--proc", "lbs", "--word", "1,2,1"],
        ):
            code, out, _ = invoke(capsys, *argv, "--format", "json")
            assert code == 0
            assert canonical_json(json.loads(out)) == out

    def test_csv(self, capsys):
        code, out, _ = invoke(
            capsys, "enumerate", "--proc", "right", "--r", "2", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "key,value"
        assert "count,3" in lines

    def test_table_format_default(self, capsys):
        code, out, _ = invoke(capsys, "enumerate", "--proc", "right", "--r", "2")
        assert out.startswith("enumerate")


class TestParser:
    def test_calls_share_no_flags(self, tmp_path, capsys):
        # every main() call parses afresh, whatever it shares with the last
        table = DirTable(((Direction.RIGHT,), (Direction.LEFT, Direction.RIGHT)))
        path = tmp_path / "table.json"
        path.write_text(json.dumps(table.to_json()))
        argv = ["enumerate", "--proc-file", str(path)]
        code, out, _ = invoke(capsys, *argv, "--r", "2", "--strict", "--format", "json")
        assert code == 0 and json.loads(out)["results"]["count"] == 3
        code, out, _ = invoke(capsys, *argv, "--r", "3")
        assert code == 0
        assert out.startswith("enumerate") and "count: 16" in out
        # nor with a call of another subcommand: the DP over 57 spots is
        # over the budget unless --cap-unsafe lifts it
        right = ["enumerate", "--proc", "right"]
        code, out, _ = invoke(capsys, *right, "--r", "57", "--format", "json", "--cap-unsafe")
        assert code == 0 and json.loads(out)["results"]["count"] == 58**56
        code, out, _ = invoke(capsys, "prob", "--proc", "pq:q=2", "--word", "1,1")
        assert code == 0 and out.startswith("prob") and "parking_probability: 1/3" in out
        code, _, err = invoke(capsys, *right, "--r", "57")
        assert code == 2 and "interval DP over 57 spots" in err
        code, out, _ = invoke(capsys, *right, "--r", "3")
        assert code == 0 and out.startswith("enumerate") and "count: 16" in out

    def test_main_reads_sys_argv(self, monkeypatch, capsys):
        import parkline.cli as cli

        built = []
        real = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda *args: built.append(args) or real(*args))
        argv = ["parkline", "encode", "--proc", "right", "--word", "1,1", "--format", "json"]
        monkeypatch.setattr(sys, "argv", argv)
        assert main() == 0
        assert json.loads(capsys.readouterr().out)["params"] == {"proc": "right", "word": "1,1"}
        # the parser registers the subcommand that sys.argv[1] names
        assert built == [("encode",)]

    def test_parser_registers_the_named_subcommand_or_all(self):
        from parkline.cli import build_parser

        every = "usage: parkline [-h] {enumerate,orbits,prob,fibers,encode} ...\n"
        for command in (None, "-h", "bogus"):
            assert build_parser(command).format_usage() == every
        assert build_parser().format_usage() == every
        assert build_parser("prob").format_usage() == "usage: parkline [-h] {prob} ...\n"

    def test_cap_unsafe_lifts_cap(self):
        from parkline.cli import _cap, build_parser
        from parkline.enumeration import WORK_BUDGET

        argv = ["enumerate", "--proc", "right", "--r", "9"]
        assert _cap(build_parser().parse_args(argv)) == WORK_BUDGET
        args = build_parser().parse_args([*argv, "--cap-unsafe"])
        assert _cap(args) is None


def run_child(*args):
    """A fresh interpreter that imports the same package, wherever pytest
    found it."""
    import parkline

    src = str(Path(parkline.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}
    )


class TestModuleEntry:
    def test_python_dash_m(self):
        argv = ["orbits", "--proc", "right", "--r", "3", "--format", "json"]
        out = run_child("-m", "parkline", *argv)
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout)["results"]["histogram"] == {"1": 16}
        out = run_child("-m", "parkline", "orbits", "--proc", "right", "--r", "8")
        assert out.returncode == 2 and "budget" in out.stderr

    def test_cold_start_loads_numpy_only_for_arrays(self):
        # numpy is imported by the engines that build arrays, not by the
        # package, so one-shot commands that need none start without it
        script = """
import contextlib, io, json, sys
import parkline, parkline.cli
loaded = {"import": "numpy" in sys.modules}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert parkline.cli.main(argv) == 0, argv
    loaded[" ".join(argv)] = "numpy" in sys.modules
print(json.dumps(loaded))
"""
        commands = [
            ["encode", "--proc", "right", "--word", "1,2,1"],
            ["prob", "--proc", "kw:q=1/2", "--word", "1,1,2"],
            ["prob", "--proc", "pq:q=2", "--mass", "4"],
            ["enumerate", "--proc", "right", "--r", "4"],
            ["enumerate", "--proc", "lbs", "--r", "4"],
            ["enumerate", "--proc", "naples:k=2", "--r", "4"],
            ["orbits", "--proc", "right", "--r", "3"],
        ]
        out = run_child("-c", script, json.dumps(commands))
        assert out.returncode == 0, out.stderr
        loaded = json.loads(out.stdout)
        assert list(loaded.values()) == [False] * 7 + [True], loaded
        # perfbench/run.py asks this before it times anything, then reads
        # sys.modules["numpy"], which a count that names a backend loads
        # while it checks the word space against int64 (`radix_weights`)
        preflight = """
import sys
import parkline as pk
pk._kernels.resolve_backend("numpy")
table = pk.DirTable.from_json({"type": "memoryless_local", "rows": [["R"], ["L", "R"], ["R", "L", "L"]]})
for p in [*map(pk.builtin, ("right", "closest", "prime", "lbs")), pk.table_procedure(table)]:
    assert pk.count_parking(p, 3, backend="numpy") == pk.count_parking(p, 3, backend="python"), p.name
print(sys.modules["numpy"].__version__)
"""
        out = run_child("-c", preflight)
        assert out.returncode == 0 and out.stdout.strip(), out.stderr
