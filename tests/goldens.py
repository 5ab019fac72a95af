"""The golden files of tests/golden, and the command that writes them:

    PYTHONPATH=src python tests/goldens.py

Every line of a golden file is a JSON pair `[id, text]`, and the tests
recompute each line from its id and compare it byte for byte, so a file is
rewritten only by this command, never by hand.

- `cli.jsonl` and `prob.jsonl`: a CLI query and its canonical JSON output,
  `elapsed_s` aside.
- `usage.jsonl`: a CLI call that asks for help or that the CLI refuses,
  as `[argv, exit code, stdout, stderr]`, the exit code being `main`'s
  return value or the code of the `SystemExit` it raised. Help is wrapped
  at `COLUMNS=80`, whatever the terminal.
- `engines.jsonl`: a library call on the run engines over one rule and
  its result in `pin`'s tagged form, which keeps each value's type and
  each refusal's exception type and message.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path
from unittest import mock

from conftest import alternating_rule, history_coin_rule, history_parity_rule, state_parity_rule
from parkline.cli import main
from parkline.colored import ColoredLetter, colored_lbs_procedure
from parkline.enumeration import count_parking, count_words_to_set
from parkline.probabilistic import (
    AbelianReport,
    Measure,
    is_abelian,
    measure,
    orbit_parking_mass,
    parse_prob_spec,
    path_distribution,
    total_parking_mass,
)
from parkline.procedures import DirTable, Direction, index_rule_procedure, table_procedure

GOLDEN = Path(__file__).parent / "golden"

# ---------------------------------------------------------------------------
# CLI queries

CATALOG = ["right", "left", "closest", "prime", "evenodd", "naples:k=1", "naples:k=2",
           "far", "far:convention=notation", "lbs"]
# the catalog rules that decide by block, which `fibers` takes
BLOCK_RULES = CATALOG[:7]
WORDS = ["1,1,1", "2,1,2,1", "3,3,1,2", "1,2,2,4", "4,4,4,1", "2,3,2,3,1"]


def cli_queries() -> list[str]:
    queries = []
    for spec in CATALOG:
        queries += [f"enumerate --proc {spec} --r {r}" for r in (1, 3, 4)]
        queries += [f"orbits --proc {spec} --r {r}" for r in (2, 3)]
        queries += [f"encode --proc {spec} --word {w}" for w in WORDS]
    for spec in BLOCK_RULES:
        queries += [f"fibers --proc {spec} --r 3", f"fibers --proc {spec} --r 3 --sigma 2,3,1"]
    return queries


PROB_QUERIES = [
    "prob --proc pq:q=3 --mass 4 --per-orbit",
    "prob --proc pq:q=1/2 --mass 3 --per-orbit",
    "prob --proc kwseq:qs=1/2+1/3+1/5+1 --mass 3 --per-orbit",
    "prob --proc pq:q=2 --mass 5",
    "prob --proc pq:q=inf --mass 4",
    "prob --proc kw:q=1/3 --mass 5",
    "prob --proc lbs --mass 4",
    "prob --proc pq:q=2 --word 1,1,2,1,3",
    "prob --proc pq:q=3 --word 1,1,1,1",
    "prob --proc pq:q=1/2 --word 2,1,2,2,1",
    "prob --proc kw:q=2/7 --word 3,3,3,1",
    "prob --proc kwseq:qs=1/2+1/3+1/5 --word 2,2,2",
    "prob --proc closest --word 2,2,1,3",
]


def cli_text(query: str) -> str:
    """The canonical JSON output of a CLI query, `elapsed_s` aside."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*query.split(), "--format", "json"])
    if code != 0:
        raise RuntimeError(f"{query!r} exited {code}")
    return re.sub(r'"elapsed_s":[^,]*,', "", out.getvalue(), count=1)


# help, usage errors and the refusals made before any rule runs
ENUM = ["enumerate", "--proc", "right"]
USAGE_ARGV = [
    [],
    ["bogus"],
    ["-h"],
    *([command, "--help"] for command in ("enumerate", "orbits", "prob", "fibers", "encode")),
    ENUM,
    [*ENUM, "--r", "x"],
    [*ENUM, "--r", "3", "extra"],
    [*ENUM, "--r", "3", "--format", "xml"],
    [*ENUM, "--r", "3", "--sigma", "1"],
    [*ENUM, "--r", "3", "--proc-file", "table.json"],
    [*ENUM, "--r", "3", "--strict"],
]


def usage_outcome(argv: list[str]) -> list:
    """`[argv, exit code, stdout, stderr]` of one CLI call, with help
    wrapped at 80 columns."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as e:
                code = e.code
    return [argv, code, out.getvalue(), err.getvalue()]


# ---------------------------------------------------------------------------
# engine calls


def pin(x):
    """`x` as JSON that keeps its type: an int or bool as itself, a Fraction
    as ["Fraction", num, den], a tuple or list as an array, a set or dict
    tagged and sorted, and the reports and measures by their fields."""
    if isinstance(x, bool) or x is None or isinstance(x, (int, str)):
        return x
    if isinstance(x, Fraction):
        return ["Fraction", x.numerator, x.denominator]
    if isinstance(x, (tuple, list)):
        return [pin(a) for a in x]
    if isinstance(x, frozenset):
        return ["frozenset", sorted(pin(a) for a in x)]
    if isinstance(x, dict):
        items = [[pin(k), pin(v)] for k, v in x.items()]
        return ["dict", sorted(items, key=json.dumps)]
    if isinstance(x, Measure):
        return ["Measure", pin(x.probs)]
    if isinstance(x, AbelianReport):
        return ["AbelianReport", x.procedure, x.r_max, x.abelian, pin(x.witness)]
    if isinstance(x, ColoredLetter):
        return ["ColoredLetter", x.value, x.color]
    raise TypeError(f"cannot pin {type(x).__name__}")


def outcome(call):
    """`pin` of what `call()` returns, or ["raises", type, message]."""
    try:
        value = call()
    except Exception as e:  # every refusal is pinned, whatever its type
        return ["raises", type(e).__name__, str(e)]
    return pin(value)


def _two_row_table() -> DirTable:
    return DirTable(((Direction.RIGHT,), (Direction.LEFT, Direction.RIGHT)), Direction.LEFT)


def engine_rules() -> dict:
    """The rules whose engine results are pinned: the catalog, deterministic
    and probabilistic, with one rule run out of coins and one out of
    directions at car 3, a table rule, and the test rules that keep state
    or branch with it."""
    specs = CATALOG + ["kw:q=0", "kw:q=1/3", "kw:q=1", "kwseq:qs=1/2+1/3+1/5", "kwseq:qs=1/2+1/3",
                       "pq:q=0", "pq:q=1/2", "pq:q=2", "pq:q=inf"]
    rules = {spec: parse_prob_spec(spec) for spec in specs}
    for p in (
        index_rule_procedure((Direction.RIGHT, Direction.LEFT)),
        table_procedure(_two_row_table(), name="table"),
        alternating_rule(),
        history_parity_rule(),
        history_coin_rule(),
        state_parity_rule(),
    ):
        rules[p.name] = p
    return rules


SPOT_SETS = [(1,), (2,), (1, 2), (1, 3), (2, 3), (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 2, 3, 4)]


def _words(letters, longest: int) -> list[tuple]:
    return [w for n in range(longest + 1) for w in product(letters, repeat=n)]


def _per_word(fn, p, words) -> list:
    return [[pin(w), outcome(lambda: fn(p, w))] for w in words]


def _counts(p) -> list:
    """`count_words_to_set` of every spot set on the default path and the
    brute one, with pad 0 and 1."""
    return [
        [list(spots),
         outcome(lambda: count_words_to_set(p, spots)),
         *(outcome(lambda: count_words_to_set(p, spots, "brute", pad=pad)) for pad in (0, 1))]
        for spots in SPOT_SETS
    ]


def _refusals(p) -> list:
    """Calls refused for their input or for the work they would take, at
    budgets that refuse a walk while a level grows."""
    calls = [
        lambda: total_parking_mass(p, 0),
        lambda: total_parking_mass(p, 6, cap=100),
        lambda: total_parking_mass(p, 6, cap=390),
        lambda: orbit_parking_mass(p, 0),
        lambda: orbit_parking_mass(p, 5, cap=1000),
        lambda: is_abelian(p, 0),
        lambda: count_parking(p, 6, cap=384),
        lambda: count_words_to_set(p, (1, 2), pad=1),
        lambda: count_words_to_set(p, (1, 2), pad=-1),
        lambda: count_words_to_set(p, range(1, 5), "brute", cap=10),
    ]
    return [outcome(call) for call in calls]


def engine_cases() -> dict:
    """Id -> a thunk that returns the pinned result of the id's call."""
    cases = {}
    words = _words(range(1, 5), 3)
    for name, p in engine_rules().items():
        cases[f"measure {name}"] = lambda p=p: _per_word(measure, p, words)
        cases[f"path_distribution {name}"] = lambda p=p: _per_word(path_distribution, p, words)
        cases[f"total_parking_mass {name}"] = lambda p=p: [outcome(lambda: total_parking_mass(p, r)) for r in range(1, 5)]
        cases[f"orbit_parking_mass {name}"] = lambda p=p: [outcome(lambda: orbit_parking_mass(p, r)) for r in range(1, 5)]
        cases[f"is_abelian {name}"] = lambda p=p: [outcome(lambda: is_abelian(p, r)) for r in range(1, 4)]
        cases[f"count_words_to_set {name}"] = lambda p=p: _counts(p)
        cases[f"refusals {name}"] = lambda p=p: _refusals(p)
    # a colored rule prefers each letter's value and refuses words outside
    # its language and words that tie a block's record
    colored = colored_lbs_procedure()
    colored_words = _words([ColoredLetter(v, c) for v in (1, 2, 3) for c in (0, 1)], 3)
    cases["measure colored-lbs"] = lambda: _per_word(measure, colored, colored_words)
    cases["path_distribution colored-lbs"] = lambda: _per_word(path_distribution, colored, colored_words)
    # a strict table refuses every length beyond its rows
    strict = table_procedure(_two_row_table(), name="strict", strict=True)
    cases["refusals strict"] = lambda: [
        outcome(lambda: count_words_to_set(strict, (1, 2, 3))),
        outcome(lambda: count_words_to_set(strict, (1, 2, 3), "brute")),
        outcome(lambda: count_parking(strict, 2)),
        outcome(lambda: orbit_parking_mass(strict, 2)),
        outcome(lambda: orbit_parking_mass(strict, 3)),
    ]
    return cases


def line(key: str, text) -> str:
    """One golden line: the pair `[key, text]` as JSON."""
    return json.dumps([key, text]) + "\n"


def engine_line(key: str, result) -> str:
    """One engine golden line: the pair `[key, result]` as compact JSON."""
    return json.dumps([key, result], separators=(",", ":")) + "\n"


def write_all(folder: Path = GOLDEN) -> None:
    (folder / "cli.jsonl").write_text("".join(line(q, cli_text(q)) for q in cli_queries()))
    (folder / "prob.jsonl").write_text("".join(line(q, cli_text(q)) for q in PROB_QUERIES))
    (folder / "usage.jsonl").write_text(
        "".join(json.dumps(usage_outcome(argv)) + "\n" for argv in USAGE_ARGV)
    )
    (folder / "engines.jsonl").write_text(
        "".join(engine_line(key, call()) for key, call in engine_cases().items())
    )


if __name__ == "__main__":
    write_all(Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN)
