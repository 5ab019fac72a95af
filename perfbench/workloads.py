"""The benchmark's workloads: fixed query lists built from a seed.

Each query is one user-visible request. Queries the CLI exposes go through
`parkline.cli.main` in-process and are answered by the `results` block of
its JSON output; the rest call the public library. Every query carries the
size of the word space it answers and a check against a reference from
`oracle`, which runs only after timing.

The seed picks the random inputs and the query order. The mix of query
kinds and sizes is the same for every seed, so runs with different seeds
do the same amount of work.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import oracle

CATALOG = ("right", "left", "closest", "prime", "evenodd", "naples:k=2", "far", "lbs")


@dataclass(frozen=True)
class Query:
    label: str
    run: Callable[[], Any]
    words: int  # size of the word space the answer covers
    check: Callable[[Any], bool]


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; the smoke test shrinks them."""

    enum_r: int = 6
    enum_big_r: int = 7
    mass_r: int = 5
    orbit_mass_r: int = 4
    abelian_r: int = 4
    stream: int = 1500


FULL = Sizes()
SMOKE = Sizes(enum_r=3, enum_big_r=4, mass_r=3, orbit_mass_r=3, abelian_r=3, stream=60)


class CliError(RuntimeError):
    pass


def cli_results(pk, argv: list[str]) -> dict:
    """Run one CLI command in-process and return its `results` block."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = pk.cli.main([*argv, "--format", "json"])
    if code != 0:
        raise CliError(f"parkline {' '.join(argv)} exited {code}")
    return json.loads(out.getvalue())["results"]


def _cli_query(pk, label, argv, words, check) -> Query:
    return Query(label, lambda: cli_results(pk, argv), words, check)


def _word_text(word) -> str:
    return ",".join(map(str, word))


# ---------------------------------------------------------------------------
# enum_large


def random_table(rng: random.Random, r_max: int) -> tuple[list[list[bool]], bool]:
    rows = [[rng.random() < 0.5 for _ in range(r)] for r in range(1, r_max + 1)]
    return rows, rng.random() < 0.5


def table_doc(table) -> dict:
    """Direction-table JSON document, as `--proc-file` reads it."""
    rows, default_right = table
    return {
        "type": "memoryless_local",
        "r_max": len(rows),
        "rows": [["R" if right else "L" for right in row] for row in rows],
        "default_beyond": "R" if default_right else "L",
    }


def enum_large(pk, rng: random.Random, sizes: Sizes, workdir: Path) -> list[Query]:
    r, big = sizes.enum_r, sizes.enum_big_r
    table_path = workdir / "random_table.json"
    table_path.write_text(json.dumps(table_doc(random_table(rng, r))), encoding="utf-8")
    space = (r + 1) ** r

    def universal(n):
        def check(res):
            count = oracle.universal_count(n)
            return res["count"] == count and res["expected_universal"] == count and res["universal"]

        return check

    def one_per_orbit(res):
        orbits = space // (r + 1)
        return (
            res["orbit_count"] == orbits
            and res["parking_total"] == oracle.universal_count(r)
            and res["histogram"] == {"1": orbits}
            and res["violations"] == []
            and res["all_one"]
        )

    def fibers_agree(res):
        rows = res["fibers"]
        total = oracle.universal_count(r)
        return (
            len(rows) == len({row["sigma"] for row in rows}) == math.factorial(r)
            and all(row["formula"] == row["brute"] for row in rows)
            and res["formula_total"] == total
            and sum(row["brute"] for row in rows) == total
            and res["shape_total"] == total
            and len(res["shape_counts"]) == oracle.catalan(r)
        )

    # The r-length enumerations run three times per pass, so that most
    # latency samples fall in their class and the median sits well inside
    # it rather than at the edge to the slower queries.
    queries = 3 * [
        _cli_query(pk, f"enumerate {p} r={r}", ["enumerate", "--proc", p, "--r", str(r)], space, universal(r))
        for p in ("right", "left", "closest", "prime", "lbs")
    ]
    queries += 3 * [
        _cli_query(
            pk,
            f"enumerate random-table r={r}",
            ["enumerate", "--proc-file", str(table_path), "--r", str(r)],
            space,
            universal(r),
        )
    ]
    queries.append(
        _cli_query(
            pk,
            f"enumerate right r={big}",
            ["enumerate", "--proc", "right", "--r", str(big)],
            (big + 1) ** big,
            universal(big),
        )
    )
    queries += [
        _cli_query(pk, f"orbits {p} r={r}", ["orbits", "--proc", p, "--r", str(r)], space, one_per_orbit)
        for p in ("right", "lbs")
    ]
    queries.append(
        _cli_query(pk, f"fibers closest r={r}", ["fibers", "--proc", "closest", "--r", str(r)], space, fibers_agree)
    )
    rng.shuffle(queries)
    return queries


# ---------------------------------------------------------------------------
# prob_mass


def prob_mass(pk, rng: random.Random, sizes: Sizes, workdir: Path) -> list[Query]:
    r, ro, ra = sizes.mass_r, sizes.orbit_mass_r, sizes.abelian_r

    def total_mass(res):
        return (
            res["total_parking_mass"] == f"{oracle.universal_count(r)}/1"
            and res["expected_universal"] == oracle.universal_count(r)
        )

    def orbit_masses(res):
        orbits = (ro + 1) ** ro // (ro + 1)
        return (
            res["total_parking_mass"] == f"{oracle.universal_count(ro)}/1"
            and len(res["orbit_mass"]) == orbits
            and all(m == "1/1" for m in res["orbit_mass"].values())
        )

    def abelian(report):
        return report.abelian and report.witness is None

    def not_abelian(report):
        if report.abelian or report.witness is None:
            return False
        w1, w2 = report.witness
        q = Fraction(1, 2)
        return (
            len(w1) <= ra
            and sorted(w1) == sorted(w2)
            and w1 != w2
            and oracle.kw_measure(q, w1) != oracle.kw_measure(q, w2)
        )

    # The mass queries run twice per pass, so that the median latency sits
    # inside one query kind rather than between two.
    queries = [
        _cli_query(pk, f"prob {spec} mass r={r}", ["prob", "--proc", spec, "--mass", str(r)], (r + 1) ** r, total_mass)
        for spec in ("pq:q=2", "pq:q=1/2", "kw:q=1/3")
    ]
    queries.append(
        _cli_query(
            pk,
            f"prob pq:q=3 per-orbit r={ro}",
            ["prob", "--proc", "pq:q=3", "--mass", str(ro), "--per-orbit"],
            2 * (ro + 1) ** ro,  # total mass and orbit masses are two sweeps
            orbit_masses,
        )
    )
    queries *= 2
    abelian_space = sum((n + 1) ** n for n in range(1, ra + 1))
    pq2, kw_half = pk.pq_procedure(Fraction(2)), pk.kw_procedure(Fraction(1, 2))
    queries.append(Query(f"is_abelian pq:q=2 r={ra}", lambda: pk.is_abelian(pq2, ra), abelian_space, abelian))
    queries.append(
        Query(f"is_abelian kw:q=1/2 r={ra}", lambda: pk.is_abelian(kw_half, ra), abelian_space, not_abelian)
    )
    rng.shuffle(queries)
    return queries


# ---------------------------------------------------------------------------
# many_small


def _cycle(values, count):
    return [values[i % len(values)] for i in range(count)]


def many_small(pk, rng: random.Random, sizes: Sizes, workdir: Path) -> list[Query]:
    """A stream of short queries. Kinds keep fixed shares of the stream
    and sizes cycle through their ranges, so only contents and order
    depend on the seed. The shares put the median inside the CLI queries
    (encode, prob), whose latencies form one dense class, rather than at
    the edge between two classes, where it would jump between them."""
    n = sizes.stream
    shares = {"cwts": 0.30, "encode": 0.26, "prob": 0.26, "enum": 0.04, "fiber": 0.10, "colored": 0.04}
    counts = {kind: max(1, round(share * n)) for kind, share in shares.items()}
    procs = {spec: pk.parse_proc_spec(spec) for spec in CATALOG}
    # references repeat across queries and passes; compute each once
    parking_count = functools.cache(oracle.parking_count)
    outcome_histogram = functools.cache(oracle.outcome_histogram)
    pq_probability = functools.cache(oracle.pq_parking_probability)
    queries: list[Query] = []

    for i, size in enumerate(_cycle((2, 3, 4, 5), counts["cwts"])):
        spec = ("right", "prime")[i % 2]
        spots = tuple(sorted(rng.sample(range(-1, 9), size)))
        queries.append(
            Query(
                f"count_words_to_set {spec} {spots}",
                lambda p=procs[spec], s=spots: pk.count_words_to_set(p, s, "brute"),
                size**size,
                lambda res, s=spots: res == oracle.words_to_set_count(s),
            )
        )

    for i, length in enumerate(_cycle((4, 5, 6, 7, 8), counts["encode"])):
        spec = CATALOG[i % len(CATALOG)]
        word = tuple(rng.randint(1, length + 1) for _ in range(length))

        def check_encode(res, spec=spec, word=word):
            parked = oracle.simulate(spec, word)
            at = {spot: idx + 1 for idx, spot in enumerate(parked)}
            spots = sorted(at)
            pair = pk.pair_from_json(res)
            return (
                pk.word_of_pair(pair) == word
                and pk.project(pair) == frozenset(parked)
                and res["support"] == spots
                and res["q_labels"] == [at[s] for s in spots]
                and res["p_labels"] == [word[at[s] - 1] for s in spots]
                and res["displacement"] == sum(abs(a - s) for a, s in zip(word, parked))
            )

        queries.append(
            _cli_query(pk, f"encode {spec} {word}", ["encode", "--proc", spec, "--word", _word_text(word)], 1, check_encode)
        )

    for length in _cycle((2, 3, 4, 5, 6), counts["prob"]):
        q = rng.choice(("1/2", "1", "2", "3"))
        word = tuple(rng.randint(1, length + 1) for _ in range(length))
        queries.append(
            _cli_query(
                pk,
                f"prob pq:q={q} {word}",
                ["prob", "--proc", f"pq:q={q}", "--word", _word_text(word)],
                1,
                lambda res, q=q, word=word: res["parking_probability"]
                == oracle.frac_text(pq_probability(Fraction(q), word)),
            )
        )

    for spec, r in _cycle([(s, r) for s in ("far", "evenodd", "naples:k=2") for r in (3, 4)], counts["enum"]):

        def check_count(res, spec=spec, r=r):
            count = parking_count(spec, r)
            return res["count"] == count and res["universal"] == (count == oracle.universal_count(r))

        queries.append(
            _cli_query(pk, f"enumerate {spec} r={r}", ["enumerate", "--proc", spec, "--r", str(r)], (r + 1) ** r, check_count)
        )

    fiber_rules = ("right", "closest", "prime", "naples:k=2")
    for i, r in enumerate(_cycle((3, 4, 5), counts["fiber"])):
        spec = fiber_rules[i % len(fiber_rules)]
        sigma = tuple(rng.sample(range(1, r + 1), r))

        def check_fiber(res, spec=spec, r=r, sigma=sigma):
            return res == outcome_histogram(spec, r).get(sigma, 0)

        queries.append(
            Query(
                f"fiber_count {spec} {sigma}",
                lambda p=procs[spec], s=sigma: pk.fiber_count(p, s),
                1,
                check_fiber,
            )
        )

    clbs, language = pk.colored_lbs_procedure(), pk.distinct_letters_language()
    for r in _cycle((1, 2, 3), counts["colored"]):
        classes = oracle.colored_class_count(r, 2)
        queries.append(
            Query(
                f"colored_orbit_audit lbs r={r}",
                lambda r=r: pk.colored_orbit_audit(clbs, language, r, (1, 2)),
                (2 * (r + 1)) ** r,
                lambda rep, classes=classes: rep.orbit_count == classes and rep.histogram == {1: classes} and rep.all_one,
            )
        )

    rng.shuffle(queries)
    return queries


WORKLOADS = {"enum_large": enum_large, "prob_mass": prob_mass, "many_small": many_small}

# Tail level, taken within each pass. many_small leaves 15 samples beyond
# p99 in every pass. enum_large and prob_mass passes hold 22 and 10
# queries, so no level there has ten samples beyond it; p99 picks their
# slowest query, and the median over passes steadies it.
TAIL_LEVEL = 0.99

# Speed probes (see speed.py) matching the kind of work each workload does.
PROBES = {"enum_large": ["numpy"], "prob_mass": ["python"], "many_small": ["python", "numpy"]}


def build(pk, name: str, seed: int, sizes: Sizes, workdir: Path) -> list[Query]:
    return WORKLOADS[name](pk, random.Random(f"{name}:{seed}"), sizes, workdir)
