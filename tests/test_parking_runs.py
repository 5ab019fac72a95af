"""Parking runs, orbit audits, fibers and orbit masses against the word
space {1..r+1}^r, simulated word by word inside these tests."""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import cache

import pytest

from conftest import (
    alternating_rule,
    history_parity_rule,
    random_dir_tables,
    state_parity_rule,
)
from parkline.enumeration import OrbitReport, OrbitViolation, count_parking, orbit_audit
from parkline.forests import fiber_counts_brute
from parkline.probabilistic import (
    kw_procedure,
    kw_sequence_procedure,
    orbit_parking_mass,
    path_distribution,
    pq_procedure,
)
from parkline.procedures import (
    LEFT,
    RIGHT,
    index_rule_procedure,
    parking_runs,
    parse_proc_spec,
    run,
)
from parkline.words import orbit_representative, rotate

# one instance of every builtin rule
CATALOG = [
    parse_proc_spec(spec)
    for spec in ("right", "left", "closest", "prime", "evenodd", "naples:k=2", "far", "lbs")
] + random_dir_tables(1, 5, seed=11)
RULES = CATALOG + [
    parse_proc_spec("naples:k=1"),
    parse_proc_spec("far:convention=notation"),
    index_rule_procedure((RIGHT, LEFT, LEFT, RIGHT, LEFT)),
    alternating_rule(),
    history_parity_rule(),
    state_parity_rule(),
]


def ids(p):
    return p.name


def word_space(r: int):
    return itertools.product(range(1, r + 2), repeat=r)


@cache
def reference_runs(p, r: int) -> tuple:
    """(word, parked) for every parking word of {1..r+1}^r, by the per-word
    engine, in lexicographic order."""
    full = frozenset(range(1, r + 1))
    out = []
    for word in word_space(r):
        res = run(p, word)
        if res.spots == full:
            out.append((word, res.parked))
    return tuple(out)


def orbit_members(rep, r: int) -> tuple:
    members = [rep]
    for _ in range(r):
        members.append(rotate(members[-1], r))
    return tuple(members)


@pytest.mark.parametrize("p", RULES, ids=ids)
def test_runs_equal_the_engine(p):
    for r in range(1, 6):
        assert tuple(parking_runs(p, r)) == reference_runs(p, r), r


@pytest.mark.parametrize("p", RULES, ids=ids)
def test_orbit_report_equals_word_space(p):
    for r in range(1, 6):
        parking = {word for word, _ in reference_runs(p, r)}
        per_orbit: Counter = Counter()
        for word in word_space(r):
            per_orbit[orbit_representative(word, r)] += word in parking
        violations = []
        for rep, count in sorted(per_orbit.items()):
            if count != 1:
                members = orbit_members(rep, r)
                found = tuple(w for w in members if w in parking)
                violations.append(OrbitViolation(rep, members, count, found))
        expected = OrbitReport(
            procedure=p.name,
            r=r,
            orbit_count=len(per_orbit),
            histogram=dict(sorted(Counter(per_orbit.values()).items())),
            violations=tuple(violations),
        )
        assert orbit_audit(p, r, cap=None) == expected, r


@pytest.mark.parametrize("p", RULES, ids=ids)
def test_fibers_equal_word_space(p):
    for r in range(1, 6):
        expected: Counter = Counter()
        for _, parked in reference_runs(p, r):
            sigma = [0] * r
            for idx, spot in enumerate(parked):
                sigma[spot - 1] = idx + 1
            expected[tuple(sigma)] += 1
        assert fiber_counts_brute(p, r, cap=None) == dict(expected), r


PROB_RULES = RULES + [
    pq_procedure(Fraction(2)),
    pq_procedure(Fraction(1, 3)),
    kw_procedure(Fraction(1, 3)),
    kw_sequence_procedure((Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(1))),
]


@pytest.mark.parametrize("pp", PROB_RULES, ids=ids)
def test_orbit_masses_equal_word_space(pp):
    # path_distribution expands every branch of a word without merging
    for r in range(1, 5):
        full = frozenset(range(1, r + 1))
        expected: dict = {}
        for word in word_space(r):
            mass = sum(
                (w for parked, w in path_distribution(pp, word).items() if set(parked) == full),
                Fraction(0),
            )
            rep = orbit_representative(word, r)
            expected[rep] = expected.get(rep, Fraction(0)) + mass
        masses = orbit_parking_mass(pp, r, cap=None)
        assert list(masses.items()) == sorted(expected.items()), r


@pytest.mark.parametrize("p", CATALOG, ids=ids)
def test_run_count_equals_walked_count(p):
    # the runs and the occupied-set walk count the same words independently
    for r in range(1, 8):
        assert sum(1 for _ in parking_runs(p, r)) == count_parking(p, r, cap=None), r
