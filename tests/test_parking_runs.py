"""Parking runs, orbit audits, fibers and orbit masses against the word
space {1..r+1}^r, simulated word by word inside these tests."""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    measure,
    orbit_parking_mass,
    path_distribution,
    pq_procedure,
)
from parkline.procedures import (
    LEFT,
    RIGHT,
    DirTable,
    Procedure,
    grow_runs,
    index_rule_procedure,
    parking_runs,
    parse_proc_spec,
    run,
    table_procedure,
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


def as_runs(words: np.ndarray, parked: np.ndarray) -> tuple:
    return tuple(zip(map(tuple, words.tolist()), map(tuple, parked.tolist())))


@pytest.mark.parametrize("p", RULES, ids=ids)
def test_runs_equal_the_engine(p):
    for r in range(1, 6):
        words, parked = parking_runs(p, r)
        assert words.dtype == parked.dtype == np.int8
        assert words.shape == parked.shape == (len(reference_runs(p, r)), r)
        assert as_runs(words, parked) == reference_runs(p, r), r


DIRECTIONS = st.sampled_from((LEFT, RIGHT))


@st.composite
def frontier_cases(draw):
    """A rule (a random direction table, or one that walks with a state)
    and a length r <= 6."""
    kind = draw(st.sampled_from(("table", "state-parity", "alternating")))
    if kind == "table":
        rows = tuple(
            tuple(draw(st.lists(DIRECTIONS, min_size=k, max_size=k)))
            for k in range(1, draw(st.integers(1, 6)) + 1)
        )
        p = table_procedure(DirTable(rows, draw(DIRECTIONS)))
    else:
        p = state_parity_rule() if kind == "state-parity" else alternating_rule()
    return p, draw(st.integers(1, 6))


@given(case=frontier_cases())
@settings(max_examples=30, deadline=None)
def test_frontier_equals_run_word_by_word(case):
    p, r = case
    words, parked = parking_runs(p, r)
    words, parked = words.tolist(), parked.tolist()
    for word, spots in zip(words, parked):
        assert list(run(p, word).parked) == spots, word
        assert sorted(spots) == list(range(1, r + 1)), word
    # strictly increasing, so distinct: with the walked count, exactly the
    # parking words
    assert all(a < b for a, b in zip(words, words[1:]))
    assert len(words) == count_parking(p, r, cap=None)


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
        assert len(parking_runs(p, r)[0]) == count_parking(p, r, cap=None), r


def test_measure_nodes_equal_history_nodes():
    # state-parity walks, so prefixes merge on equal measures; history-parity
    # keeps its history in the node, so each prefix is its own node
    for r in range(1, 6):
        assert orbit_parking_mass(state_parity_rule(), r, cap=None) == orbit_parking_mass(
            history_parity_rule(), r, cap=None
        ), r


@pytest.mark.parametrize(
    "pp,nodes",
    [(pq_procedure(Fraction(2)), 430), (kw_procedure(Fraction(1, 3)), 157), (parse_proc_spec("lbs"), 6)],
    ids=lambda x: getattr(x, "name", x),
)
def test_prefixes_merge_on_equal_measures(pp, nodes):
    words, _, ids, last = grow_runs(pp, 6, range(1, 7), frozenset(range(1, 7)))
    assert len(last) == nodes and len(words) > 100 * nodes
    assert sorted(set(ids.tolist())) == list(range(nodes))


@pytest.mark.parametrize("pp", PROB_RULES, ids=ids)
def test_unfiltered_nodes_are_the_measures(pp):
    for r in range(1, 4):
        words, _, ids, nodes = grow_runs(pp, r, range(1, r + 2), None)
        assert words.tolist() == [list(w) for w in word_space(r)]
        for word, i in zip(words.tolist(), ids.tolist()):
            occupancy: dict = {}
            for (occ, _), (weight, _) in nodes[i].items():
                occupancy[occ] = occupancy.get(occ, 0) + weight
            assert occupancy == measure(pp, word).probs, word


def test_a_branch_that_merges_back_is_refused():
    # only car 2 of a word starting 2,2 branches, onto {1,2} or {2,3}; car 3
    # then fills {1,2,3} surely, so every word ends on a point mass of weight 1
    def decide(st, h, occ, blk, a):
        if occ == {2}:
            return Fraction(1, 2)
        return RIGHT if blk.lo == 1 else LEFT

    p = Procedure("merge-back", decide=decide)
    assert measure(p, (2, 2, 2)).probs == {frozenset({1, 2, 3}): 1}
    with pytest.raises(ValueError, match="merge-back: a decision branches"):
        parking_runs(p, 3)
