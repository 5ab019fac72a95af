"""Parking runs, orbit audits, fibers and orbit masses against the word
space {1..r+1}^r, simulated word by word inside these tests, and how
often one engine call asks a rule for a decision."""

from __future__ import annotations

import dataclasses
import itertools
import logging
import math
import re
from collections import Counter
from fractions import Fraction
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    abelian_by_orderings,
    alternating_rule,
    grown_runs,
    history_coin_rule,
    history_parity_rule,
    oracle_mass,
    parking_runs,
    random_dir_tables,
    state_parity_rule,
)
from goldens import engine_rules
from parkline import enumeration, procedures
from parkline.enumeration import (
    OrbitReport,
    OrbitViolation,
    count_parking,
    count_words_to_set,
    landing_weight,
    orbit_audit,
)
from parkline.forests import fiber_counts_brute
from parkline.probabilistic import (
    INFINITY,
    is_abelian,
    kw_procedure,
    kw_sequence_procedure,
    measure,
    orbit_parking_mass,
    parking_probability,
    parse_prob_spec,
    path_distribution,
    pq_procedure,
    right_prob_table,
    total_parking_mass,
)
from parkline.procedures import (
    LEFT,
    RIGHT,
    DirTable,
    Procedure,
    index_rule_procedure,
    int_choices,
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


ENGINE_RULES = engine_rules()


def grouped_report(p, r: int) -> OrbitReport:
    """`orbit_audit` with no orbit fold, the reference for rotation tuples:
    the parking words of the key engine (`conftest.parking_runs`) grouped by
    `orbit_representative`, every orbit listed by its representative."""
    words, _ = parking_runs(p, r)
    parking = set(map(tuple, words.tolist()))
    per_orbit = Counter(orbit_representative(word, r) for word in parking)
    histogram: Counter = Counter()
    violations = []
    for tail in itertools.product(range(1, r + 2), repeat=r - 1):
        rep = (1,) + tail
        count = per_orbit[rep]
        histogram[count] += 1
        if count != 1:
            members = orbit_members(rep, r)
            violations.append(OrbitViolation(rep, members, count, tuple(w for w in members if w in parking)))
    return OrbitReport(p.name, r, sum(histogram.values()), dict(sorted(histogram.items())), tuple(violations))


@pytest.mark.parametrize("p", CATALOG + [alternating_rule(), history_parity_rule()], ids=ids)
def test_orbit_tuples_equal_the_key_engine(p, monkeypatch):
    # the tuple pass's tables are replayed only for a rule with violating orbits
    replayed = []
    replay = enumeration.replay_orbits
    monkeypatch.setattr(enumeration, "replay_orbits", lambda *args: replayed.append(args) or replay(*args))
    for r in range(1, 7):
        replayed.clear()
        report = orbit_audit(p, r, cap=None)
        assert report == grouped_report(p, r), r
        assert list(report.histogram) == sorted(report.histogram)
        assert all(type(v) is int for v in report.histogram.values())
        assert len(replayed) == (not report.all_one), r
    # these list violating orbits at r = 6, identically
    if p.name in ("far", "naples:k=2", "evenodd"):
        assert report.violations


@pytest.mark.parametrize("name", list(ENGINE_RULES))
def test_merged_tuples_equal_the_unmerged_replay(name):
    # the merged rows' counts against one row per orbit, replayed from the
    # same tables; a pass that raises leaves no tables to replay
    p = ENGINE_RULES[name]
    compared = 0
    for r in range(1, 7):
        try:
            histogram, tables = procedures.orbit_tuples(p, r, procedures.decision_table(p))
        except ValueError:
            continue
        live = (procedures.replay_orbits(tables, r) >= 0).sum(axis=1)
        assert histogram == dict(sorted(Counter(live.tolist()).items())), r
        assert all(type(count) is int for count in histogram.values())
        assert all(table.dtype == np.int32 for table in tables)
        compared += 1
    assert compared >= 1


PROB_RULES = RULES + [
    pq_procedure(Fraction(2)),
    pq_procedure(Fraction(1, 3)),
    kw_procedure(Fraction(1, 3)),
    kw_sequence_procedure((Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(1))),
    history_coin_rule(),
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


# is_abelian(pp, 4) of every rule in PROB_RULES, as the engine gave it while
# its weights were Fractions
ABELIAN_AT_4 = {
    "right": (True, None),
    "left": (True, None),
    "closest": (False, ((1, 1, 2), (1, 2, 1))),
    "prime": (False, ((1, 1, 2), (1, 2, 1))),
    "evenodd": (False, ((2, 2, 3), (2, 3, 2))),
    "naples:k=2": (False, ((2, 3, 4, 4), (2, 4, 4, 3))),
    "far": (False, ((1, 1, 2), (1, 2, 1))),
    "lbs": (False, ((1, 1, 2), (1, 2, 1))),
    "rand0": (False, ((1, 1, 1, 3), (1, 1, 3, 1))),
    "naples:k=1": (False, ((2, 3, 3), (3, 3, 2))),
    "far:convention=notation": (False, ((1, 1, 2), (1, 2, 1))),
    "bycar(RLLRL)": (False, ((1, 1, 1, 2), (1, 1, 2, 1))),
    "alternating": (False, ((1, 1, 2), (1, 2, 1))),
    "history-parity": (False, ((1, 1, 2), (1, 2, 1))),
    "state-parity": (False, ((1, 1, 2), (1, 2, 1))),
    "pq:q=2": (True, None),
    "pq:q=1/3": (True, None),
    "kw:q=1/3": (False, ((1, 1, 2), (1, 2, 1))),
    "kwseq:qs=1/2+1/3+1/5+1": (False, ((1, 1, 2), (1, 2, 1))),
    "history-coin": (False, ((1, 1, 3), (1, 3, 1))),
}


@pytest.mark.parametrize("pp", PROB_RULES, ids=ids)
def test_masses_and_abelian_checks_are_exact(pp):
    # a local rule that decides by block has a right-probability by (block
    # size, place), which the oracle expands word by word; any other rule's
    # mass is the sum of its words' parking probabilities
    table = right_prob_table(pp, 4) if pp.is_local and pp.decides_by_block else None
    for r in range(1, 5):
        if table is not None:
            expected = oracle_mass(lambda size, i: table[size, i], range(1, r + 1))
        else:
            expected = sum((parking_probability(pp, w) for w in word_space(r)), Fraction(0))
        total = total_parking_mass(pp, r, cap=None)
        orbits = orbit_parking_mass(pp, r, cap=None)
        assert type(total) is Fraction and all(type(m) is Fraction for m in orbits.values())
        assert total == sum(orbits.values()) == expected, r
    report = is_abelian(pp, 4)
    assert (report.abelian, report.witness) == ABELIAN_AT_4[pp.name]


@pytest.mark.parametrize("p", CATALOG, ids=ids)
def test_run_count_equals_walked_count(p):
    # the runs and the occupied-set walk count the same words independently
    for r in range(1, 8):
        assert len(parking_runs(p, r)[0]) == count_parking(p, r, cap=None), r


def expanded(p, word) -> dict:
    """Weight of every parking trace of `word` under rule `p`, by expanding
    every branch with its own state, without merging."""
    traces = {(): (Fraction(1), p.init_state())}
    for a in word:
        nxt: dict = {}
        for parked, (weight, state) in traces.items():
            choices = [(a, 1, 1)] if a not in parked else int_choices(p, state, frozenset(parked), a, a)
            for spot, num, den in choices:
                # distinct choices give distinct traces
                nxt[parked + (spot,)] = (weight * Fraction(num, den), p.update(state, a, spot))
        traces = nxt
    return {parked: weight for parked, (weight, _) in traces.items()}


@pytest.mark.parametrize("pp", [history_parity_rule(), history_coin_rule()], ids=ids)
def test_history_measures_equal_per_word_expansion(pp):
    for r in range(5):
        for word in itertools.product(range(1, r + 2), repeat=r):
            traces = expanded(pp, word)
            occupancy: dict = {}
            for parked, weight in traces.items():
                occupancy[frozenset(parked)] = occupancy.get(frozenset(parked), 0) + weight
            assert path_distribution(pp, word) == traces, word
            assert measure(pp, word).probs == occupancy, word


def test_measure_nodes_equal_history_nodes():
    # state-parity keeps only the parity, so prefixes merge on equal
    # measures; history-parity keeps its letters in the node, so each prefix
    # is its own node
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
    words, _, ids, last = grown_runs(pp, 6, range(1, 7), frozenset(range(1, 7)))
    assert len(last) == nodes and len(words) > 100 * nodes
    assert sorted(set(ids.tolist())) == list(range(nodes))


@pytest.mark.parametrize("pp", PROB_RULES, ids=ids)
def test_unfiltered_nodes_are_the_measures(pp):
    for r in range(1, 4):
        words, _, ids, nodes = grown_runs(pp, r, range(1, r + 2))
        assert words.tolist() == [list(w) for w in word_space(r)]
        for word, i in zip(words.tolist(), ids.tolist()):
            occupancy: dict = {}
            for (occ, _), (weight, _) in nodes[i].items():
                occupancy[occ] = occupancy.get(occ, 0) + weight
            assert occupancy == measure(pp, word).probs, word


def merge_back_rule() -> Procedure:
    """Branches only on the occupied set {2}, so it is not locally decided,
    and declares no flag."""

    def decide(st, occ, blk, a):
        if occ == {2}:
            return Fraction(1, 2)
        return RIGHT if blk.lo == 1 else LEFT

    return Procedure("merge-back", decide=decide)


def test_a_branch_that_merges_back_is_refused():
    # only car 2 of a word starting 2,2 branches, onto {1,2} or {2,3}; car 3
    # then fills {1,2,3} surely, so every word ends on a point mass of weight 1
    p = merge_back_rule()
    assert measure(p, (2, 2, 2)).probs == {frozenset({1, 2, 3}): 1}
    assert grown_runs(p, 3, range(1, 4), frozenset(range(1, 4)))[1] is None
    for query in (orbit_audit, fiber_counts_brute):
        with pytest.raises(ValueError, match="merge-back: a decision branches"):
            query(p, 3)


def test_a_rule_that_declares_no_flag_walks():
    # trusted as locally decided, the interval DP would give 3: it reads the
    # branch on block {2} as one on every block of one spot
    p = merge_back_rule()
    assert not p.decides_by_block
    per_word = sum((parking_probability(p, w) for w in word_space(2)), Fraction(0))
    assert total_parking_mass(p, 2) == per_word == Fraction(7, 2)


# ---------------------------------------------------------------------------
# decision tables: one engine call asks a rule that decides by block once
# per (block, letter)


class Asked:
    """Rule `p` with a `decide` that records the (lo, hi, letter) of every
    decision asked of it, one list per engine call: `decision_table`, which
    each engine call makes once, is patched to start the next list."""

    def __init__(self, p, monkeypatch):
        self.calls: list[list] = [[]]
        decide = p.decide

        def recorded(state, occ, blk, a):
            self.calls[-1].append((blk.lo, blk.hi, a))
            return decide(state, occ, blk, a)

        self.rule = dataclasses.replace(p, decide=recorded)
        table = procedures.decision_table
        monkeypatch.setattr(procedures, "decision_table", lambda q: self.calls.append([]) or table(q))

    def ask(self, query, *args):
        """`query(rule, *args)` and the number of decisions it asked."""
        self.calls = [[]]
        answer = query(self.rule, *args)
        return answer, sum(map(len, self.calls))


SPLIT = frozenset({1, 2, 4, 5})

# query, rule spec, decisions asked per call (the engine asked 253, 106,
# 186 and 43 at every (node, letter) step before decision tables);
# is_abelian keeps one table for all its lengths. Such a rule's landing
# weight takes the interval DP, which probes each block size below 4
# once: 1 + 2 + 3 decisions. naples:k=2 has violating orbits, which
# orbit_audit lists by replaying the tuple pass's tables, with no second
# table that would ask them again
TABLED = [
    (is_abelian, "pq:q=2", (4,), 30),
    (orbit_parking_mass, "pq:q=3", (4,), 16),
    (orbit_audit, "closest", (6,), 50),
    (orbit_audit, "naples:k=2", (5,), 30),
    (count_words_to_set, "right", (SPLIT, "brute"), 17),
    (landing_weight, "pq:q=2", (frozenset(range(1, 5)), None), 6),
]


@pytest.mark.parametrize(
    "query,spec,args,asked", TABLED, ids=[f"{q.__name__}-{spec}" for q, spec, _, _ in TABLED]
)
def test_block_rules_are_asked_once_per_block_and_letter(query, spec, args, asked, monkeypatch):
    p = parse_prob_spec(spec)
    expected = query(p, *args)
    rec = Asked(p, monkeypatch)
    assert p.decides_by_block
    assert rec.ask(query, *args) == (expected, asked)
    first = rec.calls
    assert all(len(call) == len(set(call)) for call in first)
    # the tables lived only as long as their calls: a second call asks again
    assert rec.ask(query, *args) == (expected, asked)
    assert rec.calls == first


def per_word_count(p, spots) -> int:
    spots = frozenset(spots)
    return sum(run(p, w).spots == spots for w in itertools.product(sorted(spots), repeat=len(spots)))


def per_word_orbit_masses(pp, r: int) -> dict:
    """Parking mass of every orbit of {1..r+1}^r, one `measure` per word,
    in representative order."""
    masses: dict = {}
    for word in word_space(r):
        rep = orbit_representative(word, r)
        masses[rep] = masses.get(rep, Fraction(0)) + parking_probability(pp, word)
    return dict(sorted(masses.items()))


# rule, length of its counts (None: its decisions branch), length of its
# masses and abelian checks, and the decisions asked by: count_parking, the
# brute count of SPLIT and orbit_audit at the first length;
# orbit_parking_mass, total_parking_mass and is_abelian at the second. Walks
# ask once per (pair, letter) per car, and grow_runs and orbit_tuples once
# per (pair, letter) per generation, however many nodes or tuples hold the
# pair: the branching kwseq rule's orbit masses asked 130 times and its
# abelian check 33 times when each node stepped its own pairs. None of
# these rules keeps a decision table, so an abelian check whose proof
# fails asks the proof's decisions again in its search: lbs 4 + 26,
# alternating 17 + 20, history-parity 4 + 39, the four-coin kwseq rule
# 27 + 21 and history-coin 5 + 38
UNTABLED = [
    # lbs's count and mass take the record DP, which probes each block size
    # below r once per record, 1 + 4 + 9 and 1 + 4 decisions, where its
    # walks asked 52 and 13
    (parse_proc_spec("lbs"), 4, 3, (14, 69, 52, 13, 5, 30)),
    (alternating_rule(), 4, 3, (28, 52, 28, 9, 9, 37)),
    # its count walks, asking as orbit_tuples does; its orbits violate, so
    # orbit_audit then replays the tuple pass's tables to list them, asking
    # nothing again
    (history_parity_rule(), 4, 3, (192, 198, 192, 19, 19, 43)),
    (parse_prob_spec("kwseq:qs=1/2+1/3"), None, 2, (2, 2, 3)),
    (parse_prob_spec("kwseq:qs=1/2+1/3+1/5+1"), None, 4, (28, 28, 48)),
    (history_coin_rule(), None, 4, (244, 244, 43)),
]


@pytest.mark.parametrize("p,count_r,mass_r,asked", UNTABLED, ids=[p.name for p, *_ in UNTABLED])
def test_other_rules_are_asked_at_every_step(p, count_r, mass_r, asked, monkeypatch):
    assert procedures.decision_table(p) is None
    rec = Asked(p, monkeypatch)
    answers, counts = [], []
    if count_r is not None:
        for query, *args in [(count_parking, count_r), (count_words_to_set, SPLIT, "brute"), (orbit_audit, count_r)]:
            answer, count = rec.ask(query, *args)
            answers.append(answer)
            counts.append(count)
        assert answers[0] == per_word_count(p, range(1, count_r + 1))
        assert answers[1] == per_word_count(p, SPLIT)
    for query in (orbit_parking_mass, total_parking_mass, is_abelian):
        answer, count = rec.ask(query, mass_r)
        answers.append(answer)
        counts.append(count)
    masses = per_word_orbit_masses(p, mass_r)
    assert answers[-3] == masses
    assert answers[-2] == sum(masses.values())
    assert (answers[-1].abelian, answers[-1].witness) == abelian_by_orderings(p, mass_r)
    assert tuple(counts) == asked


def parity_coin_rule() -> Procedure:
    """Goes right with probability 1/3 after an even letter sum and 1/2
    after an odd one: a rule that keeps a small state and branches, so
    that prefixes share (occupied set, state) pairs in different nodes."""
    return Procedure(
        "parity-coin",
        decide=lambda st, occ, blk, a: Fraction(1, 2) if st else Fraction(1, 3),
        init_state=lambda: 0,
        update=lambda st, a, spot: (st + a) % 2,
    )


@pytest.mark.parametrize("p", [merge_back_rule(), kw_procedure(Fraction(1, 2)), parity_coin_rule()], ids=ids)
def test_orbit_tuples_refuse_a_branch_as_the_key_engine(p):
    # the fibers over the parking words: the step table of a rule without
    # state, and the pair rows of parity-coin, which keeps state
    for r in (2, 3, 4):
        with pytest.raises(ValueError) as engine:
            fiber_counts_brute(p, r)
        with pytest.raises(ValueError) as tuples:
            orbit_audit(p, r)
        assert str(tuples.value) == str(engine.value) == f"{p.name}: a decision branches; measure() follows both choices"


@pytest.mark.parametrize(
    "p", [parse_prob_spec("kwseq:qs=1/2+1/3+1/5+1"), parity_coin_rule()], ids=ids
)
def test_grow_runs_asks_once_per_pair_and_letter(p):
    # a branching rule with no decision table, asked at every step
    asked = Counter()
    decide = p.decide

    def recorded(st, occ, blk, a):
        asked.update([(occ, st, a)])
        return decide(st, occ, blk, a)

    rule = dataclasses.replace(p, decide=recorded)
    r, letters = 4, range(1, 5)
    spots = frozenset(letters)
    assert procedures.decision_table(rule) is None
    procedures.grow_runs(rule, r, letters, spots, None)
    # the pairs of each generation, stepped over every letter at once; the
    # generation is the size of the occupied set
    expected = Counter()
    level = procedures.initial_level(p)
    for _ in range(r):
        expected.update((occ, st, a) for occ, st in level[1] for a in letters if a in occ)
        level = procedures.merge_step(p, level, letters, spots)
    assert asked == expected
    assert set(asked.values()) == {1}


def test_grow_runs_logs_its_generations(caplog):
    caplog.set_level(logging.DEBUG, logger="parkline")
    # pair steps per query; stepping each pair in every node that holds it
    # would take 172 for orbit_parking_mass. kw:q=1/2 fails is_abelian's
    # proof, so its search grows words, up to its witness at length 3
    for query, spec, steps in ((is_abelian, "kw:q=1/2", 66), (orbit_parking_mass, "pq:q=3", 60)):
        caplog.clear()
        query(parse_prob_spec(spec), 4)
        grown = [record for record in caplog.records if hasattr(record, "nodes")]
        assert sum(record.pair_steps for record in grown) == steps
        for record in grown:
            assert (record.name, record.levelno) == ("parkline", logging.DEBUG)
            # each generation's pairs, and the first one pair, over every letter
            width = len(record.pairs) + (query is is_abelian)
            assert record.pair_steps == width * (1 + sum(record.pairs[:-1]))
            assert f"{record.pair_steps:,} pair steps" in record.getMessage()
            assert all(nodes >= 1 for nodes in record.nodes)
            # the abelian search keeps one row per word
            if query is is_abelian:
                assert record.rows == [width**k for k in range(1, width)]
    # a rule with one parking word per orbit grows no word: one tuple
    # record, with the pairs and pair steps of the parking words over r = 5
    # letters, and last tuples that each hold one rotation on the full set
    caplog.clear()
    orbit_audit(parse_proc_spec("closest"), 5)
    [record] = [record for record in caplog.records if hasattr(record, "pair_steps")]
    assert (record.name, record.levelno) == ("parkline", logging.DEBUG)
    assert (record.pairs, record.tuples) == ([5, 10, 10, 5, 1], [1, 5, 10, 10, 5])
    assert record.pair_steps == 5 * (1 + sum(record.pairs[:-1])) == 155
    assert "155 pair steps" in record.getMessage()
    # the fibers of a rule with state merge rows of one partial outcome and
    # pair: more rows than the 5!/(5-k)! outcomes
    caplog.clear()
    fiber_counts_brute(state_parity_rule(), 5)
    [record] = [record for record in caplog.records if hasattr(record, "pair_steps")]
    assert (record.name, record.levelno) == ("parkline", logging.DEBUG)
    assert (record.pairs, record.rows) == ([5, 12, 18, 10, 2], [5, 24, 92, 218, 238])
    assert record.pair_steps == 5 * (1 + sum(record.pairs[:-1])) == 230
    assert record.getMessage() == (
        "outcome rows: state-parity, 230 pair steps, pairs [5, 12, 18, 10, 2], rows [5, 24, 92, 218, 238]"
    )


def test_step_counts_log_their_sets(caplog):
    caplog.set_level(logging.DEBUG, logger="parkline")
    # a rule without state steps the occupied sets, one generation per car:
    # C(5, k) sets after k cars, each stepped by the 5 letters
    fiber_counts_brute(parse_proc_spec("closest"), 5)
    [record] = [record for record in caplog.records if hasattr(record, "pair_steps")]
    assert (record.name, record.levelno) == ("parkline", logging.DEBUG)
    assert record.sets == [5, 10, 10, 5, 1]
    assert record.pair_steps == 5 * (1 + sum(record.sets[:-1])) == 155
    assert record.getMessage() == "step_counts: closest, 155 pair steps, sets [5, 10, 10, 5, 1]"
    assert not hasattr(record, "rows")


PROBABILITIES = st.one_of(st.sampled_from((0, 1)), st.fractions(0, 1, max_denominator=6))


@st.composite
def block_rules(draw):
    """A probabilistic rule that decides by block. Its right-probability,
    0 and 1 among the values, is drawn per (block size, offset), and also
    per parity of the block's first spot when the rule is not shift
    invariant."""
    by_parity = draw(st.booleans())
    probs = {
        (parity, size, i): draw(PROBABILITIES)
        for parity in ((0, 1) if by_parity else (0,))
        for size in range(1, 5)
        for i in range(1, size + 1)
    }

    def decide(state, occ, blk, a):
        return probs[blk.lo % 2 if by_parity else 0, blk.size, a - blk.lo + 1]

    return Procedure("random-block", decide=decide, is_shift_invariant=not by_parity, is_locally_decided=True)


@given(pp=block_rules(), r=st.integers(1, 4), kept=st.booleans())
@settings(max_examples=30, deadline=None)
def test_nodes_are_their_prefixes_levels_in_lowest_terms(pp, r, kept):
    # merge_step, one word at a time with no decision table, is the reference
    letters = range(1, r + 2)
    spots = frozenset(range(1, r + 1)) if kept else None
    words, _, ids, nodes = procedures.grow_runs(pp, r, letters, spots, procedures.decision_table(pp))
    grown = dict(zip(map(tuple, words.tolist()), ids.tolist()))
    for word in word_space(r):
        level = procedures.initial_level(pp)
        for a in word:
            level = procedures.merge_step(pp, level, (a,), spots)
        den, runs = level
        if not runs:
            assert word not in grown
            continue
        g = math.gcd(den, *runs.values())
        assert nodes[grown.pop(word)] == (den // g, {key: w // g for key, w in runs.items()}), word
    assert not grown


def assert_tables_exact(pp, r: int):
    assert pp.decides_by_block
    masses = orbit_parking_mass(pp, r)
    assert list(masses.items()) == list(per_word_orbit_masses(pp, r).items())
    report = is_abelian(pp, r)
    assert (report.abelian, report.witness) == abelian_by_orderings(pp, r)


@given(pp=block_rules(), r=st.integers(1, 4))
@settings(max_examples=50, deadline=None)
def test_tabled_masses_and_abelian_checks_are_exact(pp, r):
    assert_tables_exact(pp, r)


@pytest.mark.parametrize("q", [Fraction(0), Fraction(1, 2), Fraction(2), Fraction(3), INFINITY], ids=str)
def test_tabled_pq_is_exact(q):
    assert_tables_exact(pq_procedure(q), 4)


@pytest.mark.parametrize(
    "answer,message",
    [
        (0.5, "decide returned 0.5, not a Direction or an exact probability"),
        (True, "decide returned True, not a Direction or an exact probability"),
        (Fraction(3, 2), "decide returned probability 3/2 outside [0, 1]"),
        (-1, "decide returned probability -1 outside [0, 1]"),
    ],
    ids=repr,
)
def test_refused_decisions_are_never_stored(answer, message):
    asked = []
    p = Procedure("bad", decide=lambda *args: asked.append(args) or answer, is_locally_decided=True)
    table = procedures.decision_table(p)
    assert table == {}
    for tries in (1, 2):
        with pytest.raises(ValueError, match=re.escape(f"bad: {message}")):
            int_choices(p, None, frozenset({1}), 1, 1, table)
        assert table == {} and len(asked) == tries
    # each engine call refuses alike: nothing refused was kept
    for query in (orbit_parking_mass, orbit_parking_mass, is_abelian, is_abelian):
        with pytest.raises(ValueError, match=re.escape(f"bad: {message}")):
            query(p, 2)
