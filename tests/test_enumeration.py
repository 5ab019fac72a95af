import dataclasses
import itertools
import logging
import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parkline.enumeration import (
    WORK_BUDGET,
    CapExceededError,
    StrictTableError,
    block_sides,
    check_universal,
    count_parking,
    count_words_to_set,
    landing_weight,
    orbit_audit,
)
from conftest import (
    alternating_rule,
    history_parity_rule,
    oracle_lbs_run,
    oracle_mass,
    oracle_run,
    random_dir_tables,
    random_tables,
    state_parity_rule,
)
from parkline.forests import fiber_counts
from parkline.probabilistic import INFINITY, kw_procedure, parse_prob_spec, pq_procedure, total_parking_mass
from parkline.procedures import (
    LEFT,
    RIGHT,
    Procedure,
    block_record,
    builtin,
    index_rule_procedure,
    is_parking,
    parse_proc_spec,
    record_parked,
    table_procedure,
    walk_occupied,
)
from parkline.words import Block

LOCAL = ["right", "left", "closest", "prime", "lbs"]


class TestCountParking:
    @pytest.mark.parametrize("r,expected", [(1, 1), (2, 3), (3, 16), (4, 125)])
    def test_right_small_values(self, r, expected):
        assert count_parking(builtin("right"), r) == expected

    def test_evenodd_r2(self):
        assert count_parking(builtin("evenodd"), 2) == 2

    def test_naples_r2(self):
        assert count_parking(builtin("naples", k=1), 2) == 4

    def test_far_r3(self):
        assert count_parking(builtin("far"), 3) == 14

    def test_far_some_convention_gives_14(self):
        counts = {
            conv: count_parking(builtin("far", convention=conv), 3)
            for conv in ("prose", "notation")
        }
        assert counts["prose"] == 14  # the reading that matches the known count
        assert 14 in counts.values()

    def test_brute_force_definition(self):
        # independent oracle: count by filtering is_parking over the space
        p = builtin("closest")
        for r in (1, 2, 3):
            direct = sum(
                is_parking(p, w)
                for w in itertools.product(range(1, r + 2), repeat=r)
            )
            assert count_parking(p, r) == direct

    def test_cap(self):
        # a walk over 30 spots, a record DP past 25 spots, and an interval
        # DP past 56 spots
        with pytest.raises(CapExceededError, match="walk over 30 spots"):
            count_parking(state_parity_rule(), 30)
        with pytest.raises(CapExceededError, match="interval DP over 26 spots"):
            count_parking(builtin("lbs"), 26)
        with pytest.raises(CapExceededError, match="interval DP over 57 spots"):
            count_parking(builtin("right"), 57)
        assert count_parking(builtin("right"), 56) == 57**55
        with pytest.raises(ValueError):
            count_parking(builtin("right"), 0)

    def test_strict_table_refuses_beyond_rows(self):
        from parkline.procedures import DirTable, Direction

        table = DirTable(
            ((Direction.RIGHT,), (Direction.RIGHT, Direction.LEFT),
             (Direction.LEFT, Direction.RIGHT, Direction.LEFT)),
        )
        strict = table_procedure(table, strict=True)
        assert count_parking(strict, 3) == 16
        with pytest.raises(StrictTableError):
            count_parking(strict, 4)
        loose = table_procedure(table)
        assert count_parking(loose, 4) == 125


MEMORYLESS = [
    parse_proc_spec(s)
    for s in ("right", "left", "closest", "prime", "evenodd", "naples:k=2", "far")
]
MEMORYLESS.append(index_rule_procedure((RIGHT, LEFT, LEFT, RIGHT, LEFT, RIGHT)))
MEMORYLESS += random_dir_tables(3, 6, seed=11)


def walked(p, target):
    """`landing_weight` on the walk, also for a rule that decides by block."""
    return landing_weight(dataclasses.replace(p, is_locally_decided=False), target, None)


class TestWalk:
    """count_parking's walk over occupied sets against word enumeration."""

    @pytest.mark.parametrize("p", MEMORYLESS, ids=lambda p: p.name)
    def test_walk_equals_brute(self, p):
        for r in range(1, 7):
            brute = count_parking(p, r, backend="python" if r <= 4 else "numpy")
            counted = count_parking(p, r)
            num, den = walked(p, frozenset(range(1, r + 1)))
            assert type(counted) is int and type(num) is int
            assert counted == num == brute and den == 1, (p.name, r)

    def test_walk_beyond_word_cap(self):
        assert count_parking(builtin("right"), 12, cap=None) == 13**11

    def test_which_counts_walk(self, monkeypatch):
        import parkline.enumeration as enumeration

        walks, dps = [], []
        real, real_dp = enumeration.walk_occupied, enumeration.interval_weight
        monkeypatch.setattr(
            enumeration,
            "walk_occupied",
            lambda target, *args, **kw: walks.append(target) or real(target, *args, **kw),
        )
        monkeypatch.setattr(
            enumeration,
            "interval_weight",
            lambda p, target, *args: dps.append(target) or real_dp(p, target, *args),
        )
        # memoryless, locally decided rules take the interval DP, and so
        # does lbs, a locally decided rule whose state is a block record
        decided = [parse_proc_spec(s) for s in ("right", "closest", "evenodd", "naples:k=2", "lbs")]
        for p in decided + random_dir_tables(2, 4, seed=5):
            assert count_parking(p, 3) == count_parking(p, 3, backend="python"), p.name
        assert dps == [{1, 2, 3}] * 7 and walks == []
        dps.clear()
        for backend in ("numpy", "python"):
            assert count_parking(builtin("right"), 3, backend=backend) == 16
        assert dps == [] and walks == []
        # memoryless rules that are not locally decided walk
        for p in (builtin("far"), index_rule_procedure((RIGHT, LEFT, LEFT))):
            walks.clear()
            assert count_parking(p, 3) == count_parking(p, 3, backend="python")
            assert walks == [{1, 2, 3}]
        walks.clear()
        # other rules with an `update` walk (occupied set, state) pairs
        for p in (alternating_rule(), state_parity_rule()):
            for r in range(1, 6):
                words = itertools.product(range(1, r + 2), repeat=r)
                per_word = sum(is_parking(p, w) for w in words)
                walks.clear()
                assert count_parking(p, r) == per_word, (p.name, r)
                assert walks == [set(range(1, r + 1))]
        # a rule whose state is its history walks too
        history = history_parity_rule()
        walks.clear()
        counts = [count_parking(history, r) for r in range(1, 6)]
        assert counts == [1, 4, 14, 126, 1164]
        for r, count in enumerate(counts, start=1):
            words = itertools.product(range(1, r + 2), repeat=r)
            assert count == sum(is_parking(history, w) for w in words)
        assert walks == [set(range(1, r + 1)) for r in range(1, 6)] and dps == []
        assert counts == [count_parking(state_parity_rule(), r) for r in range(1, 6)]

    def test_over_budget_refused_before_any_car(self, monkeypatch):
        import parkline.enumeration as enumeration

        def refuse(*args, **kw):
            raise AssertionError("no car may be placed over the budget")

        monkeypatch.setattr(enumeration, "walk_occupied", refuse)
        monkeypatch.setattr(enumeration, "block_sides", refuse)
        monkeypatch.setattr(enumeration, "letter_sides", refuse)
        monkeypatch.setattr(enumeration, "orbit_tuples", refuse)
        with pytest.raises(CapExceededError, match="walk over 30 spots: 32,212,254,720 car steps"):
            count_parking(state_parity_rule(), 30)
        # the record DP is estimated at 30^5
        with pytest.raises(CapExceededError, match="interval DP over 30 spots: 24,300,000 car steps"):
            count_parking(builtin("lbs"), 30)
        with pytest.raises(CapExceededError, match="interval DP over 57 spots: 10,556,001 car steps"):
            count_parking(builtin("right"), 57)
        # each block of a spot set is estimated on its own: 2 * 50^4
        two_blocks = [*range(-60, -10), *range(1, 51)]
        with pytest.raises(CapExceededError, match="interval DP over 100 spots: 12,500,000 car"):
            count_words_to_set(builtin("naples", k=2), two_blocks)
        with pytest.raises(CapExceededError, match="words over 9 letters"):
            count_parking(builtin("right"), 9, backend="python")
        with pytest.raises(CapExceededError, match="parking runs of length 9"):
            orbit_audit(builtin("right"), 9)

    def test_walk_levels_count_against_budget(self):
        # the estimate 2^6 * 6 = 384 bounds a memoryless walk (far is not
        # locally decided, so it walks); state-parity visits 1+6+18+34+30+12
        # (occupied set, state) pairs, 606 car steps. Its fourth level is
        # refused as it grows, at its 6th pair: 6 * (1+6+18+34) + 6 * 6 = 390
        estimate = 2**6 * 6
        assert count_parking(builtin("far"), 6, cap=estimate) == count_parking(builtin("far"), 6)
        with pytest.raises(CapExceededError, match="walk over 6 spots: 390 car steps"):
            count_parking(state_parity_rule(), 6, cap=estimate)
        assert count_parking(state_parity_rule(), 6, cap=606) == 16954
        # the interval DP over 6 spots is estimated at 6^4 car steps, and
        # the record DP of lbs at 6^5
        with pytest.raises(CapExceededError, match="interval DP over 6 spots: 1,296 car steps"):
            count_parking(builtin("right"), 6, cap=estimate)
        assert count_parking(builtin("right"), 6, cap=6**4) == 7**5
        with pytest.raises(CapExceededError, match="interval DP over 6 spots: 7,776 car steps"):
            count_parking(builtin("lbs"), 6, cap=6**5 - 1)
        assert count_parking(builtin("lbs"), 6, cap=6**5) == 7**5

    def test_walk_refuses_a_level_before_it_passes_the_budget(self):
        from parkline.procedures import walk_occupied

        # history-parity's pairs are its prefixes, so each level is about
        # n times the last: the walk is refused while a level grows, at the
        # first pair whose steps pass the budget, not once the level is
        # built and the next car is about to be placed
        seen = []

        def check(steps):
            seen.append(steps)
            if steps > 100_000:
                raise CapExceededError(steps)

        with pytest.raises(CapExceededError):
            walk_occupied(frozenset(range(1, 10)), history_parity_rule(), check)
        assert 100_000 < seen[-1] <= 100_000 + 9
        # the last level is only summed, so 2,780 car steps fit r = 5,
        # although its 1,164 pairs would take 5,820 more
        assert landing_weight(history_parity_rule(), frozenset(range(1, 6)), 2780) == (1164, 1)
        with pytest.raises(CapExceededError, match="walk over 5 spots: 2,780 car steps"):
            landing_weight(history_parity_rule(), frozenset(range(1, 6)), 2779)

    def test_caps_still_apply(self):
        with pytest.raises(CapExceededError):
            count_parking(state_parity_rule(), 30)
        with pytest.raises(CapExceededError, match="interval DP"):
            count_parking(builtin("lbs"), 30)
        with pytest.raises(CapExceededError):
            count_parking(builtin("right"), 57)
        assert count_parking(builtin("right"), 57, cap=None) == 58**56


def _pq_right_prob(q):
    """[i]/[size+1] of the q-deformed rule, from its definition."""

    def right_prob(size, i):
        if q is INFINITY:
            return 0
        return sum(q**e for e in range(i)) / sum(q**e for e in range(size + 1))

    return right_prob


SPOT_SETS = st.sets(st.integers(-2, 7), max_size=5)
COINS = st.one_of(
    st.tuples(st.just("pq"), st.fractions(0, 4, max_denominator=6)),
    st.tuples(st.just("pq"), st.just(INFINITY)),
    st.tuples(st.just("kw"), st.fractions(0, 1, max_denominator=6)),
)


class TestIntervalDP:
    """The interval DP over the forest encoding against the walk, the brute
    count and the conftest oracles."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32), SPOT_SETS)
    def test_tables_equal_walk_brute_and_oracle(self, seed, spots):
        [table] = random_tables(1, 5, seed)
        p = table_procedure(table)
        target = frozenset(spots)
        counted = count_words_to_set(p, spots)
        words = itertools.product(sorted(target), repeat=len(target))
        oracle = sum(oracle_run("table", w, table=table)[0] == target for w in words)
        assert type(counted) is int
        assert walked(p, target) == (counted, 1)
        assert counted == count_words_to_set(p, spots, "brute") == oracle

    @settings(max_examples=40, deadline=None)
    @given(COINS, st.integers(1, 6), SPOT_SETS)
    def test_pq_and_kw_masses_equal_walk_and_oracle(self, coin, r, spots):
        family, q = coin
        pp = pq_procedure(q) if family == "pq" else kw_procedure(q)
        full = frozenset(range(1, r + 1))
        mass = total_parking_mass(pp, r)
        assert type(mass) is Fraction
        assert mass == Fraction(*walked(pp, full)) == (r + 1) ** (r - 1)
        target = frozenset(spots)
        right_prob = _pq_right_prob(q) if family == "pq" else lambda size, i: q
        weight = Fraction(*landing_weight(pp, target, None))
        assert weight == Fraction(*walked(pp, target)) == oracle_mass(right_prob, target)

    def test_far_takes_the_walk(self, monkeypatch):
        import parkline.enumeration as enumeration

        far = builtin("far")
        # far decides on the whole occupied set: the DP would count 16
        flagged = dataclasses.replace(far, is_locally_decided=True)
        assert landing_weight(flagged, frozenset({1, 2, 3}), None) == (16, 1)
        monkeypatch.setattr(enumeration, "block_sides", None)
        assert landing_weight(far, frozenset({1, 2, 3}), None) == (14, 1)
        assert count_parking(far, 3) == 14
        assert total_parking_mass(far, 3) == 14

    def test_lbs_never_reaches_block_sides(self, monkeypatch):
        import parkline.enumeration as enumeration

        def refuse(*args):
            raise AssertionError("lbs has no block sides")

        monkeypatch.setattr(enumeration, "block_sides", refuse)
        lbs = builtin("lbs")
        for r in range(1, 6):
            assert count_parking(lbs, r) == (r + 1) ** (r - 1)
        assert total_parking_mass(lbs, 4) == 125
        assert count_words_to_set(lbs, {1, 2, 4}) == count_words_to_set(lbs, {1, 2, 4}, "brute")
        with pytest.raises(ValueError, match="memoryless and locally decided"):
            fiber_counts(lbs, [(2, 1)])

    # every catalog rule flagged local that has block sides, and pq and kw
    SIZED = [builtin(name) for name in ("right", "left", "closest", "prime")] + [
        *random_dir_tables(2, 4, seed=18),
        pq_procedure(Fraction(2)),
        pq_procedure(Fraction(1, 3)),
        pq_procedure(INFINITY),
        kw_procedure(Fraction(1, 3)),
    ]

    @pytest.mark.parametrize("p", SIZED, ids=lambda p: p.name)
    def test_local_sides_depend_only_on_the_size(self, p):
        # the DP and label sets probe a local rule once per block size, on
        # the block that starts at 1
        assert p.is_local and p.decides_by_block
        for a in range(1, 8):
            for b in range(a, 8):
                sides, sized = block_sides(p, a, b), block_sides(p, 1, b - a + 1)
                assert sides == sized and list(map(type, sides)) == list(map(type, sized)), (a, b)

    @pytest.mark.parametrize("p", SIZED, ids=lambda p: p.name)
    def test_sides_by_size_equal_sides_by_block(self, p):
        # the same rule flagged not shift invariant is probed once per block
        by_block = dataclasses.replace(p, is_shift_invariant=False)
        for spots in ({1, 2, 3, 4, 5}, {-1, 0, 2, 3, 4, 6}, {3, 4, 5, 6, 7, 8, 9}):
            sized = landing_weight(p, frozenset(spots), None)
            blocked = landing_weight(by_block, frozenset(spots), None)
            assert sized == blocked and list(map(type, sized)) == [int, int], spots

    def test_blocks_of_one_target_share_their_probes(self, monkeypatch):
        import parkline.enumeration as enumeration

        probes = []
        real = enumeration.block_sides
        monkeypatch.setattr(
            enumeration, "block_sides", lambda *args: probes.append(args[1:]) or real(*args)
        )
        target = {*range(1, 7), *range(10, 16), *range(20, 26)}
        # three blocks of 6 interleave in 18!/(6!)^3 ways, and 7^5 words
        # land on each block
        count = count_words_to_set(builtin("right"), target)
        assert count == math.factorial(18) // math.factorial(6) ** 3 * 7**15
        # right is local, so each side size below 6 is probed once, on
        # [1, size], for the whole target, not once per block
        assert sorted(probes) == [(1, n) for n in range(1, 6)]

    @pytest.mark.parametrize("spec,sure", [("kw:q=1/2", "kw:q=0"), ("pq:q=2", "pq:q=0")])
    def test_branching_sides_keep_their_fractions(self, spec, sure):
        # a branching block has D > 1, and R/D and L/D are the sums of the
        # right- and left-probabilities its decisions return
        pp = parse_prob_spec(spec)
        for a, b in ((1, 1), (1, 3), (2, 5)):
            right, left, den = block_sides(pp, a, b)
            assert den > 1 and list(map(type, (right, left, den))) == [int, int, int]
            occupied, blk = frozenset(range(a, b + 1)), Block(a, b)
            probs = [Fraction(pp.decide(None, occupied, blk, j)) for j in range(a, b + 1)]
            assert Fraction(right, den) == sum(probs) and Fraction(left, den) == sum(1 - q for q in probs)
        # the mass stays a Fraction, even where it is whole, and the count
        # of the same family's rule that never branches an int
        mass = total_parking_mass(pp, 3)
        assert type(mass) is Fraction and mass == 16
        count = count_parking(parse_prob_spec(sure), 3)
        assert type(count) is int and count == 16
        with pytest.raises(ValueError, match=f"^{re.escape(spec)} branches; total_parking_mass weighs its runs$"):
            count_parking(pp, 3)

    def test_lbs_is_local_but_has_no_block_sides(self):
        # its decisions read the block's record, which the empty state lacks
        lbs = builtin("lbs")
        assert lbs.is_local and not lbs.decides_by_block
        for a, b in ((1, 1), (2, 3)):
            with pytest.raises(ValueError, match=f"no record for block {a}..{b}"):
                block_sides(lbs, a, b)

    def test_random_table_universal_at_40(self):
        [table] = random_tables(1, 40, seed=40)
        assert count_parking(table_procedure(table), 40) == 41**39

    def test_pq_mass_at_20(self):
        assert total_parking_mass(pq_procedure(Fraction(2)), 20) == 21**19

    def test_branching_count_still_refused(self):
        # kw:q=1/2 has a mass at r=2, 3, not a count
        with pytest.raises(ValueError, match="kw:q=1/2 branches"):
            count_parking(kw_procedure(Fraction(1, 2)), 2)
        assert count_words_to_set(kw_procedure(Fraction(1, 2)), {5}) == 1


class TestPathLog:
    """Every count and mass reports its path and estimate on the `parkline`
    logger, one DEBUG record per query."""

    def test_one_record_per_query(self, caplog):
        right, lbs = builtin("right"), builtin("lbs")
        cases = [
            (lambda: count_parking(right, 5), "interval DP", 5**4),
            (lambda: count_words_to_set(right, {1, 2, 4}), "interval DP", 2**4 + 1),
            (lambda: count_parking(lbs, 5), "interval DP", 5**5),
            (lambda: count_parking(state_parity_rule(), 5), "walk", 2**5 * 5),
            (lambda: count_words_to_set(right, {1, 2, 4}, "brute"), "engine", 3**3 * 3),
            (lambda: count_parking(history_parity_rule(), 3), "walk", 2**3 * 3),
            (lambda: count_parking(right, 3, backend="python"), "per-word", 3**3 * 3),
            (lambda: total_parking_mass(pq_procedure(Fraction(2)), 4), "interval DP", 4**4),
            (lambda: total_parking_mass(lbs, 3), "interval DP", 3**5),
            (lambda: total_parking_mass(state_parity_rule(), 3), "walk", 2**3 * 3),
            (lambda: total_parking_mass(history_parity_rule(), 3), "walk", 2**3 * 3),
        ]
        caplog.set_level(logging.DEBUG, logger="parkline")
        for query, path, estimate in cases:
            caplog.clear()
            query()
            [record] = caplog.records
            assert (record.name, record.levelno) == ("parkline", logging.DEBUG)
            assert (record.path, record.estimate, record.budget) == (path, estimate, WORK_BUDGET)
            assert record.getMessage().startswith(f"{path}: ")
            assert f"{estimate:,} car steps estimated, budget 10,000,000" in record.getMessage()

    def test_refusal_and_lifted_budget_are_logged(self, caplog):
        caplog.set_level(logging.DEBUG, logger="parkline")
        with pytest.raises(CapExceededError):
            count_parking(builtin("right"), 57)
        [record] = caplog.records
        assert (record.path, record.estimate) == ("interval DP", 57**4)
        caplog.clear()
        count_parking(builtin("right"), 3, cap=None)
        [record] = caplog.records
        assert record.budget is None and record.getMessage().endswith("budget lifted")

    def test_abelian_checks_and_colored_audits_are_logged(self, caplog):
        from parkline.colored import colored_lbs_procedure, colored_orbit_audit, distinct_letters_language
        from parkline.probabilistic import is_abelian

        def colored(r):
            return colored_orbit_audit(colored_lbs_procedure(), distinct_letters_language(), r, (1, 2))

        # and the records after the path record: an admitted abelian
        # check's proof, then the grow_runs calls, one per length, of a
        # search made where the proof fails
        cases = [
            (lambda: is_abelian(pq_procedure(Fraction(2)), 3), "abelian check up to length 3", 212, 0),
            (lambda: is_abelian(kw_procedure(Fraction(1, 2)), 3), "abelian check up to length 3", 212, 3),
            (lambda: colored(2), "colored words over 6 letters", 6**2 * 2, 0),
            (lambda: is_abelian(pq_procedure(Fraction(2)), 7), "abelian check up to length 7", 15_427_550, 0),
            (lambda: colored(6), "colored words over 14 letters", 14**6 * 6, 0),
        ]
        caplog.set_level(logging.DEBUG, logger="parkline")
        for query, path, estimate, grown in cases:
            caplog.clear()
            if estimate > WORK_BUDGET:
                with pytest.raises(CapExceededError, match=f"^{path}: {estimate:,} car steps exceed"):
                    query()
            else:
                query()
            [record, *runs] = caplog.records
            proofs = [run for run in runs if hasattr(run, "proved")]
            assert len(proofs) == (path.startswith("abelian") and estimate <= WORK_BUDGET)
            runs = [run for run in runs if not hasattr(run, "proved")]
            assert [len(run.pairs) for run in runs] == list(range(1, grown + 1))
            assert (record.path, record.estimate, record.budget) == ("engine", estimate, WORK_BUDGET)
            assert record.getMessage() == (
                f"engine: {path}, {estimate:,} car steps estimated, budget 10,000,000"
            )


def walked_pairs(p, target):
    """`walk_occupied` of `p` on `target`, with no budget: (occupied set,
    state) pairs, which for lbs are block records."""
    return walk_occupied(frozenset(target), p, lambda steps: None)


class TestLbsWalk:
    """lbs counted on the record DP against its walk over (occupied set,
    block record) pairs, the per-word engine and the conftest oracle."""

    def test_walk_equals_engine_and_oracle(self):
        p = builtin("lbs")
        for r in range(1, 7):
            full = set(range(1, r + 1))
            words = itertools.product(range(1, r + 2), repeat=r)
            oracle = sum(oracle_lbs_run(w)[0] == full for w in words)
            assert walked_pairs(p, full) == landing_weight(p, frozenset(full), None)
            counts = {
                count_parking(p, r),
                count_parking(p, r, backend="python"),
                oracle,
            }
            assert counts == {(r + 1) ** (r - 1)}, r

    def test_walk_beyond_word_enumeration(self):
        p = builtin("lbs")
        for r in range(7, 10):
            full = range(1, r + 1)
            assert walked_pairs(p, full) == landing_weight(p, frozenset(full), None) == ((r + 1) ** (r - 1), 1)


def record_rule(name, decide) -> Procedure:
    """A locally decided rule whose state is a block record, kept as lbs
    keeps it."""
    return Procedure(name, decide=decide, init_state=tuple, update=record_parked, is_locally_decided=True)


class TestRecordDP:
    """The interval DP with block records carried, against the walk."""

    def test_lbs_universal_up_to_the_budget(self, caplog):
        lbs = builtin("lbs")
        assert lbs.decides_by_block_record and not lbs.decides_by_block
        caplog.set_level(logging.DEBUG, logger="parkline")
        for r in range(1, 26):
            caplog.clear()
            assert count_parking(lbs, r) == (r + 1) ** (r - 1), r
            [record] = caplog.records
            assert (record.path, record.estimate) == ("interval DP", r**5)
        with pytest.raises(CapExceededError, match="interval DP over 26 spots: 11,881,376 car steps"):
            count_parking(lbs, 26)

    @pytest.mark.parametrize("spots", [{1, 2, 4}, {-1, 0, 2, 3, 4, 6}, {3, 4, 5, 6, 7, 8, 9}, {1, 3, 5}])
    def test_multi_block_targets_equal_the_walk(self, spots):
        lbs = builtin("lbs")
        counted = count_words_to_set(lbs, spots)
        assert (counted, 1) == walked_pairs(lbs, spots) == landing_weight(lbs, frozenset(spots), None)
        assert counted == count_words_to_set(lbs, spots, "brute")

    def test_local_rule_probed_once_per_size_and_record(self, monkeypatch):
        import parkline.enumeration as enumeration

        probes = []
        real = enumeration.letter_sides
        monkeypatch.setattr(
            enumeration, "letter_sides", lambda *args: probes.append(args[1:]) or real(*args)
        )
        target = {*range(1, 6), *range(10, 15)}
        assert count_words_to_set(builtin("lbs"), target) == math.comb(10, 5) * 6**8
        # both blocks share the probes of the blocks [1, n], one per record
        assert sorted(probes) == [(1, n, ((1, n, t),)) for n in range(1, 5) for t in range(1, n + 1)]

    def test_rule_not_shift_invariant_is_probed_per_block(self, monkeypatch):
        import parkline.enumeration as enumeration

        # right iff the letter reaches the record on blocks that start even,
        # and iff it does not on the others
        p = record_rule(
            "parity-lbs",
            lambda st, occ, blk, a: RIGHT if (a >= block_record(st, blk)) == (blk.lo % 2 == 0) else LEFT,
        )
        assert p.decides_by_block_record and not p.is_local
        probes = []
        real = enumeration.letter_sides
        monkeypatch.setattr(
            enumeration, "letter_sides", lambda *args: probes.append(args[1:3]) or real(*args)
        )
        for spots in ({1, 2, 3, 4, 5}, {-1, 0, 2, 3, 4, 6}, {2, 3, 4, 5, 6, 7}):
            probes.clear()
            assert landing_weight(p, frozenset(spots), None) == walked_pairs(p, spots), spots
            assert {lo for lo, _ in probes} - {1}
        assert count_parking(p, 5) == 1040 != 6**4

    def test_branching_record_rule_mass_equals_the_walk(self):
        # right with probability 2/3 or 1/4, as the letter reaches the
        # record or not, and 1/2 on blocks that start odd
        def decide(st, occ, blk, a):
            if blk.lo % 2:
                return Fraction(1, 2)
            return Fraction(2, 3) if a >= block_record(st, blk) else Fraction(1, 4)

        p = record_rule("coin-lbs", decide)
        for r in range(1, 7):
            full = frozenset(range(1, r + 1))
            num, den = landing_weight(p, full, None)
            assert type(num) is int and type(den) is int
            assert total_parking_mass(p, r) == Fraction(num, den) == Fraction(*walked_pairs(p, full)), r
        spots = {-1, 0, 2, 3, 5}
        assert Fraction(*landing_weight(p, frozenset(spots), None)) == Fraction(*walked_pairs(p, spots))
        with pytest.raises(ValueError, match="coin-lbs branches"):
            count_parking(p, 3)

    def test_partial_rule_raises_as_the_walk_does(self):
        from parkline.colored import UndefinedRuleError, colored_lbs_procedure

        p = colored_lbs_procedure()
        assert p.decides_by_block_record
        assert count_parking(p, 1) == walked_pairs(p, {1})[0] == 1
        for r in (2, 3, 4):
            with pytest.raises(UndefinedRuleError) as dp:
                count_parking(p, r)
            with pytest.raises(UndefinedRuleError) as walk:
                walked_pairs(p, range(1, r + 1))
            assert str(dp.value) == str(walk.value)


class TestOrbitAudit:
    def test_right_r3(self):
        rep = orbit_audit(builtin("right"), 3)
        assert rep.orbit_count == 16
        assert rep.histogram == {1: 16}
        assert rep.all_one
        assert rep.parking_total == 16

    def test_far_r3_footnote(self):
        rep = orbit_audit(builtin("far"), 3)
        assert rep.histogram == {0: 2, 1: 14}
        empties = {v.representative for v in rep.violations}
        assert empties == {(1, 3, 1), (1, 3, 3)}
        members = {frozenset(v.members) for v in rep.violations}
        assert frozenset({(1, 3, 1), (2, 4, 2), (3, 1, 3), (4, 2, 4)}) in members
        assert frozenset({(1, 3, 3), (2, 4, 4), (3, 1, 1), (4, 2, 2)}) in members
        assert all(v.parking_count == 0 for v in rep.violations)

    def test_single_car(self):
        rep = orbit_audit(builtin("right"), 1)
        assert rep.orbit_count == 1
        assert rep.histogram == {1: 1}

    @pytest.mark.parametrize("name", LOCAL)
    def test_local_catalog_all_one(self, name):
        for r in range(1, 5):
            assert orbit_audit(builtin(name), r).all_one

    def test_naples_violations_recorded(self):
        rep = orbit_audit(builtin("naples", k=1), 2)
        assert not rep.all_one
        assert rep.parking_total == 4
        assert sum(k * v for k, v in rep.histogram.items()) == 4


class TestUniversality:
    @pytest.mark.parametrize("name", ["closest", "prime"])
    def test_local_passes(self, name):
        report = check_universal(builtin(name), 5)
        assert report.passed
        assert [e.expected for e in report.entries] == [1, 3, 16, 125, 1296]

    @pytest.mark.parametrize("r_max", [0, -1])
    def test_refuses_r_max_below_one(self, r_max):
        # no length would be counted, and the report would pass
        with pytest.raises(ValueError, match=f"r_max must be >= 1, got {r_max}"):
            check_universal(builtin("left"), r_max)

    def test_naples_fails_at_2(self):
        report = check_universal(builtin("naples", k=1), 2)
        assert not report.passed
        failure = report.first_failure
        assert failure.r == 2 and failure.count == 4 and failure.expected == 3

    def test_index_rules_extended_hypothesis(self):
        # rules deciding by car index keep one parking word per orbit
        from parkline.procedures import LEFT, RIGHT, index_rule_procedure

        for dirs in itertools.product((LEFT, RIGHT), repeat=4):
            p = index_rule_procedure(dirs)
            assert orbit_audit(p, 4).all_one


class TestCountWordsToSet:
    def test_singleton(self):
        assert count_words_to_set(builtin("right"), {1}) == 1

    def test_interval(self):
        assert count_words_to_set(builtin("right"), {1, 2}) == 3

    def test_two_blocks(self):
        assert count_words_to_set(builtin("right"), {1, 3}) == 2

    def test_empty(self):
        assert count_words_to_set(builtin("right"), set()) == 1

    @pytest.mark.parametrize("spots", [[1.0, 2], [True, 2], ["1", 2]], ids=repr)
    @pytest.mark.parametrize("via", [None, "brute"])
    def test_spots_must_be_ints(self, spots, via):
        with pytest.raises(ValueError, match=re.escape(f"spot {spots[0]!r} is not an int")):
            count_words_to_set(builtin("right"), spots, via)

    def test_numpy_spots_are_ints(self):
        import numpy as np

        assert count_words_to_set(builtin("right"), np.array([1, 2]), "brute") == 3

    # the default path of a rule that decides by block is the product
    # formula: the shuffle count of S's blocks times each block's count
    @pytest.mark.parametrize("name", ["right", "prime", "closest"])
    def test_formula_equals_brute(self, name):
        p = builtin(name)
        for S in ({2, 3, 5}, {-1, 0, 2, 4}, {1, 2, 3, 4}, {0, 2, 4}):
            assert count_words_to_set(p, S) == count_words_to_set(p, S, "brute")

    @pytest.mark.parametrize("spec", ["evenodd", "naples:k=2"])
    def test_formula_takes_each_block_at_its_position(self, spec):
        # neither rule is shift invariant: a block of {1, 2} | {4, 5, 6} is
        # counted where it lies, not as the block {1..size}
        p = parse_proc_spec(spec)
        assert p.decides_by_block and not p.is_local
        for S in ({1, 2, 4, 5, 6}, {2, 3, 5}, {-1, 0, 2, 4, 5}):
            assert count_words_to_set(p, S) == count_words_to_set(p, S, "brute"), S
        # the blocks {2, 3} and {5} do not park as {1, 2} and {1} do
        on_first_spots = 3 * count_parking(p, 2) * count_parking(p, 1)
        assert count_words_to_set(p, {2, 3, 5}) != on_first_spots

    @pytest.mark.parametrize("name", ["right", "lbs", "naples:k=2", "far"])
    def test_pad_invariance(self, name):
        # letters outside S never produce S, so widening the alphabet is moot
        from parkline.procedures import parse_proc_spec

        p = parse_proc_spec(name)
        for S in ({1, 2}, {1, 3}, {2, 3, 5}):
            base = count_words_to_set(p, S, "brute", pad=0)
            assert count_words_to_set(p, S, "brute", pad=2) == base

    @pytest.mark.parametrize(
        "spec", ["right", "prime", "evenodd", "far", "lbs", "naples:k=2"]
    )
    def test_walk_equals_brute(self, spec):
        p = parse_proc_spec(spec)
        for n in range(1, 5):
            for S in itertools.combinations(range(-1, 7), n):
                walked = count_words_to_set(p, S)
                assert type(walked) is int
                assert walked == count_words_to_set(p, S, "brute"), (spec, S)

    def test_fallbacks(self):
        from fractions import Fraction

        from parkline.probabilistic import kw_procedure
        from parkline.procedures import run

        # a rule whose state is its history walks, and counts as word by word
        history = history_parity_rule()
        for S in ({1, 2, 3}, {-1, 0, 2, 4}, {2, 5}):
            words = itertools.product(sorted(S), repeat=len(S))
            per_word = sum(run(history, w).spots == S for w in words)
            assert count_words_to_set(history, S) == per_word, S
        # a rule that branches on the way to S has no word count
        with pytest.raises(ValueError, match="kw:q=1/2 branches"):
            count_words_to_set(kw_procedure(Fraction(1, 2)), {1, 2})

    def test_pad_only_with_brute(self):
        p = builtin("right")
        assert count_words_to_set(p, {1, 2}, "brute", pad=3) == 3
        with pytest.raises(ValueError, match="pad"):
            count_words_to_set(p, {1, 2}, pad=3)

    def test_bad_pad_refused(self):
        # a negative pad would narrow the alphabet below S, and a bool is no width
        p = builtin("right")
        assert count_words_to_set(p, {1, 2, 3}, "brute") == 16
        for pad in (-1, True, False, 1.0, "1", None):
            for via in (None, "brute"):
                with pytest.raises(ValueError, match=re.escape(f"pad must be an int >= 0, got {pad!r}")):
                    count_words_to_set(p, {1, 2, 3}, via, pad=pad)

    def test_numpy_pad_is_taken(self):
        import numpy as np

        # pad goes through the check spots go through: a numpy integer is an int
        p = builtin("right")
        for pad in (np.int64(1), np.int32(2), np.uint8(0)):
            assert count_words_to_set(p, {1, 2, 3}, "brute", pad=pad) == count_words_to_set(
                p, {1, 2, 3}, "brute", pad=int(pad)
            )
        for pad in (np.int64(-1), np.bool_(True)):
            with pytest.raises(ValueError, match=re.escape(f"pad must be an int >= 0, got {pad!r}")):
                count_words_to_set(p, {1, 2, 3}, "brute", pad=pad)

    def test_unknown_mode_refused(self):
        # the default path computes what a "formula" mode did, so there is none
        for via in ("formula", "nonsense"):
            with pytest.raises(ValueError, match=re.escape(f"unknown mode {via!r}")):
                count_words_to_set(builtin("right"), {1, 2}, via)

    @pytest.mark.parametrize("name", ["closest", "lbs"])
    def test_window_sum_property(self, name):
        # grouping the whole word space by final set partitions it, and
        # each group whose set stays inside the window matches the brute count
        from collections import Counter

        from parkline.procedures import run

        p = builtin(name)
        r, window = 3, range(1, 5)
        reached = Counter()
        for w in itertools.product(window, repeat=r):
            reached[run(p, w).spots] += 1
        assert sum(reached.values()) == len(window) ** r
        for S, direct in reached.items():
            if S <= set(window):
                assert count_words_to_set(p, S, "brute") == direct
