import dataclasses
import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import oracle_lbs_run, oracle_run, random_tables
from parkline import procedures
from parkline.enumeration import CapExceededError
from parkline.procedures import (
    LEFT,
    RIGHT,
    DirTable,
    Procedure,
    block_record,
    builtin,
    check_flags,
    dir_of,
    dir_of_set,
    index_rule_procedure,
    is_parking,
    last_spot,
    outcome,
    parse_proc_spec,
    record_parked,
    run,
    table_procedure,
)
from parkline.words import Block, block_of, shift

CATALOG = ["right", "left", "closest", "prime", "evenodd", "far", "lbs"]


def make(name, **kw):
    return builtin(name, **kw)


small_words = st.lists(st.integers(1, 5), min_size=0, max_size=5).map(tuple)


class TestRun:
    def test_refuses_letters_that_are_not_ints(self):
        # once truncated to the run of (1, 2)
        with pytest.raises(ValueError, match="letter 1.5 is not an int"):
            run(builtin("right"), [1.5, 2.7])

    def test_forced_right(self):
        res = run(make("right"), (1, 1, 1))
        assert res.spots == frozenset({1, 2, 3})
        assert res.outcome == {1: 1, 2: 2, 3: 3}

    def test_lbs_words(self):
        assert run(make("lbs"), (1, 2, 1)).spots == frozenset({0, 1, 2})
        assert run(make("lbs"), (2, 1, 1)).spots == frozenset({1, 2, 3})

    @pytest.mark.parametrize("answer", ["L", None])
    def test_decide_must_return_a_direction(self, answer):
        p = Procedure("bad", decide=lambda *_: answer)
        with pytest.raises(ValueError, match=f"bad: decide returned {answer!r}"):
            run(p, (1, 1))

    def test_empty_word(self):
        assert run(make("right"), ()).spots == frozenset()

    @pytest.mark.parametrize("name", CATALOG)
    @given(word=small_words)
    @settings(max_examples=60, deadline=None)
    def test_cardinality_and_prefix_nesting(self, name, word):
        p = make(name)
        prev = frozenset()
        for i in range(len(word) + 1):
            spots = run(p, word[:i]).spots
            assert len(spots) == i
            assert prev <= spots
            prev = spots

    @pytest.mark.parametrize("name", CATALOG)
    @given(word=small_words)
    @settings(max_examples=60, deadline=None)
    def test_bilateral_contract(self, name, word):
        # a bumped car parks exactly one spot past its block's edge
        p = make(name)
        res = run(p, word)
        occ = set()
        for a, spot in zip(word, res.parked):
            if a in occ:
                blk = block_of(occ, a)
                assert spot in (blk.lo - 1, blk.hi + 1)
            else:
                assert spot == a
            occ.add(spot)

    @pytest.mark.parametrize(
        "name,k", [("right", 0), ("closest", 0), ("prime", 0),
                   ("far", 0), ("evenodd", 0), ("naples", 1), ("naples", 2)]
    )
    def test_against_operational_oracle(self, name, k):
        p = make(name, k=k) if name == "naples" else make(name)
        for n in range(1, 5):
            for word in itertools.product(range(1, n + 2), repeat=n):
                occ, parked = oracle_run(name, word, k)
                res = run(p, word)
                assert res.spots == frozenset(occ), word
                assert list(res.parked) == parked, word

    def test_lbs_against_trace_oracle(self):
        p = make("lbs")
        for n in range(1, 5):
            for word in itertools.product(range(1, n + 2), repeat=n):
                occ, parked = oracle_lbs_run(word)
                assert list(run(p, word).parked) == parked, word


class TestBlockRecords:
    def test_parking_merges_neighbour_blocks(self):
        state = record_parked(record_parked((), "x", 1), "y", 2)
        assert state == ((1, 2, "y"),)
        state = record_parked(record_parked(state, "z", 4), "w", 7)
        assert state == ((1, 2, "y"), (4, 4, "z"), (7, 7, "w"))
        assert record_parked(state, "v", 3) == ((1, 4, "v"), (7, 7, "w"))
        assert block_record(state, Block(4, 4)) == "z"

    def test_unknown_block_raises(self):
        with pytest.raises(ValueError, match="no record"):
            block_record(((1, 2, "y"),), Block(2, 2))

    @given(
        st.integers(-6, 2).flatmap(
            lambda lo: st.lists(st.integers(lo, lo + 8), min_size=1, max_size=7)
        ).map(tuple)
    )
    @settings(max_examples=300, deadline=None)
    def test_lbs_engine_matches_trace_oracle(self, word):
        occ, parked = oracle_lbs_run(word)
        res = run(make("lbs"), word)
        assert list(res.parked) == parked
        assert res.spots == frozenset(occ)


class TestLastSpot:
    def test_right_bump(self):
        assert last_spot(make("right"), (1, 1)) == 2

    def test_lbs_goes_left(self):
        assert last_spot(make("lbs"), (1, 2, 1)) == 0

    def test_closest_222(self):
        # car 3 prefers 2, block {2,3}: left gap 1 beats right gap 2
        assert last_spot(make("closest"), (2, 2, 2)) == 1

    def test_empty_word_error(self):
        with pytest.raises(ValueError):
            last_spot(make("right"), ())


class TestIsParking:
    @pytest.mark.parametrize("name", CATALOG)
    def test_permutations_always_park(self, name):
        p = make(name)
        for perm in itertools.permutations(range(1, 5)):
            assert is_parking(p, perm)

    def test_right_22(self):
        assert not is_parking(make("right"), (2, 2))
        assert run(make("right"), (2, 2)).spots == frozenset({2, 3})

    def test_prime_222(self):
        # size-1 block sends car 2 left; car 3 lands on a prime block, goes right
        assert is_parking(make("prime"), (2, 2, 2))


class TestOutcome:
    def test_trivial(self):
        assert outcome(make("right"), (1, 2)) == {1: 1, 2: 2}

    def test_bumped(self):
        assert outcome(make("right"), (1, 1)) == {1: 1, 2: 2}

    def test_order_swap(self):
        assert outcome(make("right"), (2, 1)) == {2: 1, 1: 2}

    @pytest.mark.parametrize("name", CATALOG)
    @given(word=small_words)
    @settings(max_examples=40, deadline=None)
    def test_outcome_injective(self, name, word):
        out = outcome(make(name), word)
        assert sorted(out.values()) == list(range(1, len(word) + 1))
        if is_parking(make(name), word):
            assert sorted(out) == list(range(1, len(word) + 1))


class TestBuiltins:
    def test_closest_decides_left_on_strict_gap(self):
        p = make("closest")
        assert p.decide(None, frozenset({2, 3}), Block(2, 3), 2) is LEFT

    def test_closest_tie_goes_right(self):
        p = make("closest")
        assert p.decide(None, frozenset({2, 3}), Block(2, 3), 3) is RIGHT
        assert dir_of(p, 3, 2) is RIGHT  # gaps 2 and 2

    def test_naples_backs_up(self):
        assert run(make("naples", k=1), (2, 2)).spots == frozenset({1, 2})

    def test_naples_requires_positive_k(self):
        with pytest.raises(ValueError):
            make("naples", k=0)

    @pytest.mark.parametrize("k", [True, 2.0, "2"])
    def test_naples_requires_an_int_k(self, k):
        with pytest.raises(ValueError, match=f"integer k >= 1, got {k!r}"):
            make("naples", k=k)

    def test_naples_takes_a_numpy_k(self):
        assert run(make("naples", k=np.int64(1)), (2, 2)).spots == frozenset({1, 2})

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            builtin("unknown")

    @pytest.mark.parametrize(
        "spec,message",
        [
            ("naples", "naples requires parameter 'k'"),
            ("right:z=1", "right takes no parameter 'z'"),
            ("far:k=2", "far takes no parameter 'k'"),
            ("naples:k=x", "integer k"),
            ("naples:k=2,k=3", "naples repeats parameter 'k'"),
            ("table:table=x", "table requires parameter 'table' as a DirTable, got 'x'"),
            ("table:table=3", "table requires parameter 'table' as a DirTable, got 3"),
        ],
    )
    def test_bad_parameters_name_the_parameter(self, spec, message):
        from parkline.procedures import parse_proc_spec

        with pytest.raises(ValueError, match=message):
            parse_proc_spec(spec)

    def test_far_conventions_differ(self):
        prose = make("far")
        other = make("far", convention="notation")
        occ = frozenset({1, 3})
        assert prose.decide(None, occ, Block(1, 1), 1) is LEFT
        assert other.decide(None, occ, Block(1, 1), 1) is RIGHT

    def test_declared_flags(self):
        assert make("right").is_local and make("right").is_memoryless
        assert make("lbs").is_local and not make("lbs").is_memoryless
        assert make("far").is_shift_invariant and not make("far").is_locally_decided
        for name, kw in (("evenodd", {}), ("naples", {"k": 1})):
            p = make(name, **kw)
            assert p.is_memoryless and p.is_locally_decided
            assert not p.is_shift_invariant

    def test_undeclared_flags_default_to_false(self):
        # False is safe for every rule, so an undeclared rule walks; but
        # check_flags compares declared with observed, so a rule that
        # satisfies a flag it leaves undeclared is reported inconsistent
        p = Procedure("plain", decide=lambda *_: RIGHT)
        assert not (p.is_shift_invariant or p.is_locally_decided or p.decides_by_block)
        assert p.is_memoryless
        assert not check_flags(p, 3).all_consistent
        declared = dataclasses.replace(p, is_shift_invariant=True, is_locally_decided=True)
        assert check_flags(declared, 3).all_consistent
        keeper = Procedure("keeper", decide=lambda *_: RIGHT, update=lambda st, a, spot: st)
        assert not keeper.is_memoryless

    def test_parse_spec(self):
        assert parse_proc_spec("naples:k=2").name == "naples:k=2"
        assert parse_proc_spec("right").name == "right"
        assert parse_proc_spec("far:convention=notation").name == "far:convention=notation"
        with pytest.raises(ValueError):
            parse_proc_spec("right:k")


class TestDirOf:
    def test_right_table(self):
        p = make("right")
        assert all(dir_of(p, r, i) is RIGHT for r in range(1, 6) for i in range(1, r + 1))

    def test_closest_table(self):
        p = make("closest")
        for r in range(1, 7):
            for i in range(1, r + 1):
                expected = LEFT if i <= r / 2 else RIGHT
                assert dir_of(p, r, i) is expected

    def test_prime_table(self):
        p = make("prime")
        assert dir_of(p, 4, 2) is LEFT  # composite size
        assert all(dir_of(p, 5, i) is RIGHT for i in range(1, 6))

    def test_requires_memoryless(self):
        with pytest.raises(ValueError):
            dir_of(make("lbs"), 2, 1)

    def test_refuses_a_rule_that_keeps_state(self):
        # read off the initial state, car 2 of (1, 1) would go right; the
        # run sends it left, as the state its `update` kept says
        from conftest import alternating_rule
        from parkline.probabilistic import right_prob_table

        p = alternating_rule()
        assert run(p, (1, 1)).parked == (1, 0)
        for probe in (lambda: dir_of(p, 1, 1), lambda: right_prob_table(p, 2)):
            with pytest.raises(ValueError, match="alternating is not memoryless"):
                probe()

    def test_dir_of_set_naples(self):
        nap = make("naples", k=1)
        assert dir_of_set(nap, {2, 3}, 2) is LEFT
        assert dir_of_set(nap, {1, 2}, 1) is RIGHT  # cannot back below 1


class TestDirTable:
    def test_row_validation(self):
        with pytest.raises(ValueError):
            DirTable(((RIGHT, LEFT),))

    def test_json_round_trip(self):
        table = DirTable(((RIGHT,), (RIGHT, LEFT)), LEFT)
        doc = table.to_json()
        assert doc == {
            "type": "memoryless_local",
            "r_max": 2,
            "rows": [["R"], ["R", "L"]],
            "default_beyond": "L",
        }
        assert DirTable.from_json(doc) == table

    def test_from_json_rejects_bad_type(self):
        with pytest.raises(ValueError):
            DirTable.from_json({"type": "nope", "rows": []})
        with pytest.raises(ValueError):
            DirTable.from_json([["R"]])

    def test_from_json_requires_rows(self):
        with pytest.raises(ValueError, match="rows"):
            DirTable.from_json({"type": "memoryless_local"})

    @pytest.mark.parametrize("rows", [5, [5], None, ["R", "LR"], [["R"], "LR"], "R"])
    def test_from_json_requires_a_list_of_lists(self, rows):
        # a string row would load letter by letter as a row of directions
        with pytest.raises(ValueError, match=re.escape(f"rows must be a list of lists, got {rows!r}")):
            DirTable.from_json({"type": "memoryless_local", "rows": rows})

    def test_default_beyond(self):
        table = DirTable(((LEFT,),), RIGHT)
        assert table.direction(1, 1) is LEFT
        assert table.direction(5, 2) is RIGHT

    def test_table_procedure_matches_rows(self):
        for table in random_tables(3, 4, seed=7):
            p = table_procedure(table)
            for r in range(1, 7):
                for i in range(1, r + 1):
                    assert dir_of(p, r, i) is table.direction(r, i)

    def test_table_via_builtin(self):
        table = DirTable(((LEFT,),), RIGHT)
        p = builtin("table", table=table)
        assert dir_of(p, 1, 1) is LEFT
        assert dir_of(p, 3, 2) is RIGHT


class TestShiftInvariance:
    @pytest.mark.parametrize("name", ["right", "left", "closest", "prime", "far", "lbs"])
    @given(word=small_words, k=st.integers(-4, 4))
    @settings(max_examples=40, deadline=None)
    def test_runs_commute_with_shift(self, name, word, k):
        p = make(name)
        assert run(p, shift(word, k)).spots == shift(run(p, word).spots, k)


class TestMemorylessReplay:
    @pytest.mark.parametrize("name", ["right", "closest", "prime", "far", "evenodd"])
    def test_transition_map_consistent(self, name):
        # memoryless: the parked spot is a function of (occupied set, letter)
        p = make(name)
        seen = {}
        for word in itertools.product(range(1, 5), repeat=4):
            res = run(p, word)
            occ = frozenset()
            for a, spot in zip(word, res.parked):
                key = (occ, a)
                assert seen.setdefault(key, spot) == spot
                occ = occ | {spot}


class TestCheckFlags:
    @pytest.mark.parametrize("r_max", [0, -1])
    def test_refuses_r_max_below_one(self, r_max):
        # no word would be tested, and every flag would read as confirmed
        with pytest.raises(ValueError, match=f"r_max must be >= 1, got {r_max}"):
            check_flags(builtin("right"), r_max)

    def test_over_budget_refused_before_any_word(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("run called")

        monkeypatch.setattr(procedures, "run", refuse)
        with pytest.raises(CapExceededError, match="flag check up to length 7: 129,522,064 car steps"):
            check_flags(builtin("right"), 7)
        # r_max = 6, at 5,497,912 steps, is admitted: its first word runs
        with pytest.raises(AssertionError, match="run called"):
            check_flags(builtin("right"), 6)

    @pytest.mark.parametrize(
        "p",
        [parse_proc_spec(s) for s in CATALOG + ["naples:k=1", "naples:k=2", "far:convention=notation"]]
        + [table_procedure(t, name=f"table{i}") for i, t in enumerate(random_tables(2, 3, seed=7))],
        ids=lambda p: p.name,
    )
    def test_catalog_declarations_hold(self, p):
        # every rule the `builtin` catalog makes declares only what it satisfies
        assert check_flags(p, 3).all_consistent

    def test_naples_shift_witness(self):
        report = check_flags(builtin("naples", k=1), 2)
        assert not report.shift_invariant.observed
        assert report.shift_invariant.witness == ((1, 1), (2, 2))
        assert report.all_consistent

    def test_right_all_confirmed(self):
        report = check_flags(builtin("right"), 4)
        assert report.all_consistent
        assert report.shift_invariant.observed
        assert report.memoryless.observed
        assert report.locally_decided.observed

    def test_far_local_decision_witness(self):
        report = check_flags(builtin("far"), 3)
        assert not report.locally_decided.observed
        assert report.locally_decided.witness is not None
        assert report.all_consistent

    def test_lbs_memory_witness(self):
        report = check_flags(builtin("lbs"), 3)
        assert not report.memoryless.observed
        assert report.all_consistent
        w1, w2 = report.memoryless.witness
        # same occupied set and letter, different parked spot
        assert run(builtin("lbs"), w1).parked[-1] != run(builtin("lbs"), w2).parked[-1]


class TestIndexRule:
    def test_runs_and_flags(self):
        p = index_rule_procedure([RIGHT, LEFT, RIGHT])
        assert not p.is_locally_decided
        assert run(p, (1, 1, 1)).spots == frozenset({0, 1, 2})

    def test_exhausted_sequence(self):
        p = index_rule_procedure([RIGHT])
        with pytest.raises(ValueError):
            run(p, (1, 1))
