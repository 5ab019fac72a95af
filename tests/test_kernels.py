"""Backend contract: the numpy backend, which counts every word on
(occupied set, state) pairs (`count_landing`), equals the
per-word engine (`backend="python"`, `run`) and the independent oracle of
conftest.py, word by word and count by count; and the words and spots the
prefix-growth engine keeps equal those of `run` word by word."""

import dataclasses
import itertools
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    alternating_rule,
    grown_runs,
    history_parity_rule,
    oracle_lbs_run,
    oracle_run,
    random_tables,
    state_parity_rule,
)
from parkline import _kernels
from parkline.enumeration import (
    count_parking,
    count_words_to_set,
    expected_parking_count,
    orbit_audit,
)
from parkline.forests import fiber_counts_brute
from parkline.probabilistic import kw_procedure, parse_prob_spec
from parkline.procedures import (
    LEFT,
    RIGHT,
    Direction,
    DirTable,
    Procedure,
    builtin,
    index_rule_procedure,
    parse_proc_spec,
    run,
    table_procedure,
)

TABLE_PROCS = [pytest.param(builtin(n), n, None, id=n) for n in ("right", "left", "closest", "prime")]
TABLE_PROCS += [
    pytest.param(table_procedure(t, name=f"rand{i}"), "table", t, id=f"rand{i}")
    for i, t in enumerate(random_tables(3, 6, seed=42))
]


def grown(p, r, letters):
    """Every word of length r over `letters`, grown with nothing dropped:
    `(words, parked)` as lists of tuples."""
    words, parked, _, _ = grown_runs(p, r, letters)
    return list(map(tuple, words.tolist())), list(map(tuple, parked.tolist()))


def assert_engines_agree(p, r, letters, rule=None, table=None):
    words, parked = grown(p, r, letters)
    assert words == list(itertools.product(sorted(letters), repeat=r))
    for word, spots in zip(words, parked):
        assert run(p, word).parked == spots, (p.name, word)
        if rule is not None:
            assert tuple(oracle_run(rule, word, table=table)[1]) == spots, (p.name, word)


class TestBackendSelection:
    def test_resolve_explicit(self):
        assert _kernels.resolve_backend(None) == "numpy"
        assert _kernels.resolve_backend("numpy") == "numpy"
        assert _kernels.resolve_backend("python") == "python"
        for name in ("fortran", "numba"):
            with pytest.raises(ValueError):
                _kernels.resolve_backend(name)

    def test_unknown_backend_refused_for_every_rule(self):
        for p in (builtin("right"), builtin("lbs")):
            with pytest.raises(ValueError, match="unknown backend"):
                count_parking(p, 2, backend="numba")


class TestWordGrowth:
    def test_covers_space_in_order(self):
        words, _ = grown(builtin("right"), 2, range(1, 4))
        assert words == list(itertools.product((1, 2, 3), repeat=2))

    def test_alphabet_words(self):
        words, _ = grown(builtin("closest"), 2, [2, 5, 9])
        assert words == list(itertools.product((2, 5, 9), repeat=2))


class TestRadixOverflow:
    # 16^16 > 2^63: numpy would index the words {1..16}^16 past int64
    def test_lifted_budget_refuses_before_any_decision(self):
        with pytest.raises(_kernels.RadixOverflowError):
            count_words_to_set(builtin("right"), range(1, 17), "brute", cap=None)
        # 16^15 - 1 still fits: the guard refuses no earlier than it must
        assert _kernels.radix_weights(16, 15)[0] == 16**14

        def refuse(*args):
            raise AssertionError("decide called")

        p = dataclasses.replace(builtin("right"), decide=refuse)
        for backend in ("numpy", "python"):
            with pytest.raises(_kernels.RadixOverflowError):
                count_words_to_set(p, range(1, 17), "brute", cap=None, backend=backend)
        assert count_words_to_set(builtin("right"), range(1, 5), "brute", cap=None) == 125


@pytest.mark.parametrize("backend", ["numpy"])
class TestKernelEquivalence:
    @pytest.mark.parametrize("p,rule,table", TABLE_PROCS)
    def test_table_kernel_matches_engine(self, backend, p, rule, table):
        for r in range(1, 5):
            assert_engines_agree(p, r, range(1, r + 2), rule, table)
            counts = {count_parking(p, r, backend=b) for b in (backend, "python")}
            assert len(counts) == 1, (p.name, r)

    def test_negative_letters(self, backend):
        # windows away from the origin, 0 included
        p = builtin("closest")
        assert_engines_agree(p, 3, [-3, -2, 0], "closest")
        for S in ({-3, -2, 0}, {-2, -1, 0, 1}, {-5, -3}):
            counts = {count_words_to_set(p, S, "brute", backend=b) for b in (backend, "python")}
            assert len(counts) == 1, S

    def test_default_beyond_rows(self, backend):
        # blocks can outgrow a table's rows; the default direction applies
        (table,) = random_tables(1, 2, seed=3)
        assert_engines_agree(table_procedure(table), 4, range(1, 6), "table", table)


DIRECTIONS = st.sampled_from((Direction.LEFT, Direction.RIGHT))


@st.composite
def dir_tables(draw):
    r_max = draw(st.integers(1, 6))
    rows = tuple(
        tuple(draw(st.lists(DIRECTIONS, min_size=r, max_size=r)))
        for r in range(1, r_max + 1)
    )
    return DirTable(rows, draw(DIRECTIONS))


@st.composite
def word_samples(draw):
    """A window of up to 7 letters inside -8..10 and up to 12 words of one
    length, 1 to 6, over it."""
    length = draw(st.integers(1, 6))
    lo = draw(st.integers(-8, 4))
    letters = range(lo, lo + draw(st.integers(1, 7)))
    word = st.lists(st.sampled_from(letters), min_size=length, max_size=length)
    return letters, draw(st.lists(word.map(tuple), min_size=1, max_size=12))


# car 6 of (1, 2, 3, 4, 5, 3) is bumped off the block 1..5 and reads row 5
FIVE_BLOCK = DirTable(tuple((RIGHT,) * r for r in range(1, 5)) + ((LEFT,) * 5, (RIGHT,) * 6), RIGHT)


class TestRandomTables:
    @given(table=dir_tables(), sample=word_samples())
    @example(table=FIVE_BLOCK, sample=(range(1, 7), [(1, 2, 3, 4, 5, 3)]))
    @settings(max_examples=60, deadline=None)
    def test_kernel_engine_and_oracle_agree(self, table, sample):
        # the whole space is grown; the sampled words' rows are checked
        letters, sample_words = sample
        p = table_procedure(table)
        r = len(sample_words[0])
        words, parked, _, _ = grown_runs(p, r, letters)
        # words come in lexicographic order, so a word's row is its radix index
        rows = (np.array(sample_words) - letters[0]) @ _kernels.radix_weights(len(letters), r)
        for word, k in zip(sample_words, rows.tolist()):
            assert tuple(words[k].tolist()) == word
            spots = parked[k].tolist()
            assert list(run(p, word).parked) == spots, word
            assert oracle_run("table", word, table=table)[1] == spots, word
        if table == FIVE_BLOCK:
            assert parked[rows[0]].tolist() == [1, 2, 3, 4, 5, 0]

    @given(table=dir_tables())
    @settings(max_examples=10, deadline=None)
    def test_walked_count_matches_enumeration(self, table):
        p = table_procedure(table)
        for r in range(1, 6):
            counts = {
                count_parking(p, r),
                count_parking(p, r, backend="numpy"),
                count_parking(p, r, backend="python"),
            }
            assert counts == {expected_parking_count(r)}, r


class TestCountsAcrossBackends:
    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
    def test_right_counts_agree(self, r):
        counts = {
            b: count_parking(builtin("right"), r, backend=b)
            for b in ("numpy", "python")
        }
        assert set(counts.values()) == {(r + 1) ** (r - 1)}, counts

    @pytest.mark.parametrize(
        "p",
        [
            parse_proc_spec(spec)
            for spec in ("right", "closest", "evenodd", "naples:k=2", "far", "lbs")
        ]
        + [
            index_rule_procedure((RIGHT, Direction.LEFT, Direction.LEFT, RIGHT)),
            alternating_rule(),
            history_parity_rule(),
            state_parity_rule(),
        ],
        ids=lambda p: p.name,
    )
    def test_brute_counts_agree(self, p):
        for n in range(1, 4):
            for S in itertools.combinations(range(-1, 5), n):
                counts = {count_words_to_set(p, S, "brute", backend=b) for b in ("numpy", "python")}
                assert len(counts) == 1, (p.name, S)

    def test_lbs_words_match_oracle(self):
        words, parked = grown(builtin("lbs"), 4, range(-1, 4))
        for word, spots in zip(words, parked):
            assert tuple(oracle_lbs_run(word)[1]) == spots, word


class TestLetterRange:
    def test_letters_beyond_int8(self):
        # spots beyond 127 come back exactly
        words, parked = grown(builtin("right"), 2, [126, 127])
        assert parked[-1] == (127, 128)
        p = builtin("right")
        for S in ({1000, 1001}, {-300, -299, -297}, {126, 127}):
            assert count_words_to_set(p, S, "brute") == count_words_to_set(
                p, S, "brute", backend="python"
            ), S


class TestBranching:
    def test_brute_refuses_a_branch_that_merges_back(self):
        # car 2 of word (1, 1, 0) branches onto {0, 1} or {1, 2}; car 3 then
        # fills {0, 1, 2} surely: the last node is a point mass of weight 1,
        # yet the growth keeps no spots, although 0 is a spot of the window.
        # The rule declares that it decides by block, so its decisions are
        # cached per (block, letter) in the decision table.
        def decide(st, occ, blk, a):
            return Fraction(1, 2) if blk.size == 1 else RIGHT

        p = Procedure("merge-back", decide=decide, is_shift_invariant=True, is_locally_decided=True)
        assert p.decides_by_block
        words, parked, ids, nodes = grown_runs(p, 3, [0, 1, 2])
        k = words.tolist().index([1, 1, 0])
        assert parked is None
        assert nodes[ids[k]] == {(frozenset({0, 1, 2}), None): (1, None)}
        for backend in ("numpy", "python"):
            with pytest.raises(ValueError, match="merge-back: a decision branches"):
                count_words_to_set(p, {0, 1, 2}, "brute", backend=backend)

    def test_branching_rule_refused_on_both_backends(self):
        from parkline.probabilistic import kw_procedure

        for backend in ("numpy", "python"):
            with pytest.raises(ValueError, match="kw:q=1/2: a decision branches"):
                count_words_to_set(kw_procedure(Fraction(1, 2)), {1, 2}, "brute", backend=backend)

    @pytest.mark.parametrize("lo", [4, 5])
    def test_a_branch_off_the_target_is_refused(self, lo):
        # only blocks of two or more spots starting at `lo` or beyond
        # branch, and such a block holds a spot outside {1, 2, 3}, so no
        # branching run lands there: the interval DP, which sees only blocks
        # inside the target, counts as for right, but a count over {-1..5}
        # meets the branches. Only the last of three cars can branch, and
        # from lo = 5 both its choices leave the target.
        def decide(st, occ, blk, a):
            return Fraction(1, 2) if blk.lo >= lo and blk.size >= 2 else RIGHT

        p = Procedure("off-target", decide=decide, is_locally_decided=True)
        assert count_words_to_set(p, {1, 2, 3}) == 16
        for backend in ("numpy", "python"):
            with pytest.raises(ValueError, match="off-target: a decision branches"):
                count_words_to_set(p, {1, 2, 3}, "brute", pad=2, backend=backend)

    @pytest.mark.parametrize("r", [5, 6])
    @pytest.mark.parametrize("backend", ["numpy", "python"])
    def test_a_branch_is_refused_before_a_later_car_is_asked(self, r, backend):
        # car 2's coin branches; the rule has no coin for car 5, which a
        # count that looked for branches only at the end would ask first
        p = parse_prob_spec("kwseq:qs=1/2+1/3+1/5+1")
        with pytest.raises(ValueError, match=re.escape(f"{p.name}: a decision branches")):
            count_parking(p, r, backend=backend)


FOLD_RULES = [
    parse_proc_spec(spec)
    for spec in ("right", "left", "closest", "prime", "evenodd", "naples:k=2", "far", "lbs")
] + [alternating_rule(), history_parity_rule(), state_parity_rule()]


class TestFolds:
    """Each row the engine keeps, one per word, against the word and its
    cars' spots computed from `run` word by word over the whole word
    space."""

    @given(p=st.sampled_from(FOLD_RULES), r=st.integers(1, 4), lo=st.integers(-4, 1))
    @example(p=FOLD_RULES[0], r=2, lo=-1)
    @settings(max_examples=40, deadline=None)
    def test_keys_equal_per_word_keys(self, p, r, lo):
        # r+1 letters, as the abelian search grows them; the window holds
        # 0 when lo <= 0 <= lo + r, and negative letters when lo < 0
        letters = range(lo, lo + r + 1)
        runs = [run(p, word) for word in itertools.product(letters, repeat=r)]
        words, parked, _, _ = grown_runs(p, r, letters)
        assert words.tolist() == [list(res.word) for res in runs]
        assert parked.tolist() == [list(res.parked) for res in runs]
        # the parking runs, the only ones kept inside {1..r}
        full = frozenset(range(1, r + 1))
        parking = [res for res in runs if res.spots == full]
        words, parked, _, _ = grown_runs(p, r, letters, full)
        assert words.tolist() == [list(res.word) for res in parking]
        assert parked.tolist() == [list(res.parked) for res in parking]
        # a car parking on spot 0 is no branch; a coin is one
        _, parked, _, _ = grown_runs(builtin("right"), 2, [-1, 0])
        assert [-1, 0] in parked.tolist()
        assert grown_runs(kw_procedure(Fraction(1, 2)), 2, [1, 2])[1] is None

    def test_keys_past_int64_refused_before_any_decision(self):
        def refuse(*args):
            raise AssertionError("decide called")

        # 17^16 - 1 orbit and outcome keys, with the budget lifted, for a
        # rule without state and one with
        for name in ("right", "lbs"):
            p = dataclasses.replace(builtin(name), decide=refuse)
            for query in (orbit_audit, fiber_counts_brute):
                with pytest.raises(_kernels.RadixOverflowError):
                    query(p, 16, cap=None)
