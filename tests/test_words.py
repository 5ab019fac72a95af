import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parkline.words import (
    Block,
    as_word,
    block_of,
    blocks,
    cyclic_orbit,
    iter_shuffles,
    multinomial,
    orbit_representative,
    rotate,
    shift,
    shuffle_count,
)


def spans(bs):
    return [(b.lo, b.hi) for b in bs]


class TestBlocks:
    def test_known_decomposition(self):
        assert spans(blocks({2, 3, 5, 6, 7, 8, 9, 12})) == [(2, 3), (5, 9), (12, 12)]

    def test_empty(self):
        assert blocks(set()) == ()

    def test_single_interval(self):
        assert spans(blocks({1, 2, 3})) == [(1, 3)]

    def test_block_of(self):
        assert block_of({2, 3, 5}, 3) == Block(2, 3)
        with pytest.raises(ValueError):
            block_of({2, 3}, 4)

    def test_invalid_block(self):
        with pytest.raises(ValueError):
            Block(3, 1)

    @given(st.sets(st.integers(-30, 30), max_size=15))
    @settings(max_examples=150)
    def test_partition_properties(self, spots):
        bs = blocks(spots)
        covered = set()
        for b in bs:
            covered.update(b.spots())
        assert covered == set(spots)
        for left, right in zip(bs, bs[1:]):
            assert right.lo > left.hi + 1  # maximality: gap of a free spot

    @given(st.sets(st.integers(-20, 20), max_size=10), st.integers(-5, 5))
    @settings(max_examples=100)
    def test_blocks_commute_with_shift(self, spots, k):
        shifted = blocks(shift(frozenset(spots), k))
        assert spans(shifted) == [(b.lo + k, b.hi + k) for b in blocks(spots)]


class TestShift:
    def test_set(self):
        assert shift(frozenset({2, 3, 5}), 1) == frozenset({3, 4, 6})

    def test_word(self):
        assert shift((5, 2, 3), 1) == (6, 3, 4)

    def test_identity(self):
        assert shift((4, 1, 2), 0) == (4, 1, 2)


class TestRotate:
    def test_known_orbit_steps(self):
        assert rotate((1, 3, 1), 3) == (2, 4, 2)
        assert rotate((4, 2, 4), 3) == (1, 3, 1)

    def test_full_cycle(self):
        w = (2, 1, 3)
        out = w
        for _ in range(4):
            out = rotate(out, 3)
        assert out == w

    def test_domain_error(self):
        with pytest.raises(ValueError):
            rotate((1, 5), 3)
        with pytest.raises(ValueError):
            rotate((0, 1), 3)


class TestCyclicOrbit:
    def test_footnote_orbits(self):
        assert cyclic_orbit((1, 3, 1), 3).members == {
            (1, 3, 1), (2, 4, 2), (3, 1, 3), (4, 2, 4)
        }
        assert cyclic_orbit((1, 3, 3), 3).members == {
            (1, 3, 3), (2, 4, 4), (3, 1, 1), (4, 2, 2)
        }

    def test_constant_word_orbit(self):
        orbit = cyclic_orbit((1,) * 4, 4)
        assert orbit.members == {(v,) * 4 for v in range(1, 6)}
        assert orbit.representative == (1, 1, 1, 1)
        assert orbit.modulus == 5

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_orbits_partition_word_space(self, r):
        # every orbit has exactly r+1 members; representatives tile the space
        seen = {}
        for w in itertools.product(range(1, r + 2), repeat=r):
            rep = orbit_representative(w, r)
            seen.setdefault(rep, set()).add(w)
        assert len(seen) == (r + 1) ** (r - 1)
        assert all(len(members) == r + 1 for members in seen.values())
        assert sum(len(m) for m in seen.values()) == (r + 1) ** r


class TestShuffles:
    def test_single_part(self):
        assert shuffle_count([(1, 2)]) == 1
        assert list(iter_shuffles([(1, 2)])) == [(1, 2)]

    def test_two_singletons(self):
        assert shuffle_count([(1,), (2,)]) == 2
        assert sorted(iter_shuffles([(1,), (2,)])) == [(1, 2), (2, 1)]

    def test_multinomial_example(self):
        parts = [(1, 2), (3,), (4,)]
        assert shuffle_count(parts) == 12
        out = list(iter_shuffles(parts))
        assert len(out) == 12
        assert len(set(out)) == 12  # disjoint letters: all interleavings distinct

    @given(
        st.lists(
            st.lists(st.integers(0, 9), min_size=0, max_size=3),
            min_size=1,
            max_size=3,
        )
    )
    @settings(max_examples=60)
    def test_count_matches_iterator(self, parts):
        out = list(iter_shuffles(parts))
        assert len(out) == shuffle_count(parts)
        for w in out:
            assert sorted(w) == sorted(a for part in parts for a in part)

    def test_multinomial(self):
        assert multinomial([2, 1, 1]) == 12
        assert multinomial([]) == 1


def test_as_word_coerces():
    assert as_word([1, 2]) == (1, 2)
    assert as_word(()) == ()


def test_as_word_takes_numpy_integers_as_ints():
    word = as_word(np.array([3, -1], dtype=np.int8))
    assert word == (3, -1) and all(type(a) is int for a in word)


@pytest.mark.parametrize("letter", [1.5, 2.0, "3", True, np.bool_(False), None])
def test_as_word_refuses_what_is_not_an_int(letter):
    # nothing is truncated or parsed: 1.5 and "3" are not letters 1 and 3
    with pytest.raises(ValueError, match=re.escape(f"letter {letter!r} is not an int")):
        as_word([1, letter])
