import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import oracle_run, random_dir_tables
from parkline import _kernels
from parkline.enumeration import (
    count_parking,
    expected_parking_count,
    parked_matrix,
)
from parkline.procedures import Direction, DirTable, builtin, run, table_procedure

TABLE_PROCS = [builtin(n) for n in ("right", "left", "closest", "prime")]
TABLE_PROCS += random_dir_tables(3, 6, seed=42)


def full_space(r):
    return np.vstack(list(_kernels.alphabet_chunks(range(1, r + 2), r)))


class TestBackendSelection:
    def test_resolve_explicit(self):
        assert _kernels.resolve_backend(None) == "numpy"
        assert _kernels.resolve_backend("numpy") == "numpy"
        assert _kernels.resolve_backend("python") == "python"
        for name in ("fortran", "numba"):
            with pytest.raises(ValueError):
                _kernels.resolve_backend(name)


class TestWordChunks:
    def test_covers_space_in_order(self):
        words = full_space(2)
        assert words.shape == (9, 2)
        assert words[0].tolist() == [1, 1]
        assert words[-1].tolist() == [3, 3]
        assert len({tuple(w) for w in words.tolist()}) == 9

    def test_chunking_is_seamless(self):
        whole = full_space(3)
        chunked = np.vstack(list(_kernels.alphabet_chunks(range(1, 5), 3, chunk=7)))
        assert (whole == chunked).all()

    def test_alphabet_words(self):
        words = np.vstack(list(_kernels.alphabet_chunks([2, 5, 9], 2)))
        assert words.shape == (9, 2)
        assert set(map(tuple, words.tolist())) == {
            (a, b) for a in (2, 5, 9) for b in (2, 5, 9)
        }


class TestRadixOverflow:
    # 17^16 > 2^63: indices of the words {1..17}^16 wrap in int64
    def test_chunks_refuse_before_the_first_chunk(self):
        with pytest.raises(_kernels.RadixOverflowError):
            next(_kernels.alphabet_chunks(range(1, 18), 16))
        assert next(_kernels.alphabet_chunks(range(1, 17), 15)).shape == (_kernels.CHUNK, 15)


@pytest.mark.parametrize("backend", ["numpy"])
class TestKernelEquivalence:
    @pytest.mark.parametrize("p", TABLE_PROCS, ids=lambda p: p.name)
    def test_table_kernel_matches_engine(self, backend, p):
        for r in range(1, 5):
            words = full_space(r)
            ref = parked_matrix(p, words, backend="python")
            fast = parked_matrix(p, words, backend=backend)
            assert (ref == fast).all(), (p.name, r)

    def test_negative_letters(self, backend):
        # kernels must cope with windows away from the origin
        p = builtin("closest")
        words = np.vstack(list(_kernels.alphabet_chunks([-3, -2, 0], 3)))
        ref = parked_matrix(p, words, backend="python")
        assert (parked_matrix(p, words, backend=backend) == ref).all()

    def test_default_beyond_rows(self, backend):
        # blocks can outgrow a table's rows; the default direction applies
        table_p = random_dir_tables(1, 2, seed=3)[0]
        words = full_space(4)
        ref = parked_matrix(table_p, words, backend="python")
        assert (parked_matrix(table_p, words, backend=backend) == ref).all()


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
def word_batches(draw):
    """Words of one length, letters in a window that may be negative."""
    length = draw(st.integers(1, 6))
    lo = draw(st.integers(-8, 4))
    letters = st.integers(lo, lo + draw(st.integers(0, 6)))
    word = st.lists(letters, min_size=length, max_size=length).map(tuple)
    return draw(st.lists(word, min_size=1, max_size=12))


class TestRandomTables:
    @given(table=dir_tables(), words=word_batches())
    @settings(max_examples=60, deadline=None)
    def test_kernel_engine_and_oracle_agree(self, table, words):
        p = table_procedure(table)
        fast = parked_matrix(p, np.array(words, np.int64), backend="numpy")
        for word, spots in zip(words, fast.tolist()):
            assert list(run(p, word).parked) == spots, word
            assert oracle_run("table", word, table=table)[1] == spots, word

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
