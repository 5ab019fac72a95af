import os
import subprocess
import sys
from importlib.util import find_spec

import numpy as np
import pytest

from conftest import random_dir_tables
from parkline import _kernels
from parkline.enumeration import count_parking, parked_matrix
from parkline.procedures import builtin

TABLE_PROCS = [builtin(n) for n in ("right", "left", "closest", "prime")]
TABLE_PROCS += random_dir_tables(3, 6, seed=42)

# numba is an optional extra: its cases run only where it is installed, and
# an explicit request for it must still raise where it is not.
HAVE_NUMBA = find_spec("numba") is not None
NUMBA = pytest.param(
    "numba",
    marks=pytest.mark.skipif(not HAVE_NUMBA, reason="numba is not installed"),
)
AVAILABLE_BACKENDS = (("numba",) if HAVE_NUMBA else ()) + ("numpy", "python")


def full_space(r):
    return np.vstack(list(_kernels.word_chunks(r)))


def default_backend_under(env_value):
    env = dict(os.environ, PARKING_BACKEND=env_value)
    return subprocess.run(
        [sys.executable, "-c",
         "from parkline._kernels import default_backend; print(default_backend())"],
        capture_output=True, text=True, env=env,
    )


class TestBackendSelection:
    def test_resolve_explicit(self):
        assert _kernels.resolve_backend("numpy") == "numpy"
        assert _kernels.resolve_backend("python") == "python"
        with pytest.raises(ValueError):
            _kernels.resolve_backend("fortran")

    def test_resolve_numba_follows_availability(self):
        if HAVE_NUMBA:
            assert _kernels.resolve_backend("numba") == "numba"
        else:
            with pytest.raises(ValueError, match="numba"):
                _kernels.resolve_backend("numba")

    def test_env_flag_selects_numpy(self):
        assert default_backend_under("numpy").stdout.strip() == "numpy"

    def test_env_flag_selects_python(self):
        assert default_backend_under("python").stdout.strip() == "python"

    def test_env_flag_numba_follows_availability(self):
        # the environment default degrades with a warning, unlike an explicit
        # backend= request
        out = default_backend_under("numba")
        if HAVE_NUMBA:
            assert out.stdout.strip() == "numba"
        else:
            assert out.stdout.strip() == "numpy"
            assert "falling back to numpy" in out.stderr


class TestWordChunks:
    def test_covers_space_in_order(self):
        words = full_space(2)
        assert words.shape == (9, 2)
        assert words[0].tolist() == [1, 1]
        assert words[-1].tolist() == [3, 3]
        assert len({tuple(w) for w in words.tolist()}) == 9

    def test_chunking_is_seamless(self):
        whole = full_space(3)
        chunked = np.vstack(list(_kernels.word_chunks(3, chunk=7)))
        assert (whole == chunked).all()

    def test_alphabet_words(self):
        words = np.vstack(list(_kernels.alphabet_chunks([2, 5, 9], 2)))
        assert words.shape == (9, 2)
        assert set(map(tuple, words.tolist())) == {
            (a, b) for a in (2, 5, 9) for b in (2, 5, 9)
        }


@pytest.mark.parametrize("backend", [NUMBA, "numpy"])
class TestKernelEquivalence:
    @pytest.mark.parametrize("p", TABLE_PROCS, ids=lambda p: p.name)
    def test_table_kernel_matches_engine(self, backend, p):
        for r in range(1, 5):
            words = full_space(r)
            ref = parked_matrix(p, words, backend="python")
            fast = parked_matrix(p, words, backend=backend)
            assert (ref == fast).all(), (p.name, r)

    def test_lbs_kernel_matches_engine(self, backend):
        p = builtin("lbs")
        for r in range(1, 6):
            words = full_space(r)
            ref = parked_matrix(p, words, backend="python")
            fast = parked_matrix(p, words, backend=backend)
            assert (ref == fast).all(), r

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


class TestCountsAcrossBackends:
    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
    def test_right_counts_agree(self, r):
        counts = {
            b: count_parking(builtin("right"), r, backend=b)
            for b in AVAILABLE_BACKENDS
        }
        assert set(counts.values()) == {(r + 1) ** (r - 1)}, counts

    def test_jobs_split_is_exact(self):
        p = builtin("closest")
        # name the default backend so that the count enumerates words
        backend = _kernels.default_backend()
        single = count_parking(p, 5, jobs=1, backend=backend)
        assert count_parking(p, 5, jobs=4, backend=backend) == single
