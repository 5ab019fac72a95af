"""Word chunks and the table kernel for exhaustive word enumeration.

Direction-table rules (memoryless, shift invariant, locally decided; a
`Procedure` with a `dir_rule`) have one kernel, a vectorized numpy
lockstep simulation over a whole batch of words. The per-word engine in
procedures.py is the reference it is tested against, and it runs every
other rule.

Backends: "numpy" (the default) runs the table kernel where a rule has
one, "python" runs the per-word engine for every word. Call sites choose
one via `backend=`.
"""

from __future__ import annotations

import numpy as np

BACKENDS = ("numpy", "python")
# words simulated at once by default
CHUNK = 1 << 15


class RadixOverflowError(OverflowError):
    """Mixed-radix word indices or orbit keys would not fit in int64."""


def resolve_backend(backend: str | None) -> str:
    if backend is None:
        return "numpy"
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}")
    return backend


def radix_weights(base: int, r: int) -> np.ndarray:
    """int64 place values base^(r-1), ..., base, 1 of length-r numbers in
    radix `base`. Raises RadixOverflowError unless every such number,
    up to base^r - 1, fits in int64."""
    if base**r - 1 > np.iinfo(np.int64).max:
        raise RadixOverflowError(
            f"{base}^{r} words overflow int64 indices and keys"
        )
    return base ** np.arange(r - 1, -1, -1, dtype=np.int64)


def alphabet_chunks(alphabet, r: int, chunk: int = CHUNK):
    """Yield all length-r words over the given letters as (m, r) int64
    arrays, in mixed-radix order (last letter fastest)."""
    letters = np.asarray(sorted(alphabet), dtype=np.int64)
    base = len(letters)
    weights = radix_weights(base, r)
    total = base**r
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        yield letters[(idx[:, None] // weights[None, :]) % base]


# ---------------------------------------------------------------------------
# lockstep simulation
#
# words hold absolute spots; positions are offset by `base` so that every
# reachable cell, including the scan sentinels, stays inside the buffer.


def _window(words: np.ndarray) -> tuple[int, int]:
    r = words.shape[1]
    lo = int(words.min()) if words.size else 0
    hi = int(words.max()) if words.size else 0
    # cars drift at most r cells past the letter range; +2 for scan sentinels
    base = lo - r - 1
    width = (hi - lo + 1) + 2 * r + 2
    return base, width


def _free_bounds(occ: np.ndarray, rows: np.ndarray, pos: np.ndarray):
    """Nearest free cell at or left of, and at or right of, column pos[k]
    of occupancy row k. Where pos is occupied these are the cells just
    outside its block."""
    width = occ.shape[1]
    # the smallest signed type holding -1..width keeps both scans small
    cols = np.arange(width, dtype=np.min_scalar_type(-width - 1))
    free = ~occ
    lf = np.maximum.accumulate(np.where(free, cols, -1), axis=1)
    nf = np.minimum.accumulate(np.where(free, cols, width)[:, ::-1], axis=1)[:, ::-1]
    return lf[rows, pos].astype(np.int64), nf[rows, pos].astype(np.int64)


def rights_array(dir_rule, r_max: int) -> np.ndarray:
    """Materialize Dir(r, i) as a (r_max, r_max) uint8 matrix of go-right
    flags (row r padded with zeros past column r)."""
    from .procedures import Direction

    out = np.zeros((r_max, r_max), np.uint8)
    for r in range(1, r_max + 1):
        for i in range(1, r + 1):
            out[r - 1, i - 1] = 1 if dir_rule(r, i) is Direction.RIGHT else 0
    return out


def table_parked(words: np.ndarray, rights: np.ndarray) -> np.ndarray:
    """Parked spot of every car for every word under a table rule.

    `rights` is `rights_array(dir_rule, r)` for words of length r: a car
    is bumped off a block of at most r-1 cars, so the rows cover it."""
    words = np.ascontiguousarray(words, dtype=np.int64)
    base, width = _window(words)
    n, r = words.shape
    occ = np.zeros((n, width), bool)
    parked = np.empty((n, r), np.int64)
    rows = np.arange(n)
    for j in range(r):
        pos = words[:, j] - base
        bumped = occ[rows, pos]
        lfp, nfp = _free_bounds(occ, rows, pos)
        # where bumped, the block spans lfp+1..nfp-1 and pos is its
        # (pos-lfp)-th cell; elsewhere size and index clip to row 1, cell 1
        size = nfp - lfp - 1
        go_right = rights[
            np.maximum(size, 1) - 1, np.maximum(pos - lfp, 1) - 1
        ].astype(bool)
        spot = np.where(bumped, np.where(go_right, nfp, lfp), pos)
        occ[rows, spot] = True
        parked[:, j] = spot + base
    return parked
