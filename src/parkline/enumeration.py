"""Exhaustive answers about the words of length r: parking-word counts,
universality checks, cyclic-orbit audits, and the shuffle decomposition
of words landing on a given spot set.

Counts walk (occupied set, rule state) pairs and orbit audits grow only
the parking words (`procedures.walk_occupied`, `procedures.parking_runs`).
The word space {1..r+1}^r is enumerated only where it is the reference:
`count_words_to_set(..., "brute")` and counts that name a `backend`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

from . import _kernels
from .procedures import Procedure, parking_runs, run, step_moves, walk_occupied
from .words import Word, blocks, multinomial, orbit_representative, rotate

DEFAULT_CAP = 8
# hard guard on brute-force word counts regardless of cap
MAX_BRUTE_WORDS = 80_000_000


class CapExceededError(RuntimeError):
    """Exhaustive search would exceed the configured cap."""


class StrictTableError(ValueError):
    """A strict table procedure was asked about blocks beyond its table."""


def expected_parking_count(r: int) -> int:
    return (r + 1) ** (r - 1)


def _check_r(p: Procedure, r: int, cap: int | None) -> None:
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    if cap is not None and r > cap:
        raise CapExceededError(f"r={r} exceeds exhaustive cap {cap}")
    if p.strict_r_max is not None and r > p.strict_r_max:
        raise StrictTableError(
            f"{p.name} is strict with r_max={p.strict_r_max}; refusing r={r}"
        )


@lru_cache(maxsize=256)
def _rights_for(p: Procedure, r: int) -> np.ndarray:
    return _kernels.rights_array(p.dir_rule, r)


def parked_matrix(
    p: Procedure, words: np.ndarray, backend: str | None = None
) -> np.ndarray:
    """(n, r) matrix of parked spots, one row per word. A table rule (one
    with a `dir_rule`) runs the table kernel unless the backend is
    "python"; every other rule runs the per-word engine."""
    if p.dir_rule is not None and _kernels.resolve_backend(backend) == "numpy":
        return _kernels.table_parked(words, _rights_for(p, max(1, words.shape[1])))
    out = np.empty(words.shape, np.int64)
    for i, row in enumerate(words.tolist()):
        out[i] = run(p, tuple(row)).parked
    return out


def count_parking(
    p: Procedure,
    r: int,
    *,
    cap: int | None = DEFAULT_CAP,
    backend: str | None = None,
) -> int:
    """Number of words of length r whose run occupies exactly {1..r}.

    A rule that `can_walk` walks (occupied subset of {1..r}, rule state)
    pairs (`walk_occupied`) unless a `backend` is named. Otherwise the
    words {1..r+1}^r are enumerated on `backend`; any word occupying
    {1..r} has all its letters in {1..r}, so the window is exhaustive.
    A rule that branches on the way to {1..r} raises ValueError.
    """
    _check_r(p, r, cap)
    if p.can_walk and backend is None:
        count = walk_occupied(r, step_moves(p), p.init_state())
        # a run weighs an int 1 unless one of its decisions branched
        if type(count) is not int:
            raise ValueError(f"{p.name} branches; total_parking_mass weighs its runs")
        return count

    def work(words: np.ndarray) -> int:
        parked = parked_matrix(p, words, backend)
        return int(((parked.min(axis=1) >= 1) & (parked.max(axis=1) <= r)).sum())

    return sum(work(words) for words in _kernels.alphabet_chunks(range(1, r + 2), r))


# ---------------------------------------------------------------------------
# cyclic orbits


@dataclass(frozen=True)
class OrbitViolation:
    representative: Word
    members: tuple[Word, ...]
    parking_count: int
    parking_words: tuple[Word, ...]


@dataclass(frozen=True)
class OrbitReport:
    procedure: str
    r: int
    orbit_count: int
    histogram: dict[int, int]  # parking words per orbit -> number of orbits
    violations: tuple[OrbitViolation, ...]

    @property
    def parking_total(self) -> int:
        return sum(k * v for k, v in self.histogram.items())

    @property
    def all_one(self) -> bool:
        return not self.violations


def orbit_audit(
    p: Procedure, r: int, *, cap: int | None = DEFAULT_CAP
) -> OrbitReport:
    """Count parking words in every cyclic orbit of {1..r+1}^r.

    An orbit holds the r+1 letterwise rotations of a word mod r+1, so
    exactly one member starts with 1; its letters 2..r, read in radix
    r+1, index the orbit. Only the parking words are built
    (`parking_runs`), and a violating orbit lists those among them.
    """
    _check_r(p, r, cap)
    base = r + 1
    # refuse a word space beyond int64 indices before any prefix is grown
    _kernels.radix_weights(base, r)
    words = np.fromiter(
        (a for word, _ in parking_runs(p, r) for a in word), np.int8
    ).reshape(-1, r)
    weights = _kernels.radix_weights(base, r - 1)
    keys = ((words[:, 1:] - words[:, :1]) % base) @ weights
    per_orbit = np.bincount(keys, minlength=base ** (r - 1))

    # parking words of the violating orbits; orbits are disjoint
    found = set(map(tuple, words[per_orbit[keys] != 1].tolist()))
    bad = np.flatnonzero(per_orbit != 1)
    violations = []
    for key, rest in zip(bad.tolist(), ((bad[:, None] // weights) % base + 1).tolist()):
        rep = orbit_representative((1, *rest), r)
        members = [rep]
        for _ in range(r):
            members.append(rotate(members[-1], r))
        parking = tuple(w for w in members if w in found)
        violations.append(
            OrbitViolation(rep, tuple(members), int(per_orbit[key]), parking)
        )
    violations.sort(key=lambda v: v.representative)
    return OrbitReport(
        procedure=p.name,
        r=r,
        orbit_count=len(per_orbit),
        histogram=dict(sorted(Counter(per_orbit.tolist()).items())),
        violations=tuple(violations),
    )


# ---------------------------------------------------------------------------
# universality


@dataclass(frozen=True)
class UniversalityEntry:
    r: int
    count: int
    expected: int

    @property
    def ok(self) -> bool:
        return self.count == self.expected


@dataclass(frozen=True)
class UniversalityReport:
    procedure: str
    entries: tuple[UniversalityEntry, ...]

    @property
    def passed(self) -> bool:
        return all(e.ok for e in self.entries)

    @property
    def first_failure(self) -> UniversalityEntry | None:
        return next((e for e in self.entries if not e.ok), None)


def check_universal(
    p: Procedure,
    r_max: int,
    *,
    cap: int | None = DEFAULT_CAP,
    backend: str | None = None,
) -> UniversalityReport:
    """Compare parking-word counts against (r+1)^(r-1) for r = 1..r_max."""
    entries = tuple(
        UniversalityEntry(
            r,
            count_parking(p, r, cap=cap, backend=backend),
            expected_parking_count(r),
        )
        for r in range(1, r_max + 1)
    )
    return UniversalityReport(p.name, entries)


# ---------------------------------------------------------------------------
# words landing on a fixed spot set


def count_words_to_set(
    p: Procedure,
    spots: Iterable[int],
    via: str = "brute",
    *,
    pad: int = 0,
    cap: int | None = DEFAULT_CAP,
    backend: str | None = None,
) -> int:
    """Number of words of length |S| whose run occupies exactly S.

    "brute" enumerates candidate words with letters from S itself when
    pad=0, which is already exhaustive: every word landing exactly on S
    has all its letters in S (a letter outside the final set would park
    there and stay). pad>0 widens the alphabet to the full interval
    [min(S)-pad, max(S)+pad], gaps included, which re-verifies that claim
    empirically. "formula" multiplies shuffle counts with per-block
    parking counts and requires a local procedure.
    """
    target = frozenset(spots)
    n = len(target)
    if n == 0:
        return 1

    if via == "formula":
        if not p.is_local:
            raise ValueError(f"{p.name} is not local; the product formula needs locality")
        sizes = [b.size for b in blocks(target)]
        out = multinomial(sizes)
        for s in sizes:
            out *= count_parking(p, s, cap=cap, backend=backend)
        return out
    if via != "brute":
        raise ValueError(f"unknown mode {via!r}")

    if cap is not None and n > cap:
        raise CapExceededError(f"|S|={n} exceeds exhaustive cap {cap}")
    if p.strict_r_max is not None and n > p.strict_r_max:
        raise StrictTableError(
            f"{p.name} is strict with r_max={p.strict_r_max}; refusing |S|={n}"
        )
    if pad == 0:
        alphabet = sorted(target)
    else:
        alphabet = range(min(target) - pad, max(target) + pad + 1)
    if len(alphabet) ** n > MAX_BRUTE_WORDS:
        raise CapExceededError(
            f"{len(alphabet)} letters ^ {n} exceeds {MAX_BRUTE_WORDS} words"
        )
    goal = np.array(sorted(target), np.int64)

    def work(words: np.ndarray) -> int:
        parked = parked_matrix(p, words, backend)
        return int(np.all(np.sort(parked, axis=1) == goal, axis=1).sum())

    return sum(work(words) for words in _kernels.alphabet_chunks(alphabet, n))
