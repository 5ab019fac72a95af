"""Exhaustive enumeration over the word space {1..r+1}^r: parking-word
counts, universality checks, cyclic-orbit audits, and the shuffle
decomposition of words landing on a given spot set."""

from __future__ import annotations

from collections import Counter, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

from . import _kernels
from .procedures import Procedure, bumped_spot, is_parking, run, walk_occupied
from .words import Word, blocks, multinomial, rotate

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
    """(n, r) matrix of parked spots, one row per word. Dispatches to a
    kernel when the procedure has one and the backend allows it."""
    if _kernels.resolve_backend(backend) == "numpy":
        if p.kernel == "table":
            return _kernels.table_parked(words, _rights_for(p, max(1, words.shape[1])))
        if p.kernel == "lbs":
            return _kernels.lbs_parked(words)
    out = np.empty(words.shape, np.int64)
    for i, row in enumerate(words.tolist()):
        out[i] = run(p, tuple(row)).parked
    return out


def _map_chunks(alphabet, r: int, fn, jobs: int) -> list:
    """fn over every chunk of the length-r words on `alphabet`, in order.

    Over `jobs` threads the chunks shrink to CHUNK // jobs words and at
    most `jobs` of them are read ahead of the results collected, so the
    words in flight stay about CHUNK however many threads share them.
    """
    size = max(1, _kernels.CHUNK // max(1, jobs))
    chunks = _kernels.alphabet_chunks(alphabet, r, size)
    if jobs <= 1:
        return [fn(w) for w in chunks]
    results = []
    with ThreadPoolExecutor(max_workers=jobs) as ex:
        pending: deque = deque()
        for words in chunks:
            pending.append(ex.submit(fn, words))
            if len(pending) == jobs:
                results.append(pending.popleft().result())
        results.extend(f.result() for f in pending)
    return results


def count_parking(
    p: Procedure,
    r: int,
    *,
    cap: int | None = DEFAULT_CAP,
    jobs: int = 1,
    backend: str | None = None,
) -> int:
    """Number of words of length r whose run occupies exactly {1..r}.

    A rule flagged memoryless or having an `update` walks (occupied
    subset of {1..r}, rule state) pairs (`walk_occupied`) unless a
    `backend` is named. Otherwise the words
    {1..r+1}^r are enumerated on `backend`, split over `jobs` threads;
    any word occupying {1..r} has all its letters in {1..r}, so the
    window is exhaustive. `jobs` matters only to enumeration.
    """
    _check_r(p, r, cap)
    if (p.is_memoryless or p.update is not None) and backend is None:

        def moves(occ: frozenset, state, a: int):
            spot = a if a not in occ else bumped_spot(p, state, (), occ, a, a)
            return ((spot, 1, state if p.update is None else p.update(state, a, spot)),)

        return walk_occupied(r, moves, p.init_state())

    def work(words: np.ndarray) -> int:
        parked = parked_matrix(p, words, backend)
        return int(((parked.min(axis=1) >= 1) & (parked.max(axis=1) <= r)).sum())

    return sum(_map_chunks(range(1, r + 2), r, work, jobs))


# ---------------------------------------------------------------------------
# cyclic orbits


def _canonical_keys(words: np.ndarray, r: int) -> np.ndarray:
    """Mixed-radix key of the lexicographically smallest rotation."""
    base = r + 1
    weights = _kernels.radix_weights(base, r)
    digits = words - 1
    best = digits @ weights
    for k in range(1, base):
        np.minimum(best, ((digits + k) % base) @ weights, out=best)
    return best


def _key_to_word(key: int, r: int) -> Word:
    base = r + 1
    letters = []
    for _ in range(r):
        letters.append(key % base + 1)
        key //= base
    return tuple(reversed(letters))


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
    p: Procedure,
    r: int,
    *,
    cap: int | None = DEFAULT_CAP,
    jobs: int = 1,
    backend: str | None = None,
) -> OrbitReport:
    """Count parking words in every cyclic orbit of {1..r+1}^r."""
    _check_r(p, r, cap)

    def work(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        parked = parked_matrix(p, words, backend)
        flags = (parked.min(axis=1) >= 1) & (parked.max(axis=1) <= r)
        keys = _canonical_keys(words, r)
        uniq, inv = np.unique(keys, return_inverse=True)
        sums = np.bincount(inv[flags], minlength=len(uniq))
        return uniq, sums

    per_orbit: Counter[int] = Counter()
    for uniq, sums in _map_chunks(range(1, r + 2), r, work, jobs):
        for key, s in zip(uniq.tolist(), sums.tolist()):
            per_orbit[key] += s

    histogram = Counter(per_orbit.values())
    violations = []
    for key, count in sorted(per_orbit.items()):
        if count == 1:
            continue
        rep = _key_to_word(key, r)
        members = [rep]
        w = rep
        for _ in range(r):
            w = rotate(w, r)
            members.append(w)
        parking = tuple(w for w in members if is_parking(p, w))
        violations.append(
            OrbitViolation(rep, tuple(members), count, parking)
        )
    return OrbitReport(
        procedure=p.name,
        r=r,
        orbit_count=len(per_orbit),
        histogram=dict(sorted(histogram.items())),
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
    jobs: int = 1,
    backend: str | None = None,
) -> UniversalityReport:
    """Compare parking-word counts against (r+1)^(r-1) for r = 1..r_max."""
    entries = tuple(
        UniversalityEntry(
            r,
            count_parking(p, r, cap=cap, jobs=jobs, backend=backend),
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
    jobs: int = 1,
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
            out *= count_parking(p, s, cap=cap, jobs=jobs, backend=backend)
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

    return sum(_map_chunks(alphabet, n, work, jobs))
