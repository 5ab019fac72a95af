"""Exhaustive answers about the words of length r: parking-word counts,
universality checks, cyclic-orbit audits, and the shuffle decomposition
of words landing on a given spot set.

Counts walk (occupied set, rule state) pairs (`procedures.walk_occupied`).
Orbit audits read the parking words from `procedures.parking_runs`, which
grows them level by level over the same pairs as numpy arrays, so the
rule is consulted once per pair and letter, not once per prefix.
Every word over an alphabet is grown only where it is the reference,
`count_words_to_set(..., "brute")` and counts that name a `backend`: on
the same engine by default (`procedures.count_landing`, which carries
each node's number of prefixes instead of the words), or word by word on
the per-word engine with `backend="python"`.
Every query estimates its work in car steps before any car is placed and
is refused beyond one budget, `WORK_BUDGET` (see `check_budget`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable

import numpy as np

from . import _kernels
from .procedures import Procedure, count_landing, parking_runs, run, walk_occupied
from .words import Word, blocks, multinomial, orbit_representative, rotate

# car steps one query may take unless `cap` says otherwise; None lifts it
WORK_BUDGET = 10_000_000


class CapExceededError(RuntimeError):
    """A query's estimated work exceeds the work budget."""


class StrictTableError(ValueError):
    """A strict table procedure was asked about blocks beyond its table."""


def check_budget(path: str, steps: int, cap: int | None) -> None:
    """Refuse `steps` car steps along `path` beyond `cap`; None lifts it."""
    if cap is not None and steps > cap:
        raise CapExceededError(
            f"{path}: {steps:,} car steps exceed the work budget {cap:,}"
            " (--cap-unsafe or cap=None lifts it)"
        )


def walk_weight(p: Procedure, target: frozenset, cap: int | None):
    """Total weight of the runs of `p` ending on exactly `target` (`walk_occupied`),
    estimated at 2^n * n car steps over n spots before any car is placed; a rule
    state can multiply the pairs, so the walk also counts its steps car by car."""
    n = len(target)
    path = f"walk over {n} spots"
    check_budget(path, 2**n * n, cap)
    return walk_occupied(target, p, lambda steps: check_budget(path, steps, cap))


def expected_parking_count(r: int) -> int:
    return (r + 1) ** (r - 1)


def _check_r(r: int) -> None:
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")


def _check_strict(p: Procedure, n: int) -> None:
    if p.strict_r_max is not None and n > p.strict_r_max:
        raise StrictTableError(
            f"{p.name} is strict with r_max={p.strict_r_max}; refusing r={n}"
        )


def _check_runs(p: Procedure, r: int, cap: int | None) -> None:
    """Checks before the parking words of length r are grown: r >= 1, a strict
    table's rows, the budget, and int64 word indices, kept if the budget is lifted."""
    _check_r(r)
    _check_strict(p, r)
    check_budget(f"parking runs of length {r}", r**r * r, cap)
    _kernels.radix_weights(r + 1, r)


def count_parking(
    p: Procedure,
    r: int,
    *,
    cap: int | None = WORK_BUDGET,
    backend: str | None = None,
) -> int:
    """Number of words of length r whose run occupies exactly {1..r}: the
    spot set {1..r} of `count_words_to_set`, walked or enumerated alike."""
    _check_r(r)
    return count_words_to_set(p, range(1, r + 1), cap=cap, backend=backend)


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
    p: Procedure, r: int, *, cap: int | None = WORK_BUDGET
) -> OrbitReport:
    """Count parking words in every cyclic orbit of {1..r+1}^r.

    An orbit holds the r+1 letterwise rotations of a word mod r+1, so
    exactly one member starts with 1; its letters 2..r, read in radix
    r+1, index the orbit. Only the parking words are built
    (`parking_runs`), and a violating orbit lists those among them.
    """
    _check_runs(p, r, cap)
    base = r + 1
    words, _ = parking_runs(p, r)
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
        histogram={k: v for k, v in enumerate(np.bincount(per_orbit).tolist()) if v},
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
    cap: int | None = WORK_BUDGET,
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
    via: str | None = None,
    *,
    pad: int = 0,
    cap: int | None = WORK_BUDGET,
    backend: str | None = None,
) -> int:
    """Number of words of length |S| whose run occupies exactly S.

    Every word landing exactly on S has all its letters in S: a letter
    outside the final set would park there and stay. By default a rule
    that `can_walk` walks (occupied subset of S, rule state) pairs
    (`walk_occupied`) unless a `backend` is named; a rule that branches
    on the way to S raises ValueError. Otherwise, and with "brute", every
    word with letters in S is run: "numpy" (the default) grows them all
    on the prefix-growth engine (`count_landing`), asking the rule once
    per node and letter; "python" runs each word on the per-word
    engine. Either raises ValueError if any word's run branches. pad>0
    widens that alphabet to the full interval [min(S)-pad, max(S)+pad],
    gaps included, which re-verifies the claim above empirically.
    "formula" multiplies shuffle counts with per-block parking counts and
    requires a local procedure.
    """
    if via not in (None, "brute", "formula"):
        raise ValueError(f"unknown mode {via!r}")
    walk = via is None and p.can_walk and backend is None
    if pad and (walk or via == "formula"):
        raise ValueError("pad widens the alphabet of word enumeration only")
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

    _check_strict(p, n)
    if walk:
        count = walk_weight(p, target, cap)
        # a run weighs an int 1 unless one of its decisions branched
        if type(count) is not int:
            raise ValueError(f"{p.name} branches; total_parking_mass weighs its runs")
        return count

    alphabet = range(min(target) - pad, max(target) + pad + 1) if pad else sorted(target)
    check_budget(f"words over {len(alphabet)} letters", len(alphabet) ** n * n, cap)
    # numpy counts the words in int64, even with the budget lifted
    _kernels.radix_weights(len(alphabet), n)
    if _kernels.resolve_backend(backend) == "python":
        return sum(run(p, word).spots == target for word in product(alphabet, repeat=n))
    return count_landing(p, alphabet, target)
