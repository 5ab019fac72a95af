"""Exhaustive answers about the words of length r: parking-word counts,
universality checks, cyclic-orbit audits, and the shuffle decomposition
of words landing on a given spot set.

Counts and masses weigh the runs landing on a spot set in one place,
`landing_weight`: an int numerator over an int denominator, which is 1
unless some decision branched. A rule that decides by block (memoryless
and locally decided) sums the interval DP over the forest encoding
(`interval_weight`): the words landing on a block are summed over the
decreasing trees of their runs, in time polynomial in the block size.
Any other rule walks (occupied set, rule state) pairs
(`procedures.walk_occupied`).
Orbit audits grow the parking words over the same pairs as their orbit
keys (`procedures.parking_keys`), so the rule is consulted once per pair
and letter, not once per prefix.
Every word over an alphabet is counted only for `count_words_to_set(...,
"brute")` and counts that name a `backend`: by default on (occupied set,
state) pairs, each carrying its number of words
(`procedures.count_landing`), or word by word on the per-word engine with
`backend="python"`.
Every query estimates its work in car steps before any car is placed and
is refused beyond one budget, `WORK_BUDGET` (see `check_budget`). Each
query reports the path it takes and that estimate in one DEBUG record on
the `parkline` logger (`take_path`).
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass
from itertools import product
from typing import Iterable

from . import _kernels
from .procedures import Fold, Procedure, count_landing, int_choices, parking_keys, run, walk_occupied
from .words import Word, as_int, blocks, multinomial, rotate

# car steps one query may take unless `cap` says otherwise; None lifts it
WORK_BUDGET = 10_000_000

log = logging.getLogger("parkline")


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


def take_path(kind: str, path: str, steps: int, cap: int | None) -> None:
    """Report the path a query takes, one of "interval DP", "walk",
    "engine" or "per-word", with its estimate in one DEBUG record on the
    `parkline` logger (fields `path`, `estimate` and `budget`), then check
    the estimate against the budget."""
    log.debug(
        "%s: %s, %s car steps estimated, budget %s",
        kind, path, f"{steps:,}", "lifted" if cap is None else f"{cap:,}",
        extra={"path": kind, "estimate": steps, "budget": cap},
    )
    check_budget(path, steps, cap)


def landing_weight(p: Procedure, target: frozenset, cap: int | None) -> tuple[int, int]:
    """Total weight `(num, den)` of the runs of `p` ending on exactly
    `target`, as ints: `den` is 1 unless some decision on the way branched,
    so a rule that never branches gets its count as `num`. A rule that
    `decides_by_block` sums the forest encoding (`interval_weight`); any
    other rule walks (occupied set, state) pairs (`walk_occupied`),
    estimated at 2^n * n car steps over n spots before any car is placed.
    A rule state can multiply the pairs, so the walk also counts its steps
    car by car. A strict table refuses a target beyond its rows."""
    n = len(target)
    _check_strict(p, n)
    if p.decides_by_block:
        return interval_weight(p, target, cap)
    path = f"walk over {n} spots"
    take_path("walk", path, 2**n * n, cap)
    return walk_occupied(target, p, lambda steps: check_budget(path, steps, cap))


def block_sides(p: Procedure, a: int, b: int) -> tuple[int, int, int]:
    """(R, L, D): the right- and left-probabilities of a car preferring j,
    summed over every j in [a, b], while exactly [a, b] is occupied, as
    `int_choices` gives them with the rule's initial state: int numerators
    R and L over the lcm D of the choices' denominators. D is 1 unless
    some decision branches; with D = 1, R and L count the preferences
    bumped right and left."""
    occupied = frozenset(range(a, b + 1))
    init = p.init_state()
    choices = [(j, *c) for j in range(a, b + 1) for c in int_choices(p, init, occupied, j, j)]
    den = math.lcm(*(d for *_, d in choices))
    right = sum(num * (den // d) for j, spot, num, d in choices if spot > j)
    left = sum(num * (den // d) for j, spot, num, d in choices if spot < j)
    return right, left, den


def interval_weight(p: Procedure, target: frozenset, cap: int | None) -> tuple[int, int]:
    """Total weight `(num, den)` of the runs of `p` ending on exactly
    `target`, summed over the forest encoding instead of words or occupied
    sets.

    The last car to park on a block [lo, hi] takes some spot k, the root of
    the block's decreasing tree. The cars before it landed on [lo, k-1] and
    [k+1, hi], which stay apart, in any of C(hi-lo, k-lo) interleavings, and
    the last car preferred k itself, a spot of [lo, k-1] bumped right or a
    spot of [k+1, hi] bumped left. With R and L from `block_sides`:

        F(lo, hi) = sum_k C(hi-lo, k-lo) * (1 + R(lo, k-1) + L(k+1, hi))
                    * F(lo, k-1) * F(k+1, hi),       F(empty) = 1,

    and the blocks of `target` interleave likewise, each taken at its own
    position, so the weight is the multinomial of the block sizes times F
    of each block. F of a block is an int numerator over a power of its
    sides' denominator (`_block_weight`), 1 for a rule that never branches.

    This holds only if every decision depends on nothing but the letter and
    the block it lands on. The DP trusts the flag `Procedure.decides_by_block`
    reads. Its work is estimated at n^4 car steps per block of n spots,
    before the first probe: about n^3/6 products whose operands grow with n.
    """
    parts = blocks(target)
    take_path(
        "interval DP",
        f"interval DP over {len(target)} spots",
        sum(b.size**4 for b in parts),
        cap,
    )
    num, den = multinomial([b.size for b in parts]), 1
    side = _block_sides_memo(p)
    for b in parts:
        f, d = _block_weight(side, b.lo, b.size)
        num, den = num * f, den * d
    return num, den


def _block_sides_memo(p: Procedure):
    """`block_sides` of `p` for one call, kept while the caller keeps the
    returned function; an empty block has sides (0, 0, 1). A rule that
    `is_local` is probed once per block size, on the block [1, size], which
    trusts `is_shift_invariant` as `via="formula"` does: n probes for the
    blocks inside n spots instead of one per block. Any other rule is
    probed once per block."""
    if p.is_local:
        by_size = functools.cache(lambda n: block_sides(p, 1, n))
        return lambda a, b: by_size(b - a + 1) if a <= b else (0, 0, 1)
    return functools.cache(lambda a, b: block_sides(p, a, b) if a <= b else (0, 0, 1))


def _block_weight(side, lo: int, n: int) -> tuple[int, int]:
    """F(lo, lo+n-1) of `interval_weight` as `(num, den)`, from the sides
    of the call's `_block_sides_memo`, which every block of the target
    shares. Intervals are taken half-open in offsets from lo: [i, j) holds
    the spots lo+i .. lo+j-1. The sides are taken over D, the lcm of their
    denominators, so F of an interval of m spots is an int numerator over
    D^m."""
    # the whole block is never a side: no car comes after the last
    sides = [[side(lo + i, lo + j - 1) if (i, j) != (0, n) else (0, 0, 1) for j in range(n + 1)]
             for i in range(n + 1)]
    den = math.lcm(*(d for row in sides for _, _, d in row))
    sides = [[(right * (den // d), left * (den // d)) for right, left, d in row] for row in sides]
    f = [[1] * (n + 1) for _ in range(n + 1)]
    for size in range(1, n + 1):
        comb = [math.comb(size - 1, t) for t in range(size)]
        for i in range(n - size + 1):
            j = i + size
            f[i][j] = sum(
                comb[k - i] * (den + sides[i][k][0] + sides[k + 1][j][1]) * f[i][k] * f[k + 1][j]
                for k in range(i, j)
            )
    return f[0][n], den**n


def expected_parking_count(r: int) -> int:
    return (r + 1) ** (r - 1)


def _check_r(r: int, name: str = "r") -> None:
    if r < 1:
        raise ValueError(f"{name} must be >= 1, got {r}")


def _check_strict(p: Procedure, n: int) -> None:
    if p.strict_r_max is not None and n > p.strict_r_max:
        raise StrictTableError(
            f"{p.name} is strict with r_max={p.strict_r_max}; refusing r={n}"
        )


def _check_runs(p: Procedure, r: int, cap: int | None) -> None:
    """Checks before the parking words of length r are grown: r >= 1, a strict
    table's rows and the budget; `grow_runs` checks int64 keys even if it is lifted."""
    _check_r(r)
    _check_strict(p, r)
    take_path("engine", f"parking runs of length {r}", r**r * r, cap)


def count_parking(
    p: Procedure,
    r: int,
    *,
    cap: int | None = WORK_BUDGET,
    backend: str | None = None,
) -> int:
    """Number of words of length r whose run occupies exactly {1..r}: the
    spot set {1..r} of `count_words_to_set`, on the same paths."""
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


def _orbit_fold(r: int) -> Fold:
    """Orbit key of each word of length r over at most r+1 letters, in radix
    r+1: its first letter's index, then (a - first) mod r+1 for each later
    letter a. Key // (r+1)^(r-1) is that index, and key % (r+1)^(r-1) keys
    the orbit as the key of its member starting with the first letter."""
    places = _kernels.radix_weights(r + 1, r)
    lead, base = places[0], r + 1
    # the first car meets keys 0 and puts its own index in the lead place
    return Fold(base, r, lambda k, keys, cols, _: keys + (cols - keys // lead) % base * places[k])


def orbit_audit(
    p: Procedure, r: int, *, cap: int | None = WORK_BUDGET
) -> OrbitReport:
    """Count parking words in every cyclic orbit of {1..r+1}^r.

    An orbit holds the r+1 letterwise rotations of a word mod r+1, so
    exactly one member starts with 1, its smallest, which keys it
    (`_orbit_fold`). Only the parking words are grown, as their keys
    (`parking_keys`), which give each orbit's parking members.
    """
    import numpy as np

    _check_runs(p, r, cap)
    fold, lead = _orbit_fold(r), (r + 1) ** (r - 1)
    keys = parking_keys(p, r, fold)
    per_orbit = np.bincount(keys % lead, minlength=lead)

    # violating orbits' parking keys: orbit o's member j has key j*lead + o
    found = set(keys[per_orbit[keys % lead] != 1].tolist())
    bad = np.flatnonzero(per_orbit != 1)
    violations = []
    for key, rep in zip(bad.tolist(), (fold.digits(bad) + 1).tolist()):
        members = [tuple(rep)]
        for _ in range(r):
            members.append(rotate(members[-1], r))
        parking = tuple(w for j, w in enumerate(members) if j * lead + key in found)
        violations.append(OrbitViolation(members[0], tuple(members), int(per_orbit[key]), parking))
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
    """Compare parking-word counts against (r+1)^(r-1) for r = 1..r_max >= 1."""
    _check_r(r_max, "r_max")
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
    outside the final set would park there and stay. By default, unless a
    `backend` is named, the count is S's `landing_weight`: a rule that
    `decides_by_block` sums the forest encoding over S's blocks, and any
    other rule walks (occupied subset of S, rule state) pairs; a rule
    that branches on the way to S raises ValueError. With "brute" or a
    `backend`, every word with letters in S is run: "numpy" (the default)
    counts them on (occupied set, state) pairs (`count_landing`), asking
    the rule once per pair and letter; "python" runs each word on the
    per-word engine. Either raises ValueError if any word's run branches.
    `pad`, an int >= 0 or a numpy integer as spots are (`words.as_int`),
    but no bool, widens that alphabet to [min(S)-pad, max(S)+pad], gaps
    included, which re-verifies the claim above empirically; the default
    path refuses it. "formula" multiplies shuffle counts with per-block
    parking counts and requires a local procedure.
    """
    if via not in (None, "brute", "formula"):
        raise ValueError(f"unknown mode {via!r}")
    default = via is None and backend is None
    try:
        width = as_int(pad, "pad")
    except ValueError:
        width = -1
    if width < 0:
        raise ValueError(f"pad must be an int >= 0, got {pad!r}")
    pad = width
    if pad and (default or via == "formula"):
        raise ValueError("pad widens the alphabet of word enumeration only")
    target = frozenset(as_int(s, "spot") for s in spots)
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

    if default:
        count, den = landing_weight(p, target, cap)
        if den > 1:
            raise ValueError(f"{p.name} branches; total_parking_mass weighs its runs")
        return count

    _check_strict(p, n)
    alphabet = range(min(target) - pad, max(target) + pad + 1) if pad else sorted(target)
    take_path(
        "per-word" if backend == "python" else "engine",
        f"words over {len(alphabet)} letters",
        len(alphabet) ** n * n,
        cap,
    )
    # a word space beyond int64 indices is refused even with the budget
    # lifted, though the count itself is a Python int
    _kernels.radix_weights(len(alphabet), n)
    if _kernels.resolve_backend(backend) == "python":
        return sum(run(p, word).spots == target for word in product(alphabet, repeat=n))
    return count_landing(p, alphabet, target)
