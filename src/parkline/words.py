"""Primitives on the integer line: preference words, spot sets, blocks,
shifts, cyclic rotations and shuffles."""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral
from typing import Iterable, Iterator, Sequence

# A preference word is a finite sequence of integers; letter i is the spot
# the i-th car wants. A spot set is a finite set of occupied spots.
Word = tuple[int, ...]
SpotSet = frozenset[int]


def as_int(x, what: str = "letter") -> int:
    """`x` as an int. Anything but an int or a numpy integer, a bool, a
    float or a string included, raises ValueError naming it."""
    if type(x) is not int and (isinstance(x, bool) or not isinstance(x, Integral)):
        raise ValueError(f"{what} {x!r} is not an int")
    return int(x)


def as_word(letters: Iterable[int]) -> Word:
    return tuple(as_int(a) for a in letters)


@dataclass(frozen=True, order=True)
class Block:
    """Maximal run of consecutive occupied spots, {lo..hi}."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty block [{self.lo}, {self.hi}]")

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1

    def spots(self) -> range:
        return range(self.lo, self.hi + 1)

    def __contains__(self, spot: int) -> bool:
        return self.lo <= spot <= self.hi


def blocks(spots: Iterable[int]) -> tuple[Block, ...]:
    """Decompose a spot set into its blocks, ascending.

    Blocks are pairwise non-adjacent (gap of at least one free spot) and
    their union is the input set.
    """
    ordered = sorted(set(spots))
    if not ordered:
        return ()
    out: list[Block] = []
    lo = prev = ordered[0]
    for s in ordered[1:]:
        if s == prev + 1:
            prev = s
        else:
            out.append(Block(lo, prev))
            lo = prev = s
    out.append(Block(lo, prev))
    return tuple(out)


def block_bounds(occupied: set[int] | frozenset[int], spot: int) -> tuple[int, int]:
    """Bounds (lo, hi) of the block of the spot set `occupied` containing
    `spot`, found without building a `Block`; `spot` must be occupied."""
    if spot not in occupied:
        raise ValueError(f"spot {spot} is not occupied")
    lo = hi = spot
    while lo - 1 in occupied:
        lo -= 1
    while hi + 1 in occupied:
        hi += 1
    return lo, hi


def block_of(occupied: Iterable[int], spot: int) -> Block:
    """Block of `occupied` containing `spot`; `spot` must be occupied."""
    occ = occupied if isinstance(occupied, (set, frozenset)) else set(occupied)
    return Block(*block_bounds(occ, spot))


def shift(x: Word | SpotSet | set[int], k: int):
    """Translate a word or a spot set by k."""
    if isinstance(x, tuple):
        return tuple(a + k for a in x)
    if isinstance(x, (set, frozenset)):
        return frozenset(a + k for a in x)
    raise TypeError(f"cannot shift {type(x).__name__}")


def _check_letters(word: Word, r: int) -> None:
    for a in word:
        if not 1 <= a <= r + 1:
            raise ValueError(f"letter {a} outside {{1..{r + 1}}}")


def rotate(word: Word, r: int) -> Word:
    """Add 1 to every letter mod r+1, with representatives in {1..r+1}."""
    word = as_word(word)
    _check_letters(word, r)
    n = r + 1
    return tuple(a % n + 1 for a in word)


@dataclass(frozen=True)
class CyclicOrbit:
    """Orbit of a word under repeated letterwise rotation mod r+1."""

    representative: Word  # lexicographically smallest member
    modulus: int  # r + 1
    members: frozenset[Word]


def cyclic_orbit(word: Word, r: int) -> CyclicOrbit:
    word = as_word(word)
    _check_letters(word, r)
    members = set()
    w = word
    for _ in range(r + 1):
        members.add(w)
        w = rotate(w, r)
    return CyclicOrbit(min(members), r + 1, frozenset(members))


def orbit_representative(word: Word, r: int) -> Word:
    """Canonical orbit key: the lexicographically smallest rotation. The
    rotations start with distinct letters, so it is the one starting with 1."""
    word = as_word(word)
    _check_letters(word, r)
    return tuple((a - word[0]) % (r + 1) + 1 for a in word)


def multinomial(sizes: Sequence[int]) -> int:
    """Number of interleavings of parts with the given lengths."""
    total = 0
    out = 1
    for s in sizes:
        total += s
        out *= math.comb(total, s)
    return out


def shuffle_count(parts: Sequence[Sequence[int]]) -> int:
    return multinomial([len(p) for p in parts])


def iter_shuffles(parts: Sequence[Sequence[int]]) -> Iterator[Word]:
    """All interleavings of `parts`, each preserving its internal order.

    Yields one word per interleaving pattern; words repeat if the parts
    share letters.
    """
    parts = [as_word(p) for p in parts]

    def rec(positions: tuple[int, ...], acc: list[int]) -> Iterator[Word]:
        if all(pos == len(parts[j]) for j, pos in enumerate(positions)):
            yield tuple(acc)
            return
        for j, pos in enumerate(positions):
            if pos < len(parts[j]):
                acc.append(parts[j][pos])
                nxt = positions[:j] + (pos + 1,) + positions[j + 1 :]
                yield from rec(nxt, acc)
                acc.pop()

    yield from rec((0,) * len(parts), [])
