"""Reference answers the benchmark checks every query against.

Closed forms come from the paper's theorems. Where none exists the
reference is an operational simulator written here, which finds free
spots by scanning the line instead of reusing the library's block
machinery, so agreement is a real cross-check. Nothing in this module is
timed.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


def universal_count(r: int) -> int:
    """Parking words of length r under a universal rule: (r+1)^(r-1)."""
    return (r + 1) ** (r - 1)


def spot_set_blocks(spots) -> list[int]:
    """Sizes of the maximal runs of consecutive spots."""
    sizes: list[int] = []
    prev = None
    for s in sorted(spots):
        if prev is not None and s == prev + 1:
            sizes[-1] += 1
        else:
            sizes.append(1)
        prev = s
    return sizes


def words_to_set_count(spots) -> int:
    """Shuffle product: multinomial(block sizes) * prod (s+1)^(s-1), which
    holds for every local universal rule."""
    sizes = spot_set_blocks(spots)
    out = math.factorial(sum(sizes))
    for s in sizes:
        out = out // math.factorial(s) * universal_count(s)
    return out


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def frac_text(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# deterministic rules


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, n))


def _free_left(occ, a: int) -> int:
    while a in occ:
        a -= 1
    return a


def _free_right(occ, a: int) -> int:
    while a in occ:
        a += 1
    return a


def simulate(rule: str, word, table=None) -> list[int]:
    """Parked spot of every car. `rule` is a catalog spec (right, left,
    closest, prime, evenodd, far, lbs, naples:k=K) or "table", which reads
    `table` = (rows, default_right) as Dir(size, position) flags."""
    name, _, arg = rule.partition(":k=")
    occ: set[int] = set()
    parked: list[int] = []
    for a in word:
        if a in occ:
            left, right = _free_left(occ, a), _free_right(occ, a)
            if name == "right":
                go_right = True
            elif name == "left":
                go_right = False
            elif name == "closest":
                go_right = right - a <= a - left
            elif name == "prime":
                go_right = _is_prime(right - left - 1)
            elif name == "evenodd":
                go_right = a % 2 == 0
            elif name == "naples":
                go_right = not (a - left <= int(arg) and left >= 1)
            elif name == "far":
                go_right = sum(s > a for s in occ) <= sum(s < a for s in occ)
            elif name == "lbs":
                last = max(j for j, s in enumerate(parked) if left < s < right)
                go_right = a >= word[last]
            elif name == "table":
                rows, default_right = table
                size = right - left - 1
                go_right = rows[size - 1][a - left - 1] if size <= len(rows) else default_right
            else:
                raise ValueError(f"no reference simulator for {rule!r}")
            spot = right if go_right else left
        else:
            spot = a
        occ.add(spot)
        parked.append(spot)
    return parked


def parks(parked) -> bool:
    return sorted(parked) == list(range(1, len(parked) + 1))


def parking_count(rule: str, r: int, table=None) -> int:
    return sum(
        parks(simulate(rule, w, table))
        for w in itertools.product(range(1, r + 2), repeat=r)
    )


def outcome_histogram(rule: str, r: int) -> dict[tuple[int, ...], int]:
    """Parking words of length r by outcome sigma (sigma[spot-1] is the
    arrival index of the car parked there)."""
    hist: dict[tuple[int, ...], int] = {}
    for w in itertools.product(range(1, r + 2), repeat=r):
        parked = simulate(rule, w)
        if parks(parked):
            sigma = [0] * r
            for idx, spot in enumerate(parked):
                sigma[spot - 1] = idx + 1
            hist[tuple(sigma)] = hist.get(tuple(sigma), 0) + 1
    return hist


# ---------------------------------------------------------------------------
# probabilistic rules, by expanding every branch without merging


def _q_int(j: int, q: Fraction) -> Fraction:
    return sum((q**e for e in range(j)), Fraction(0))


def occupancy_measure(word, right_prob) -> dict[frozenset, Fraction]:
    """Distribution of the final occupied set; right_prob(size, i) is the
    chance that a car bumped at position i of a block of `size` goes
    right."""
    paths = [((), Fraction(1))]
    for a in word:
        nxt = []
        for parked, weight in paths:
            if a not in parked:
                nxt.append((parked + (a,), weight))
                continue
            left, right = _free_left(parked, a), _free_right(parked, a)
            pr = right_prob(right - left - 1, a - left)
            if pr:
                nxt.append((parked + (right,), weight * pr))
            if pr != 1:
                nxt.append((parked + (left,), weight * (1 - pr)))
        paths = nxt
    out: dict[frozenset, Fraction] = {}
    for parked, weight in paths:
        key = frozenset(parked)
        out[key] = out.get(key, Fraction(0)) + weight
    return out


def pq_parking_probability(q: Fraction, word) -> Fraction:
    """Parking probability under right-probability [i]_q / [size+1]_q."""
    dist = occupancy_measure(word, lambda size, i: _q_int(i, q) / _q_int(size + 1, q))
    return dist.get(frozenset(range(1, len(word) + 1)), Fraction(0))


def kw_measure(q: Fraction, word) -> dict[frozenset, Fraction]:
    """Occupancy distribution under the constant coin q."""
    return occupancy_measure(word, lambda size, i: q)


# ---------------------------------------------------------------------------
# colored last-block-setter


def colored_class_count(r: int, colors: int) -> int:
    """Value-rotation classes of words of r distinct letters with values
    in {1..r+1}: no nontrivial rotation fixes such a word, so each class
    has r+1 members."""
    letters = colors * (r + 1)
    return math.perm(letters, r) // (r + 1)
