"""Shared test helpers.

`oracle_run` is an independent reference simulator: it scans the line for
free spots operationally (nearest-free-to-the-right, distance comparison,
back-up-then-go-right, population counts) instead of using the library's
block-edge formulation, so agreement is a real cross-check.

`grown_runs` reads the words and spots of the prefix-growth engine, so
that tests compare them row by row with `run()`.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from parkline.colored import ColoredLetter, colored_run
from parkline.enumeration import OrbitReport, OrbitViolation
from parkline.probabilistic import measure
from parkline.procedures import (
    Direction,
    DirTable,
    Procedure,
    decision_table,
    grow_runs,
    table_procedure,
)


def grown_runs(p: Procedure, r: int, letters, inside: frozenset | None = None):
    """`grow_runs` of rule `p`, with a fresh decision table: `(words,
    parked, ids, nodes)`. `words` and `parked` are (m, r) int64 arrays, the
    words in lexicographic order, and `parked` is None unless every node
    is a point mass of weight 1, since only then are the spots those of
    the runs. `nodes` are the last generation's measures, each mapping
    (occupied set, state) to (weight, state), the weight a Fraction: its
    int numerator over the node's denominator."""
    words, parked, ids, nodes = grow_runs(p, r, letters, inside, decision_table(p))
    measures = [{key: (Fraction(w, den), key[1]) for key, w in runs.items()} for den, runs in nodes]
    return words, parked, ids, measures


def parking_runs(p: Procedure, r: int):
    """Every parking word of length r and its cars' spots, `(words,
    parked)` of `grown_runs` over {1..r} with the spots kept inside {1..r}
    (a car parked outside never leaves), for a rule that never branches."""
    words, parked, _, _ = grown_runs(p, r, range(1, r + 1), frozenset(range(1, r + 1)))
    assert parked is not None, f"{p.name} branches"
    return words, parked


def _nearest_free_left(occ: set[int], a: int) -> int:
    s = a
    while s in occ:
        s -= 1
    return s


def _nearest_free_right(occ: set[int], a: int) -> int:
    s = a
    while s in occ:
        s += 1
    return s


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, n))


def oracle_spot(
    rule: str, occ: set[int], a: int, k: int = 1, table: DirTable | None = None
) -> int:
    """Spot chosen for a car preferring the occupied spot `a`; the "table"
    rule reads its direction from `table`."""
    left = _nearest_free_left(occ, a)
    right = _nearest_free_right(occ, a)
    if rule == "table":
        size = right - left - 1
        if size <= len(table.rows):
            d = table.rows[size - 1][a - left - 1]
        else:
            d = table.default_beyond
        return right if d is Direction.RIGHT else left
    if rule == "right":
        return right
    if rule == "left":
        return left
    if rule == "closest":
        return right if right - a <= a - left else left
    if rule == "prime":
        return right if _is_prime(right - left - 1) else left
    if rule == "naples":
        for j in range(1, k + 1):
            if a - j not in occ:
                return a - j if a - j > 0 else right
        return right
    if rule == "far":
        nright = sum(1 for s in occ if s > a)
        nleft = sum(1 for s in occ if s < a)
        return right if nright <= nleft else left
    if rule == "evenodd":
        return right if a % 2 == 0 else left
    raise ValueError(rule)


def oracle_run(
    rule: str, word, k: int = 1, table: DirTable | None = None
) -> tuple[set[int], list[int]]:
    occ: set[int] = set()
    parked: list[int] = []
    for a in word:
        spot = a if a not in occ else oracle_spot(rule, occ, a, k, table)
        occ.add(spot)
        parked.append(spot)
    return occ, parked


def oracle_lbs_run(word) -> tuple[set[int], list[int]]:
    """Independent last-block-setter: recompute the block's last parker
    from the full trace at every step."""
    occ: set[int] = set()
    parked: list[int] = []
    for a in word:
        if a not in occ:
            spot = a
        else:
            lo = a
            while lo - 1 in occ:
                lo -= 1
            hi = a
            while hi + 1 in occ:
                hi += 1
            last_j = max(j for j, s in enumerate(parked) if lo <= s <= hi)
            spot = hi + 1 if a >= word[last_j] else lo - 1
        occ.add(spot)
        parked.append(spot)
    return occ, parked


def oracle_mass(right_prob, spots) -> Fraction:
    """Sum over every word with letters in `spots` of the probability that
    its run ends on exactly `spots`, expanding every branch: a bumped car
    scans for the free spots around its preference and goes right with
    probability right_prob(size, i), for the `size` cars between them and
    its preference at place i among them. A branch that parks a car
    outside `spots` is dropped: that car never leaves."""
    spots = frozenset(spots)

    def expand(occ: frozenset, cars: int) -> Fraction:
        if not occ <= spots:
            return Fraction(0)
        if cars == 0:
            return Fraction(1)
        total = Fraction(0)
        for a in spots:
            if a not in occ:
                total += expand(occ | {a}, cars - 1)
                continue
            left = _nearest_free_left(occ, a)
            right = _nearest_free_right(occ, a)
            p = Fraction(right_prob(right - left - 1, a - left))
            total += p * expand(occ | {right}, cars - 1)
            total += (1 - p) * expand(occ | {left}, cars - 1)
        return total

    return expand(frozenset(), len(spots))


def abelian_by_orderings(pp, r_max):
    """`is_abelian`'s verdict and witness from one `measure` per ordering of
    every multiset, in combinations_with_replacement order."""
    for r in range(1, r_max + 1):
        for multiset in itertools.combinations_with_replacement(range(1, r + 2), r):
            orderings = sorted(set(itertools.permutations(multiset)))
            reference = measure(pp, orderings[0])
            for other in orderings[1:]:
                if measure(pp, other) != reference:
                    return False, (orderings[0], other)
    return True, None


def random_tables(count: int, r_max: int, seed: int) -> list[DirTable]:
    """Deterministic batch of direction tables."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        rows = tuple(
            tuple(rng.choice((Direction.LEFT, Direction.RIGHT)) for _ in range(r))
            for r in range(1, r_max + 1)
        )
        out.append(DirTable(rows, rng.choice((Direction.LEFT, Direction.RIGHT))))
    return out


def random_dir_tables(count: int, r_max: int, seed: int) -> list:
    """Deterministic batch of table procedures (memoryless local rules)."""
    return [
        table_procedure(table, name=f"rand{i}")
        for i, table in enumerate(random_tables(count, r_max, seed))
    ]


def alternating_rule() -> Procedure:
    """Goes right for odd-numbered cars and left for even ones. Its
    `decide` reads the state that its `update` keeps, so counts and masses
    walk (occupied set, state) pairs."""
    return Procedure(
        "alternating",
        decide=lambda st, occ, blk, a: Direction.LEFT if st % 2 else Direction.RIGHT,
        init_state=lambda: 0,
        update=lambda st, a, spot: st + 1,
    )


def history_parity_rule() -> Procedure:
    """Goes right iff the letters of the earlier cars have an odd sum. Its
    state is the whole history, the letters so far, so no two prefixes
    share a node: it checks the engines on a rule whose states never
    merge."""
    return Procedure(
        "history-parity",
        decide=lambda h, occ, blk, a: Direction.RIGHT if sum(h) % 2 else Direction.LEFT,
        init_state=tuple,
        update=lambda h, a, spot: h + (a,),
    )


def history_coin_rule() -> Procedure:
    """Goes right with probability 1/2 after an even-length history and
    surely right after an odd-length one; its state is the history, as in
    `history_parity_rule`, and its decisions branch."""
    return Procedure(
        "history-coin",
        decide=lambda h, occ, blk, a: Direction.RIGHT if len(h) % 2 else Fraction(1, 2),
        init_state=tuple,
        update=lambda h, a, spot: h + (a,),
    )


def state_parity_rule() -> Procedure:
    """`history_parity_rule` with only the memory it reads in state:
    `update` keeps the parity of the letters so far, so prefixes merge.
    Its counts and masses must equal the history rule's."""
    return Procedure(
        "state-parity",
        decide=lambda st, occ, blk, a: Direction.RIGHT if st else Direction.LEFT,
        init_state=lambda: 0,
        update=lambda st, a, spot: (st + a) % 2,
    )


def reference_colored_audit(p: Procedure, language, r: int, colors) -> OrbitReport:
    """The colored orbit audit over the whole slice: every word of length r
    over {1..r+1} x colors is listed, filtered by the language, put in
    the class of its smallest value rotation and run word by word."""
    alphabet = [ColoredLetter(v, c) for v in range(1, r + 2) for c in colors]
    classes: dict[tuple, list[tuple]] = {}
    for word in itertools.product(alphabet, repeat=r):
        if not language.contains(word):
            continue
        rotations = [
            tuple(ColoredLetter((a.value - 1 + k) % (r + 1) + 1, a.color) for a in word)
            for k in range(r + 1)
        ]
        classes.setdefault(min(rotations), []).append(word)
    full = frozenset(range(1, r + 1))
    per_class = {
        rep: [w for w in members if colored_run(p, w).spots == full]
        for rep, members in classes.items()
    }
    histogram: dict[int, int] = {}
    for parking in per_class.values():
        histogram[len(parking)] = histogram.get(len(parking), 0) + 1
    return OrbitReport(
        procedure=p.name,
        r=r,
        orbit_count=len(classes),
        histogram=dict(sorted(histogram.items())),
        violations=tuple(
            OrbitViolation(rep, tuple(classes[rep]), len(parking), tuple(parking))
            for rep, parking in sorted(per_class.items())
            if len(parking) != 1
        ),
    )
