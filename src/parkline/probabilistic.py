"""Probabilistic bilateral procedures over exact rationals: occupancy
measures, parking probabilities, total-mass identities, the q-deformed
family, and abelianity checks.

A probabilistic rule is a `Procedure` whose `decide` returns an exact
right-probability; a deterministic rule is the case where every decision
is a Direction, 0 or 1, so every function here takes both. Everything is
exact; `procedures.int_choices` refuses floats. The branching run is
expanded car by car as `procedures.merge_step` levels `(den, runs)`,
which merge runs on (occupied set, rule state) and weigh each pair by an
int numerator over the level's one int denominator. Occupancies are
compared in lowest terms, so distributions compare by strict equality; a
`Fraction` is built only for what is returned: `Measure.probs`, trace
weights and masses. The total parking mass is the `(num, den)` weight
of the runs landing on {1..r} (`enumeration.landing_weight`): a rule
that decides by block, or by block record, sums the forest encoding over
its intervals, and any other rule walks (occupied set, rule state)
pairs. Orbit masses replay the parking words' node tables over every orbit
(`procedures.replay_orbits`). An abelianity check first tries to prove
that any two cars commute on every reachable (occupied set, rule state)
pair (`_commutes`), and only where that fails grows every word, one row
per word keyed on its multiset (`procedures.grow_runs`): measures are
nodes, levels in lowest terms, so words whose prefixes share a measure
share its work.
"""

from __future__ import annotations

import functools
import logging
import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Any, Iterable

from .colored import language_word, letter_value
from .enumeration import WORK_BUDGET, _check_r, _check_runs, landing_weight, take_path
from .procedures import (
    Procedure,
    _grow_nodes,
    _step_pairs,
    decision_table,
    grow_runs,
    initial_level,
    int_choices,
    merge_step,
    parse_proc_spec,
    replay_orbits,
    spec_params,
)
from .words import SpotSet, Word, as_word

log = logging.getLogger("parkline")


class _Infinity:
    """Distinguished q value; right-probabilities [i]/[r+1] degenerate to 0."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "inf"


INFINITY = _Infinity()

QValue = Fraction | _Infinity

ZERO = Fraction(0)
ONE = Fraction(1)


def parse_q(text: str) -> QValue:
    """`text` as a q value: "inf" (also "infinity" or "oo") or an exact
    number >= 0 such as "2" or "1/2" (`_exact`); ValueError otherwise."""
    text = text.strip().lower()
    if text in ("inf", "infinity", "oo"):
        return INFINITY
    q = _exact(text)
    if q < 0:
        raise ValueError(f"q must be >= 0, got {q}")
    return q


def q_integer(j: int, q: Fraction) -> Fraction:
    """1 + q + ... + q^(j-1), exactly."""
    if j < 1:
        raise ValueError(f"q-integer defined for j >= 1, got {j}")
    if isinstance(q, _Infinity):
        raise ValueError("q-integers diverge at q=inf; use pq_right_prob for ratios")
    q = Fraction(q)
    # the geometric sum in closed form: a pq rule asks for it at every decision
    return Fraction(j) if q == 1 else (q**j - 1) / (q - 1)


def pq_right_prob(r: int, i: int, q: QValue) -> Fraction:
    """Right-probability [i]/[r+1] of the q-deformed rule; the q=inf limit
    is 0 for every i <= r."""
    if not 1 <= i <= r:
        raise ValueError(f"position {i} outside 1..{r}")
    if isinstance(q, _Infinity):
        return ZERO
    return q_integer(i, q) / q_integer(r + 1, q)


ProbProcedure = Procedure  # alias kept for callers that name it


@dataclass
class Measure:
    """Finitely supported distribution over occupied spot sets."""

    probs: dict[SpotSet, Fraction]

    def prob(self, spots: Iterable[int]) -> Fraction:
        return self.probs.get(frozenset(spots), ZERO)

    def total(self) -> Fraction:
        return sum(self.probs.values(), ZERO)

    def support(self) -> list[SpotSet]:
        return sorted(self.probs, key=sorted)


def _occupancy(level: tuple[int, dict]) -> tuple[int, dict[SpotSet, int]]:
    """Weight of each occupied set of a `merge_step` level, over all
    states, as `(den, {occupied set: numerator})` in lowest terms, so that
    equal occupancies compare equal."""
    den, runs = level
    nums: dict[SpotSet, int] = defaultdict(int)
    for (occ, _), weight in runs.items():
        nums[occ] += weight
    g = math.gcd(den, *nums.values())
    return den // g, {occ: num // g for occ, num in nums.items()}


def _letters(pp: Procedure, word: Iterable) -> tuple[tuple, Any]:
    """The word's letters and the map from a letter to its preferred spot
    (`merge_step`'s `value_of`): a colored rule, one with a `language`,
    prefers each letter's value, as `colored_run` does; any other rule
    takes integer letters."""
    if pp.language is None:
        return as_word(word), None
    return language_word(pp, word), letter_value


def measure(pp: Procedure, word: Iterable) -> Measure:
    """Exact distribution of the occupied set after the whole word.

    Branches agreeing on (occupied set, rule state) are merged with summed
    weights, int numerators over one denominator, and each occupied set's
    weight becomes a Fraction at the end. A colored rule takes a colored
    word (see `_letters`).
    """
    word, value_of = _letters(pp, word)
    level = initial_level(pp)
    for a in word:
        level = merge_step(pp, level, (a,), None, value_of)
    den, nums = _occupancy(level)
    return Measure({occ: Fraction(num, den) for occ, num in nums.items()})


def path_distribution(pp: Procedure, word: Iterable) -> dict[tuple[int, ...], Fraction]:
    """Weight of every full parking trace (tuple of parked spots)."""
    word, value_of = _letters(pp, word)
    # each trace is a level of one run
    current = {(): initial_level(pp)}
    for a in word:
        nxt = {}
        for parked, level in current.items():
            den, step = merge_step(pp, level, (a,), None, value_of)
            # a car's choices end on distinct occupied sets
            for (occ, state), w in step.items():
                nxt[parked + tuple(occ.difference(parked))] = (den, {(occ, state): w})
        current = nxt
    return {parked: Fraction(sum(runs.values()), den) for parked, (den, runs) in current.items()}


def parking_probability(pp: Procedure, word: Iterable[int]) -> Fraction:
    """Probability that the run occupies exactly {1..r}."""
    word = as_word(word)
    return measure(pp, word).prob(range(1, len(word) + 1))


def total_parking_mass(
    pp: Procedure, r: int, *, cap: int | None = WORK_BUDGET
) -> Fraction:
    """Sum of parking probabilities over all words in {1..r+1}^r.

    The branch probabilities are the weights of the runs landing on
    {1..r} (`landing_weight`): a rule that `decides_by_block` or
    `decides_by_block_record` sums them over the forest encoding of
    {1..r}, and any other rule walks (occupied subset of {1..r}, rule
    state) pairs.
    """
    _check_r(r)
    return Fraction(*landing_weight(pp, frozenset(range(1, r + 1)), cap))


def orbit_parking_mass(
    pp: Procedure, r: int, *, cap: int | None = WORK_BUDGET
) -> dict[Word, Fraction]:
    """Parking mass of each cyclic orbit, keyed by its representative;
    orbits of mass zero included. Only words in {1..r}^r can park, so their
    measures are grown with the spots kept inside {1..r}, one node per
    distinct measure (`grow_runs`' `_grow_nodes`). Each node table gains a
    -1 column for letter r+1 and the -1 sentinel row, and is replayed over
    every orbit (`replay_orbits`): an orbit's mass sums its rotations' node
    masses, int numerators over the nodes' lcm denominator, as one Fraction.
    """
    import numpy as np

    _check_runs(pp, r, cap)
    base = r + 1
    tables = []

    def extend(k, next_node, _):
        tables.append(np.full((len(next_node) + 1, base), -1, np.int32))
        tables[-1][:-1, :-1] = next_node
        return base**k

    nodes = _grow_nodes(pp, r, range(1, base), frozenset(range(1, base)), decision_table(pp), extend)
    den = math.lcm(*(d for d, _ in nodes))
    # every node's mass as an int numerator over den, and the sentinel's last
    mass = np.array([sum(runs.values()) * (den // d) for d, runs in nodes] + [0], object)
    masses = mass[replay_orbits(tables, r)].sum(axis=1).tolist()
    reps = np.stack(np.unravel_index(np.arange(base ** (r - 1)), (base,) * r), axis=1) + 1
    return {tuple(rep): Fraction(m, den) for rep, m in zip(reps.tolist(), masses)}


# ---------------------------------------------------------------------------
# catalog


def _exact(q) -> Fraction:
    """`q` as a Fraction: an int, a Fraction or a string such as "1/2". A
    float or a bool raises ValueError, since its value is not the one
    written (0.1 is 3602879701896397/36028797018963968), and so does a
    string with a zero denominator, such as "1/0"."""
    if isinstance(q, bool) or not isinstance(q, (Rational, str)):
        raise ValueError(f"q must be an int, a Fraction or a string, got {q!r}")
    try:
        return Fraction(q)
    except ZeroDivisionError:
        raise ValueError(f"q has a zero denominator, got {q!r}") from None


def _coin(q: QValue) -> Fraction:
    """`q` as an exact right-probability (`_exact`); ValueError unless it
    is in [0, 1]."""
    if not isinstance(q, _Infinity):
        q = _exact(q)
        if ZERO <= q <= ONE:
            return q
    raise ValueError(f"q must be in [0,1], got {q}")


def kw_procedure(q: QValue) -> Procedure:
    """Constant coin: go right with probability q whenever bumped."""
    q = _coin(q)
    return Procedure(
        name=f"kw:q={q}",
        decide=lambda st, occ, blk, a: q,
        is_shift_invariant=True,
        is_locally_decided=True,
    )


def kw_sequence_procedure(qs: Iterable[QValue]) -> Procedure:
    """Per-car coins: the i-th car goes right with probability qs[i-1].

    The coin depends only on the car's index (= |occupied|+1), which makes
    the rule commute with rotations staying inside {1..r}.
    """
    qs = tuple(map(_coin, qs))

    def decide(st, occ, blk, a):
        i = len(occ) + 1
        if i > len(qs):
            raise ValueError(f"no coin for car {i}")
        return qs[i - 1]

    return Procedure(
        name="kwseq:qs=" + "+".join(str(q) for q in qs),
        decide=decide,
        is_shift_invariant=True,
    )


def pq_procedure(q: QValue) -> Procedure:
    """Right-probability [i]/[r+1] on the standard block; q=0 degenerates
    to the deterministic right rule and q=inf to the left rule."""
    if not isinstance(q, _Infinity):
        q = _exact(q)
        if q < 0:
            raise ValueError(f"q must be >= 0, got {q}")
    # `pq_right_prob` of the block, with each q-integer built once per rule
    q_int = functools.cache(lambda j: q_integer(j, q))

    def decide(st, occ, blk, a):
        if q is INFINITY:
            return ZERO
        return q_int(a - blk.lo + 1) / q_int(blk.size + 1)

    return Procedure(name=f"pq:q={q}", decide=decide, is_shift_invariant=True, is_locally_decided=True)


# the one parameter each probabilistic catalog rule takes
_PROB_PARAMS = {"kw": "q", "kwseq": "qs", "pq": "q"}


def parse_prob_spec(spec: str) -> Procedure:
    """Parse "kw:q=1/2", "kwseq:qs=1/2+1/3", "pq:q=2" or any deterministic
    catalog spec, which is returned as it is."""
    name, params = spec_params(spec)
    wanted = _PROB_PARAMS.get(name)
    if wanted is not None:
        for key in params:
            if key != wanted:
                raise ValueError(f"{name} takes no parameter {key!r}")
        if wanted not in params:
            raise ValueError(f"{name} requires parameter {wanted!r}")
        value = params[wanted]
        if name == "kw":
            return kw_procedure(parse_q(value))
        if name == "kwseq":
            return kw_sequence_procedure(parse_q(v) for v in value.split("+"))
        return pq_procedure(parse_q(value))
    return parse_proc_spec(spec)


# ---------------------------------------------------------------------------
# abelianity


def right_prob_table(pp: Procedure, r_max: int) -> dict[tuple[int, int], Fraction]:
    """Probe p(r, i) on the standard blocks {1..r}, r <= r_max; r_max
    must be >= 1."""
    _check_r(r_max, "r_max")
    if not pp.is_memoryless:
        raise ValueError(f"{pp.name} is not memoryless")
    table = {}
    for r in range(1, r_max + 1):
        occ = frozenset(range(1, r + 1))
        for i in range(1, r + 1):
            choices = int_choices(pp, pp.init_state(), occ, i, i)
            # the choices of one decision share its denominator
            table[(r, i)] = Fraction(sum(num for spot, num, _ in choices if spot > i), choices[0][2])
    return table


@dataclass(frozen=True)
class AbelianReport:
    procedure: str
    r_max: int
    abelian: bool
    witness: tuple[Word, Word] | None  # two orderings with different measures


def is_abelian(pp: Procedure, r_max: int) -> AbelianReport:
    """Whether every reordering of every word with letters in {1..r+1},
    length r <= r_max, has the same occupancy measure, within `WORK_BUDGET`.

    Two cars that commute on every reachable (occupied set, state) pair
    prove it (`_commutes`), and the verdict is then abelian with no
    witness. Otherwise, or if a step of the proof raises, the exhaustive
    search decides and finds the witness (`_abelian_search`). It takes the
    proof's decision table, so a rule that `decides_by_block` is not asked
    again what the proof asked; any other rule is. The estimate is the
    search's, Σ (r+1)^r·r car steps, since it may still run.
    """
    _check_r(r_max)
    steps = sum((r + 1) ** r * r for r in range(1, r_max + 1))
    take_path("engine", f"abelian check up to length {r_max}", steps, WORK_BUDGET)
    table = decision_table(pp)
    if _commutes(pp, r_max, table):
        return AbelianReport(pp.name, r_max, True, None)
    return _abelian_search(pp, r_max, table)


def _commutes(pp: Procedure, r_max: int, table) -> bool:
    """Whether every two cars commute on every (occupied set, state) pair x
    that r_max - 2 or fewer cars reach over the letters 1..r_max+1:
    T_b T_a δ_x = T_a T_b δ_x for all letters a < b, where T_a steps a
    distribution over pairs by a car of letter a.

    If so, every word of length r <= r_max has one pair distribution over
    all its reorderings: any two reorderings are joined by swaps of
    adjacent cars, and a swap of cars i+1 and i+2 (i <= r - 2) changes only
    T_b T_a applied to the mixture of pairs after i cars, which is the
    mixture of T_a T_b. Equal distributions give equal occupancy. Two cars
    that do not commute prove nothing, since the occupancies may still
    agree.

    The pairs are stepped one generation at a time (`_step_pairs`, with
    `table`, the caller's `decision_table`), generations 0..r_max-1 by
    every letter: the (pair, letter) steps the search takes at length
    r_max, so every decision the search asks is asked here too. The two
    orders are composed from the tables of generations k and k+1
    (`_two_cars`) and compared exactly. A rule with no `update` skips a
    comparison, not its steps, where neither a nor b is in x's occupied
    set: both cars then park at their own letters in either order. The
    pass stops at the first comparison that fails, or at a step that
    raises, since the search then decides; it returns True only after
    every step and comparison.

    Writes one DEBUG record on the `parkline` logger, with the fields
    `pairs`, the size of each generation stepped, `pair_steps`, the (pair,
    letter) successors computed, `compared`, the comparisons made, and
    `proved`.
    """
    letters = range(1, r_max + 2)
    width = len(letters)
    no_update = pp.update is None
    pairs = [(frozenset(), pp.init_state())]
    # generation k-1's pairs and successors, compared once generation k is stepped
    before, prev = [], []
    sizes, pair_steps, compared, proved = [], 0, 0, False
    try:
        for k in range(r_max):
            succ, nxt = _step_pairs(pp, pairs, letters, None, table)
            sizes.append(len(pairs))
            pair_steps += len(succ)
            for x, (occ, _) in enumerate(before):
                row = prev[x * width : (x + 1) * width]
                for i in range(width):
                    for j in range(i + 1, width):
                        if no_update and letters[i] not in occ and letters[j] not in occ:
                            continue
                        compared += 1
                        if not _same(_two_cars(row[i], succ, j, width), _two_cars(row[j], succ, i, width)):
                            return False
            before, prev, pairs = pairs, succ, nxt
        proved = True
    except Exception:
        # whatever a step raises, the search raises too, unless it finds
        # a witness on a shorter word first
        pass
    finally:
        log.debug(
            "is_abelian: %s up to length %d, %s pair steps, pairs %s, %s compared, proved %s",
            pp.name, r_max, f"{pair_steps:,}", sizes, f"{compared:,}", proved,
            extra={"pairs": sizes, "pair_steps": pair_steps, "compared": compared, "proved": proved},
        )
    return proved


def _two_cars(first: tuple, succ: list, col: int, width: int) -> tuple[int, dict]:
    """`(den, {pair id: numerator})`: the distribution that a second car,
    of letter column `col`, leaves from the pairs `first` = `(den, ((pair
    id, numerator), ...))` reached by the first car, through `succ`, the
    next generation's `_step_pairs` table, over the lcm of its
    denominators."""
    den, out = first
    if den == 1:
        # the first car went one way, with weight 1
        d, after = succ[out[0][0] * width + col]
        return d, dict(after)
    scale = math.lcm(*[succ[y * width + col][0] for y, _ in out])
    nums: dict[int, int] = {}
    for y, num in out:
        d, after = succ[y * width + col]
        factor = num * (scale // d)
        for z, m in after:
            nums[z] = nums.get(z, 0) + factor * m
    return den * scale, nums


def _same(u: tuple[int, dict], v: tuple[int, dict]) -> bool:
    """Whether two `(den, {pair id: numerator})` distributions are equal."""
    (du, nu), (dv, nv) = u, v
    return nu.keys() == nv.keys() and all(nu[z] * dv == nv[z] * du for z in nu)


def _abelian_search(pp: Procedure, r_max: int, table) -> AbelianReport:
    """`is_abelian` by growing every word of each length r <= r_max
    (`grow_runs`), with `table` for every length, and keying each word on
    its multiset, (r+1)^(a-1) per letter a, in int64. Reorderings must have
    the same occupancy, compared as int numerators over one denominator in
    lowest terms; their nodes may differ in rule states. The witness is the
    first multiset that fails, in `combinations_with_replacement` order:
    its smallest ordering against the first one that differs.
    """
    import numpy as np

    for r in range(1, r_max + 1):
        words, _, ids, nodes = grow_runs(pp, r, range(1, r + 2), None, table)
        seen: dict = {}
        marks = []
        for node in nodes:
            den, nums = _occupancy(node)
            marks.append(seen.setdefault((den, frozenset(nums.items())), len(seen)))
        classes = np.array(marks)[ids]
        # every word is grown, in lexicographic order, so a multiset's
        # first row holds its smallest ordering
        keys = ((r + 1) ** np.arange(r + 1, dtype=np.int64))[words - 1].sum(axis=1)
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        smallest = first[inverse]
        differ = np.flatnonzero(classes != classes[smallest])
        if len(differ):
            row = differ[np.argmin(smallest[differ])]
            witness = words[[smallest[row], row]].tolist()
            return AbelianReport(pp.name, r_max, False, tuple(map(tuple, witness)))
    return AbelianReport(pp.name, r_max, True, None)


@dataclass(frozen=True)
class UniquenessFailure:
    equation: str  # "ratio" or "recurrence"
    r: int
    i: int
    lhs: Fraction
    rhs: Fraction


@dataclass(frozen=True)
class UniquenessReport:
    q: QValue
    r_max: int
    failure: UniquenessFailure | None
    matches_pq: bool

    @property
    def passed(self) -> bool:
        return self.failure is None


def abelian_uniqueness_check(
    table: dict[tuple[int, int], Fraction], r_max: int
) -> UniquenessReport:
    """Verify the two recurrences that pin an abelian memoryless local rule
    to the q-deformed family:

      ratio       p(r,i) = ([i]/[r]) p(r,r)          for 1 <= i < r,
      recurrence  p(r,r) = 1/(1+q) + (q/(1+q)) p(r,r-1),

    with q read off p(1,1) = 1/(1+q) (p(1,1)=0 means q=inf). Passing both
    for 2 <= r <= r_max is equivalent to p(r,i) = [i]/[r+1] throughout,
    which is also reported explicitly. r_max must be >= 1, and the table
    must hold every p(r, i) up to it; ValueError names the first missing.
    """
    _check_r(r_max, "r_max")
    missing = [(r, i) for r in range(1, r_max + 1) for i in range(1, r + 1) if (r, i) not in table]
    if missing:
        raise ValueError(f"the table has no p{missing[0]}, needed up to r_max={r_max}")
    p11 = Fraction(table[(1, 1)])
    if not ZERO <= p11 <= ONE:
        raise ValueError(f"p(1,1)={p11} outside [0,1]")
    q: QValue = INFINITY if p11 == 0 else ONE / p11 - 1

    failure = None
    for r in range(2, r_max + 1):
        for i in range(1, r):
            lhs = Fraction(table[(r, i)])
            if isinstance(q, _Infinity):
                rhs = ZERO
            else:
                rhs = q_integer(i, q) / q_integer(r, q) * table[(r, r)]
            if lhs != rhs:
                failure = UniquenessFailure("ratio", r, i, lhs, rhs)
                break
        if failure:
            break
        lhs = Fraction(table[(r, r)])
        if isinstance(q, _Infinity):
            rhs = Fraction(table[(r, r - 1)])
        else:
            rhs = ONE / (1 + q) + q / (1 + q) * table[(r, r - 1)]
        if lhs != rhs:
            failure = UniquenessFailure("recurrence", r, r, lhs, rhs)
            break

    matches = all(
        table[(r, i)] == pq_right_prob(r, i, q)
        for r in range(1, r_max + 1)
        for i in range(1, r + 1)
    )
    return UniquenessReport(q, r_max, failure, matches)
