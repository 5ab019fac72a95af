"""Bilateral parking procedures as pluggable rules, the builtin catalog,
and the run/outcome machinery.

A procedure processes a preference word car by car. A car whose preferred
spot is free parks there; otherwise it parks immediately left or right of
the block of occupied spots containing its preference. One rule type,
`Procedure`, serves deterministic, probabilistic and colored procedures:
its decision is a Direction or an exact probability of going right, and
`int_choices` is the one step that turns a decision into the car's
choices, each weight an int numerator over an int denominator. Runs
follow rules that never branch. A rule remembers the run so far only
through the hashable state its `update` keeps. Every engine steps one
format, the level `(den, runs)`: `runs` maps each (occupied set, rule
state) pair to the weight of the runs reaching it, an int numerator over
`den`. `_successors` steps a pair by one car, and `merge_step`, built on
it, a level: `probabilistic.measure`, `walk_occupied` and `count_landing`
take it. `grow_runs`, the one prefix-growth engine, keeps one row per
word, its letters and its cars' spots: each generation interns its pairs
as int ids, steps each distinct (pair, letter) once (`_step_pairs`) and
every prefix's level, a tuple of (pair id, numerator), by adding up its
pairs' successors (`_step_nodes`). The passes over {1..r} step the same
pairs one sure step at a time, without levels (`_sure_pass`): cyclic
orbits as rotation tuples, one int32 row of pair ids per orbit and one
entry per rotation (`orbit_tuples`, whose tables `replay_orbits` replays
over every orbit), and the occupied sets of a rule without state into a
one-car table, from which fibers are products (`step_counts`). These ask a
rule that decides by block once per (block, letter) while one
`decision_table` lives; such a rule never walks, since the interval DP
weighs its landing runs (`enumeration.landing_weight`).
Nor does a locally decided rule whose state is a block record
(`record_parked`, as `lbs` keeps it): the DP carries the record.
"""

from __future__ import annotations

import inspect
import json
import logging
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import chain, product
from numbers import Integral
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from .words import Block, SpotSet, Word, as_word, block_bounds, block_of, shift

log = logging.getLogger("parkline")

if TYPE_CHECKING:
    import numpy as np


class Direction(Enum):
    LEFT = "L"
    RIGHT = "R"

    def __repr__(self) -> str:  # pragma: no cover
        return f"Direction.{self.name}"


LEFT = Direction.LEFT
RIGHT = Direction.RIGHT

# decide(state, occupied, block, letter) -> Direction or an exact
# right-probability (see `int_choices`). Consulted only when the letter's
# preferred spot is occupied; `block` is the block containing it.
DecideFn = Callable[[Any, frozenset, Block, Any], Direction | int | Fraction]
# update(state, letter, parked_spot) -> new state
UpdateFn = Callable[[Any, Any, int], Any]


def _no_state() -> None:
    return None


@dataclass(frozen=True)
class Procedure:
    """A bilateral parking rule: deterministic, probabilistic or colored.

    `decide(state, occupied, block, letter)` returns a Direction or an
    exact right-probability; a deterministic rule is one whose decisions
    are all Directions or probabilities 0 and 1 (see `int_choices`). A rule
    remembers the run only through `state`: `update(state, letter, spot)`
    returns the state after each car, a new one instead of changing its
    argument, and the state is hashable. A rule that needs the letters so
    far keeps them, with `init_state=tuple` and `update=lambda h, a, spot:
    h + (a,)`. Every rule runs on the same engines, which merge runs that
    agree on (occupied set, state).

    The two flags are trusted as declared (`check_flags` tests them):
    `is_shift_invariant` says that shifting a word shifts its run, and
    `is_locally_decided` that a bumped car's choice depends only on the
    cars parked on its block. Both default to False, which is safe: an
    undeclared rule takes the general paths. `check_flags` still reports
    a flag left False on a rule that satisfies it as inconsistent, since
    it compares declared with observed. `language`, when set, is the
    `colored.Language` of colored words on which a partial colored rule
    is defined.
    """

    name: str
    decide: DecideFn
    init_state: Callable[[], Any] = _no_state
    update: UpdateFn | None = None
    is_shift_invariant: bool = False
    is_locally_decided: bool = False
    strict_r_max: int | None = None  # refuse enumeration beyond this length
    language: Any = None

    @property
    def is_memoryless(self) -> bool:
        """Whether the rule keeps no state, so that a bumped car's choice
        depends only on (occupied set, block, letter); `dir_of` reads such a
        rule's direction off `decide`."""
        return self.update is None

    @property
    def is_local(self) -> bool:
        return self.is_shift_invariant and self.is_locally_decided

    @property
    def decides_by_block(self) -> bool:
        """Whether the rule keeps no state and is flagged locally decided: a
        bumped car's choice then depends only on its letter and the block it
        lands on. Such a rule has label sets (`forests.label_set`), and its
        counts and masses sum the forest encoding block by block
        (`enumeration.interval_weight`), and the engines ask it once per
        (block, letter) per call (`decision_table`); all three trust the
        flag. A rule that `decides_by_block_record` takes the DP too; any
        other rule walks, and is asked at every step."""
        return self.is_memoryless and self.is_locally_decided

    @property
    def decides_by_block_record(self) -> bool:
        """Whether the rule's state is a block record (`update is
        record_parked`) and it is flagged locally decided: a bumped car's
        choice then depends only on its letter, the block it lands on and
        that block's record, as for `lbs`. Its counts and masses sum the
        interval DP with the record carried (`enumeration.interval_weight`),
        which trusts the flag. It has no label sets and no decision table,
        whose (block, letter) key leaves the record out."""
        return self.update is record_parked and self.is_locally_decided

    def __repr__(self) -> str:
        return f"Procedure({self.name!r})"


@dataclass(frozen=True)
class RunResult:
    """Trace of one run: the word, the final spot set, and where each car
    parked (parked[i] is the spot taken by car i+1)."""

    word: tuple
    spots: SpotSet
    parked: tuple[int, ...]

    @property
    def outcome(self) -> dict[int, int]:
        """Injection spot -> arrival index of the car that parked there."""
        return {spot: i + 1 for i, spot in enumerate(self.parked)}


def int_choices(p: Procedure, state, occupied, a, pref, table: dict | None = None) -> tuple:
    """(spot, numerator, denominator) choices of car `a` whose preferred
    spot `pref` is taken, as `p.decide` says: just right of the block
    containing `pref` with the right-probability, just left with the rest,
    each weight in lowest terms over the one denominator of the decision.

    A decision is a Direction (RIGHT counts as 1, LEFT as 0), an int 0 or
    1, or a Fraction in [0, 1]. A probability of exactly 0 or 1 gives one
    choice (spot, 1, 1); so does every choice that does not branch.
    Anything else, floats and bools included, raises ValueError, so
    weights stay exact.

    The block's bounds come from `words.block_bounds`, and a `Block` is
    built only when `decide` is asked. `table`, when given, is one engine
    call's `decision_table`: the choices are looked up there by (block lo,
    block hi, letter), and `decide` is asked only on a miss, whose checked
    choices are stored. A refused decision raises before anything is
    stored.
    """
    # the maximal block containing pref, so both spots next to it are free
    lo, hi = block_bounds(occupied, pref)
    if table is None:
        return _choices(p, lo, hi, p.decide(state, occupied, Block(lo, hi), a))
    key = (lo, hi, a)
    choices = table.get(key)
    if choices is None:
        choices = table[key] = _choices(p, lo, hi, p.decide(state, occupied, Block(lo, hi), a))
    return choices


def _choices(p: Procedure, lo: int, hi: int, d) -> tuple:
    """The (spot, numerator, denominator) choices of decision `d` on the
    block lo..hi (see `int_choices`)."""
    if d is RIGHT:
        return ((hi + 1, 1, 1),)
    if d is LEFT:
        return ((lo - 1, 1, 1),)
    if type(d) is not int and not isinstance(d, Fraction):
        raise ValueError(
            f"{p.name}: decide returned {d!r}, not a Direction or an exact probability"
        )
    if d == 1:
        return ((hi + 1, 1, 1),)
    if d == 0:
        return ((lo - 1, 1, 1),)
    if not 0 < d < 1:
        raise ValueError(f"{p.name}: decide returned probability {d} outside [0, 1]")
    num, den = d.numerator, d.denominator
    return ((hi + 1, num, den), (lo - 1, den - num, den))


def _sure_spot(p: Procedure, choices: tuple) -> int:
    """The spot of `int_choices` that do not branch."""
    if len(choices) > 1:
        _, num, den = choices[0]
        raise ValueError(
            f"{p.name}: a decision branches with right-probability "
            f"{Fraction(num, den)}; measure() follows both choices"
        )
    return choices[0][0]


def run_engine(p, letters: tuple, value_of=None) -> RunResult:
    """Shared run loop; `value_of` maps a letter to its preferred spot
    (identity for plain integer letters). A decision that branches raises
    ValueError. A rule with no `update` keeps its initial state throughout."""
    occupied: set[int] = set()
    state = p.init_state()
    parked: list[int] = []
    for a in letters:
        spot_pref = value_of(a) if value_of is not None else a
        if spot_pref not in occupied:
            spot = spot_pref
        else:
            spot = _sure_spot(p, int_choices(p, state, occupied, a, spot_pref))
        occupied.add(spot)
        parked.append(spot)
        if p.update is not None:
            state = p.update(state, a, spot)
    return RunResult(letters, frozenset(occupied), tuple(parked))


def decision_table(p: Procedure) -> dict | None:
    """A fresh decision table for one engine call of rule `p`: an empty
    dict if `p` `decides_by_block`, else None. `int_choices` stores there the
    checked choices of each (block lo, block hi, letter) it is asked
    about, keyed before any `Block` is built, so such a rule is asked once
    per (block, letter) per call instead of once per (pair, letter) per
    car, as any other rule is. The table lives as long as the call."""
    return {} if p.decides_by_block else None


def initial_level(p: Procedure) -> tuple[int, dict]:
    """The level before any car: one run of weight 1."""
    return 1, {(frozenset(), p.init_state()): 1}


def _successors(p: Procedure, occ, state, a, pref, inside, table) -> list:
    """The pairs a run on (occupied set `occ`, rule state `state`) moves to
    when car `a`, preferring spot `pref`, arrives: `[(next pair, numerator,
    denominator), ...]`, one entry per choice that lands inside the spot set
    `inside` (every choice if None). A free `pref` is the one choice, of
    weight 1; a taken one gives the `int_choices` of `p`, read from and
    stored in `table`, the call's `decision_table`. This is the one step of
    a run that every engine takes: `merge_step` per (run, letter), and
    `grow_runs` once per (pair, letter) per generation."""
    update = p.update
    if pref not in occ:
        if inside is not None and pref not in inside:
            return []
        return [((occ | {pref}, state if update is None else update(state, a, pref)), 1, 1)]
    out = []
    for spot, num, d in int_choices(p, state, occ, a, pref, table):
        if inside is None or spot in inside:
            out.append(((occ | {spot}, state if update is None else update(state, a, spot)), num, d))
    return out


def merge_step(
    p: Procedure,
    level: tuple[int, dict],
    letters: Iterable[int],
    inside: frozenset | None = None,
    value_of=None,
    table: dict | None = None,
    check_size: Callable[[int], None] | None = None,
) -> tuple[int, dict]:
    """One car's step of rule `p` from a level to the next.

    A level is `(den, runs)`: `runs` maps each (occupied set, state) pair
    to the total weight of the runs reaching it, an int numerator over
    `den`. Every run takes each choice of a car with letter a, for every
    letter a in `letters`, as `_successors` gives it: its preferred spot
    if free, or the `int_choices` of `p`. `value_of` maps a letter to its
    preferred spot, as in `run_engine` (identity for plain integer
    letters). Choices outside the spot set `inside`, when given, are
    dropped. Weights multiply along a run, and runs that agree on
    (occupied set, state) afterwards are merged by adding their weights.
    The next denominator is `den` times the lcm of the denominators of the
    choices taken, so a step that takes no branching choice keeps `den`
    and int counts as they are. A level holds each pair once, so walks,
    `measure` and `count_landing` step each (pair, letter) once per car.

    `table` is the engine call's `decision_table`, which `int_choices` reads
    and fills. It is the third thing that trusts `decides_by_block`, after
    the interval DP and label sets: a choice found there is taken for every
    run whose bumped car has that letter and lands on that block.

    `check_size`, when given, is passed the next level's size each time a
    pair joins it, and may refuse, so a level is not built past a budget.
    """
    den, runs = level
    nxt: dict[tuple[frozenset, Any], int] = {}
    scale = 1
    update = p.update
    for (occ, state), weight in runs.items():
        for a in letters:
            pref = a if value_of is None else value_of(a)
            if pref not in occ:
                # a free spot, as `_successors` takes it, without its call and list
                if inside is not None and pref not in inside:
                    continue
                key = (occ | {pref}, state if update is None else update(state, a, pref))
                w = weight * scale
                prev = nxt.get(key)
                if prev is None:
                    nxt[key] = w
                    if check_size is not None:
                        check_size(len(nxt))
                else:
                    nxt[key] = prev + w
                continue
            for key, num, d in _successors(p, occ, state, a, pref, inside, table):
                if d == 1:
                    # a choice that does not branch has weight 1
                    w = weight * scale
                else:
                    if scale % d:
                        # a new denominator: rescale the runs merged so far
                        grow = d // math.gcd(scale, d)
                        scale *= grow
                        nxt = {key: v * grow for key, v in nxt.items()}
                    w = weight * num * (scale // d)
                prev = nxt.get(key)
                if prev is None:
                    nxt[key] = w
                    if check_size is not None:
                        check_size(len(nxt))
                else:
                    nxt[key] = prev + w
    return den * scale, nxt


def walk_occupied(target: frozenset, p: Procedure, check_steps: Callable[[int], None]):
    """Total weight `(num, den)` of the runs of |target| cars of rule `p`
    that end on exactly the spot set `target`, stepped car by car as
    `merge_step` levels over (occupied set, rule state) pairs instead of
    words.

    A car parked outside the target never leaves, so only letters and
    spots inside it are followed: for a memoryless rule at most 2^n sets
    times n letters per car, against n^n words. `den` is the last level's:
    1 for a rule that never branches on the way, whose `num` counts the
    runs, and above 1 for one that does, even where the mass is a whole
    number. `check_steps` is passed the car steps taken so far and about
    to be taken, and may refuse them: before each car, and, as each level
    but the last grows, with the steps its pairs will take, so that a rule
    state that multiplies the pairs is refused before the level that
    passes the budget is built.
    """
    level = initial_level(p)
    n = len(target)
    steps = 0
    for car in range(n):
        steps += len(level[1]) * n
        check_steps(steps)
        grows = None if car == n - 1 else (lambda size, done=steps: check_steps(done + size * n))
        level = merge_step(p, level, target, target, check_size=grows)
    den, runs = level
    # every surviving run parked |target| distinct cars inside the target
    return sum(runs.values()), den


def _branch_error(p: Procedure) -> ValueError:
    return ValueError(f"{p.name}: a decision branches; measure() follows both choices")


def _step_pairs(p: Procedure, pairs: list, letters: Sequence[int], inside, table) -> tuple[list, list]:
    """One generation's step of every (occupied set, state) pair by every
    letter, each distinct (pair, letter) once, from the `_successors` that
    `merge_step` also takes: `(succ, next pairs)`. The successors of pair i
    and letter column c are at succ[i * len(letters) + c], as `(den, ((next
    pair id, numerator), ...))` over the lcm den of their denominators, and
    the next generation's pairs are interned as ids in the order first
    reached. `grow_runs` steps its pairs here, and the passes over {1..r}
    through `_sure_pass`."""
    index: dict = {}
    succ = []
    for occ, state in pairs:
        for a in letters:
            out = _successors(p, occ, state, a, a, inside, table)
            if len(out) == 1 and out[0][2] == 1:
                succ.append((1, ((index.setdefault(out[0][0], len(index)), 1),)))
                continue
            d = math.lcm(*[e for _, _, e in out])
            succ.append((d, tuple((index.setdefault(key, len(index)), num * (d // e)) for key, num, e in out)))
    return succ, list(index)


def grow_runs(p: Procedure, r: int, letters: Sequence[int], inside, table):
    """Every word of length r over `letters` that keeps some weight inside
    the spot set `inside` (every word if None), grown one car (generation)
    at a time: `(words, parked, ids, nodes)`, one row per word in
    lexicographic order.

    A prefix's node is its `merge_step` level, its measure restricted to
    `inside`, in lowest terms: `(den, ((pair id, numerator), ...))` over
    the generation's (occupied set, state) pairs, interned as int ids and
    stepped once per distinct (pair, letter) (`_step_pairs`). A node's step
    by a letter adds up its pairs' successors under the lcm of their
    denominators, in lowest terms, interned on that tuple (`_step_nodes`).
    Prefixes whose nodes agree continue alike, and numpy extends every
    prefix from its node's row. A rule that never branches keeps one pair
    per node, a point mass interned on its pair id; one that keeps its
    letters as state shares no pair between prefixes. A rule that
    `decides_by_block` is asked once per (block, letter) while `table`, the
    caller's `decision_table`, lives; any other once per (pair, letter)
    per generation.

    `words` holds each word's letters and `parked` its cars' spots, as
    (m, r) int64 arrays; `parked` is None unless every node grown is a
    point mass of weight 1, since only then are those the runs' spots.
    `ids` holds each word's node, an index into `nodes`, the last
    generation in the level form `(den, {(occupied set, state):
    numerator})`.

    Each call writes one DEBUG record on the `parkline` logger
    (`_grow_nodes`), with the fields `pairs`, `nodes` and `rows`, the sizes
    of the generations and the words kept after each car, and
    `pair_steps`, the (pair, letter) successors computed.
    """
    import numpy as np

    letter_of = np.asarray(letters, np.int64)
    ids = np.zeros(1, np.int32)
    words = parked = np.zeros((1, 0), np.int64)

    def extend(k, next_node, spot_of):
        nonlocal ids, words, parked
        # nonzero scans row by row, so words stay in lexicographic order
        rows, cols = np.nonzero((next_node >= 0)[ids])
        from_ids = ids[rows]
        ids = next_node[from_ids, cols]
        words = np.column_stack((words[rows], letter_of[cols]))
        parked = None if spot_of is None else np.column_stack((parked[rows], spot_of[from_ids, cols]))
        return len(ids)

    nodes = _grow_nodes(p, r, letters, inside, table, extend)
    return words, parked, ids, nodes


def _grow_nodes(p: Procedure, r: int, letters: Sequence[int], inside, table, extend) -> list:
    """The nodes of `grow_runs`, one generation per car: `_step_pairs`, then
    `_step_nodes`, whose int (nodes, letters) array of the next node (-1 if
    none) goes to `extend(k, next_node, spot_of)`, which returns the rows
    it keeps. `spot_of` holds the car's spots while every node grown is a
    point mass of weight 1, and is None from the first generation that
    holds another node. Logs `grow_runs`' record."""
    import numpy as np

    width = len(letters)
    pairs = [(frozenset(), p.init_state())]
    nodes: list[tuple[int, tuple]] = [(1, ((0, 1),))]
    # each node's sum of occupied spots, while every node is a point mass
    sums = np.zeros(1, np.int64)
    pair_steps, pair_sizes, node_sizes, row_sizes = 0, [], [], []
    for k in range(r):
        succ, pairs = _step_pairs(p, pairs, letters, inside, table)
        pair_steps += len(succ)
        nodes, next_node = _step_nodes(nodes, succ, width)
        pair_sizes.append(len(pairs))
        node_sizes.append(len(nodes))
        next_node = np.array(next_node, np.int32).reshape(-1, width)
        # a point mass of weight 1 is one pair over denominator 1; a last 0 for -1
        if sums is not None and all(den == 1 and len(items) == 1 for den, items in nodes):
            after = np.array([sum(pairs[items[0][0]][0]) for _, items in nodes] + [0], np.int64)
            spot_of, sums = after[next_node] - sums[:, None], after[:-1]
        else:
            spot_of = sums = None
        row_sizes.append(extend(k, next_node, spot_of))
    log.debug(
        "grow_runs: %s over %d letters, %s pair steps, pairs %s, nodes %s, rows %s",
        p.name, width, f"{pair_steps:,}", pair_sizes, node_sizes, row_sizes,
        extra={"pairs": pair_sizes, "nodes": node_sizes, "rows": row_sizes, "pair_steps": pair_steps},
    )
    return [(den, {pairs[i]: num for i, num in items}) for den, items in nodes]


def _merge_rows(keys: Sequence[np.ndarray], counts: np.ndarray) -> tuple[list, np.ndarray]:
    """`(keys, counts)` with the rows that agree on every key column merged
    and their int64 counts added, sorted by the key columns, the first the
    most significant. `keys` is a sequence of equal-length key columns, or
    a 2-D array whose rows are the columns: the fibers of a rule with state
    merge on (outcome key, pair id) (`forests._outcome_histogram`),
    `orbit_tuples` on the r+1 entries of each rotation tuple. One
    lexsort over the columns, not one packed int64 key, so that no key
    range can overflow."""
    import numpy as np

    order = np.lexsort(keys[::-1])
    keys = [column[order] for column in keys]
    first = np.ones(len(order), bool)
    first[1:] = np.logical_or.reduce([column[1:] != column[:-1] for column in keys])
    starts = np.flatnonzero(first)
    return [column[starts] for column in keys], np.add.reduceat(counts[order], starts)


def _step_nodes(nodes: list, succ: list, width: int):
    """One car's step of every `grow_runs` node and letter column: the next
    generation's nodes and, one entry per (node, letter) row by row, the
    next node's id, -1 where the measure left is empty. A node `(den,
    ((pair id, numerator), ...))` steps by adding up its pairs' successors
    in `succ` under the lcm of their denominators, in lowest terms, so that
    equal measures intern equally. A point mass of weight 1, `(1, ((pair
    id, 1),))`, interns on its pair id alone, so a rule that never branches
    steps a pair id to a pair id."""
    interned: dict = {}
    nodes_next, next_node = [], []
    for den, items in nodes:
        rows = [(weight, succ[i * width : (i + 1) * width]) for i, weight in items]
        one = len(rows) == 1
        for col, (d, out) in enumerate(rows[0][1]):
            if d == 1 and one:
                if not out:
                    next_node.append(-1)
                    continue
                # one run that does not branch: the node stays in lowest terms
                j = out[0][0]
                key = j if den == 1 else (den, ((j, items[0][1]),))
            else:
                scale = math.lcm(*[row[col][0] for _, row in rows])
                nums: dict[int, int] = {}
                for weight, row in rows:
                    d, out = row[col]
                    factor = weight * (scale // d)
                    for j, num in out:
                        nums[j] = nums.get(j, 0) + factor * num
                if not nums:
                    next_node.append(-1)
                    continue
                d = den * scale
                g = math.gcd(d, *nums.values())
                if d == g and len(nums) == 1:
                    # a point mass of weight 1, since no mass passes 1
                    (key,) = nums
                elif g == 1:
                    key = (d, tuple(sorted(nums.items())))
                else:
                    key = (d // g, tuple(sorted((j, num // g) for j, num in nums.items())))
            node = interned.get(key)
            if node is None:
                node = interned[key] = len(nodes_next)
                nodes_next.append((1, ((key, 1),)) if type(key) is int else key)
            next_node.append(node)
    return nodes_next, next_node


def _sure_pass(p: Procedure, r: int, table, extend, name: str, fields: tuple) -> None:
    """Step the (occupied set, state) pairs of rule `p` one generation per
    car over the letters 1..r, the spots kept inside {1..r} (`_step_pairs`,
    with `table`, the caller's `decision_table`), and pass each generation
    to `extend(car, next_id, spot, pairs)`, cars from 1: int32 (pairs, r)
    arrays of the next pair's id, -1 where the step leaves {1..r} or
    branches, and of the car's spot where it does not, then the next pairs.
    `orbit_tuples`, `step_counts` and `forests._outcome_histogram` step
    here, so they ask the same decisions in the same order. Writes one
    DEBUG record on the `parkline` logger: `pair_steps`, the (pair, letter)
    successors computed, and per name in `fields` the generations' sizes,
    then the sizes `extend` returns. ValueError if a decision branches,
    once every car has been stepped."""
    import numpy as np

    inside = frozenset(range(1, r + 1))
    pairs = [(frozenset(), p.init_state())]
    # each pair's sum of occupied spots
    before = np.zeros(1, np.int32)
    sure = True
    pair_steps, pair_sizes, sizes = 0, [], []
    for car in range(1, r + 1):
        succ, pairs = _step_pairs(p, pairs, range(1, r + 1), inside, table)
        pair_steps += len(succ)
        # a step that leaves {1..r} keeps no successor, and is no branch
        sure = sure and all(d == 1 and len(out) < 2 for d, out in succ)
        next_id = np.array([out[0][0] if d == 1 and len(out) == 1 else -1 for d, out in succ], np.int32)
        next_id = next_id.reshape(-1, r)
        # a sure step's spot is the one its occupied set gains; a last 0 for id -1
        after = np.array([sum(occ) for occ, _ in pairs] + [0], np.int32)
        spot = after[next_id] - before[:, None]
        before = after[:-1]
        pair_sizes.append(len(pairs))
        sizes.append(extend(car, next_id, spot, pairs))
    series = dict(zip(fields, (pair_sizes, sizes)))
    log.debug(
        f"{name}: %s, %s pair steps" + "".join(f", {field} %s" for field in series),
        p.name, f"{pair_steps:,}", *series.values(),
        extra={**series, "pair_steps": pair_steps},
    )
    if not sure:
        raise _branch_error(p)


def orbit_tuples(p: Procedure, r: int, table) -> tuple[dict[int, int], list]:
    """`(histogram, tables)`: the number of cyclic orbits of {1..r+1}^r with
    k parking words, for each k that occurs, in ascending k, grown on
    rotation tuples instead of words, and each generation's table.

    An orbit is grown as its difference word: d_1 = 0, then d_i = (a_i -
    a_1) mod r+1 for each member a. Rotation j of the orbit (j = 0..r)
    reads letter (d + j) mod (r+1) + 1 at each car, and the orbit carries
    the tuple of its r+1 rotations' (occupied set, state) pair ids, -1 once
    a car parks outside {1..r}, where it stays. Each generation steps its
    pairs once over the letters 1..r (`_sure_pass`, with `table`, the
    caller's `decision_table`), since letter r+1 parks outside at once,
    into an int32 table (see `replay_orbits`). The tuples are the int32
    rows of one array: each car looks every tuple's next ids up in one
    numpy gather, and orbits whose tuples agree continue alike, so equal
    rows merge (`_merge_rows`), each with an int64 count of the orbits
    reaching it. A count is exact, since it is at most the (r+1)^(r-1)
    orbits, below the (r+1)^r orbit entries that `enumeration._check_runs`
    checks fit int64 before any car. After r cars an orbit's live entries
    are its parking words. ValueError if a decision branches, once every
    car has been stepped.

    Each call writes one DEBUG record on the `parkline` logger, with the
    fields `pairs` and `tuples`, the sizes of each generation after each
    car, and `pair_steps`, the (pair, letter) successors computed.
    """
    import numpy as np

    base = r + 1
    tuples = np.zeros((1, base), np.int32)
    counts = np.ones(1, np.int64)
    # the letter column of rotation j at difference d
    columns = (np.arange(base)[:, None] + np.arange(base)) % base
    tables = []

    def extend(car, next_id, spot, pairs):
        nonlocal tuples, counts
        # one row of next ids per pair and letter 1..r+1, and a last one
        # for -1, which stays
        rows = np.full((len(next_id) + 1, base), -1, np.int32)
        rows[:-1, :r] = next_id
        tables.append(rows)
        # the first letter is d_1 = 0 for every orbit
        cols = columns if car > 1 else columns[:1]
        grown = rows[tuples[:, None, :], cols].reshape(-1, base)
        merged, counts = _merge_rows(grown.T, np.repeat(counts, len(cols)))
        tuples = np.stack(merged, axis=1)
        return len(tuples)

    # letter r+1 parks outside {1..r} at once, so only 1..r are stepped
    _sure_pass(p, r, table, extend, "orbit_tuples", ("pairs", "tuples"))
    histogram = np.zeros(base + 1, np.int64)
    np.add.at(histogram, base - (tuples < 0).sum(axis=1), counts)
    return {k: n for k, n in enumerate(histogram.tolist()) if n}, tables


def step_counts(p: Procedure, r: int, table) -> np.ndarray:
    """The one-car step table of a rule without state over {1..r}: an int64
    (2^r, r) array whose entry [S, s-1] is the number of letters in 1..r
    that park the next car on spot s from the occupied set S, a bit mask
    with spot s at bit s-1; 0 where no run reaches S. A partial outcome of
    such a rule fixes its occupied set, so the parking words of an outcome
    number the product of these entries along it
    (`forests.all_fiber_counts_brute`).

    Each generation steps the occupied sets reached by its cars once over
    the letters 1..r (`_step_pairs`, with `table`, the caller's
    `decision_table`), through the `_sure_pass` that the fibers of a rule
    with state take too. ValueError if a decision branches, once every car
    has been stepped.

    Each call writes one DEBUG record on the `parkline` logger, with the
    fields `sets`, the occupied sets reached after each car, and
    `pair_steps`, the (pair, letter) successors computed.
    """
    import numpy as np

    counts = np.zeros((1 << r, r), np.int64)
    masks = np.zeros(1, np.int64)

    def extend(car, next_id, spot, pairs):
        nonlocal masks
        rows, cols = np.nonzero(next_id >= 0)
        np.add.at(counts, (masks[rows], spot[rows, cols] - 1), 1)
        masks = np.array([sum(1 << (s - 1) for s in occ) for occ, _ in pairs], np.int64)

    _sure_pass(p, r, table, extend, "step_counts", ("sets",))
    return counts


def replay_orbits(tables: list, r: int) -> np.ndarray:
    """The id rotation j of every cyclic orbit of {1..r+1}^r reaches through
    the per-generation `tables`, unmerged, at [orbit, j] of an int32 array.
    A table's row i holds id i's next id by letter column 0..r, -1 if none,
    and its last row is the -1 sentinel's. Orbit o grows as the difference
    word 0 followed by the r-1 radix-(r+1) digits of o, its representative
    those digits plus 1 after a 1; each car is one numpy gather."""
    import numpy as np

    base = r + 1
    columns = (np.arange(base)[:, None] + np.arange(base)) % base
    ids = np.zeros((1, base), np.int32)
    for k, table in enumerate(tables):
        # the first difference is 0 for every orbit
        ids = np.asarray(table, np.int32)[ids[:, None], columns if k else columns[:1]].reshape(-1, base)
    return ids


def count_landing(p: Procedure, letters: Sequence[int], target: frozenset) -> int:
    """Number of words of length |target| over `letters` whose run ends on
    exactly `target`, counted on (occupied set, state) pairs with nothing
    dropped: each pair carries the number of
    prefixes reaching it, and the last car is only checked, per (pair,
    letter), for landing on `target`, so no last level is built. Raises
    ValueError if any run branches, checked after every car. A rule that
    `decides_by_block` is asked once per (block, letter) in the call
    (`decision_table`)."""
    table = decision_table(p)
    level = initial_level(p)
    for _ in range(len(target) - 1):
        level = merge_step(p, level, letters, table=table)
        # a branch raises the denominator, even where its runs merge back
        if level[0] > 1:
            raise _branch_error(p)
    lands = 0
    for (occ, state), count in level[1].items():
        # |occ| is |target| - 1, so a pair inside the target misses one spot
        last = sum(target) - sum(occ) if occ < target else None
        for a in letters:
            choices = ((a, 1, 1),) if a not in occ else int_choices(p, state, occ, a, a, table)
            if len(choices) > 1:
                raise _branch_error(p)
            lands += count * (choices[0][0] == last)
    return lands


# ---------------------------------------------------------------------------
# block records
#
# A block-record state is a sorted tuple of (lo, hi, record), one entry per
# maximal block lo..hi of occupied spots, where record is the letter of the
# last car that parked on the block.


def block_record(state: tuple, blk: Block):
    """Record of block `blk` in a block-record state."""
    for lo, _, rec in state:
        if lo == blk.lo:
            return rec
    raise ValueError(f"no record for block {blk.lo}..{blk.hi}")


def record_parked(state: tuple, letter, spot: int) -> tuple:
    """Block-record state after a car with `letter` parks on the free
    `spot`: the blocks next to it merge with it and take `letter` as
    their record."""
    lo = hi = spot
    kept = []
    for entry in state:
        if entry[1] == spot - 1:
            lo = entry[0]
        elif entry[0] == spot + 1:
            hi = entry[1]
        else:
            kept.append(entry)
    kept.append((lo, hi, letter))
    # block starts are distinct, so sorting never compares records
    return tuple(sorted(kept))


def run(p: Procedure, word: Iterable[int]) -> RunResult:
    return run_engine(p, as_word(word))


def last_spot(p: Procedure, word: Iterable[int]) -> int:
    """Spot where the last car parks."""
    word = as_word(word)
    if not word:
        raise ValueError("last_spot of the empty word")
    return run(p, word).parked[-1]


def is_parking(p: Procedure, word: Iterable[int]) -> bool:
    """True iff the run occupies exactly {1..r}."""
    word = as_word(word)
    return run(p, word).spots == frozenset(range(1, len(word) + 1))


def outcome(p: Procedure, word: Iterable[int]) -> dict[int, int]:
    return run(p, word).outcome


# ---------------------------------------------------------------------------
# builtin catalog


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def right_procedure() -> Procedure:
    return Procedure(
        name="right",
        decide=lambda st, occ, blk, a: RIGHT,
        is_shift_invariant=True,
        is_locally_decided=True,
    )


def left_procedure() -> Procedure:
    return Procedure(
        name="left",
        decide=lambda st, occ, blk, a: LEFT,
        is_shift_invariant=True,
        is_locally_decided=True,
    )


def closest_procedure() -> Procedure:
    # nearest free spot wins; ties go right
    def decide(st, occ, blk, a):
        return RIGHT if (blk.hi + 1 - a) <= (a - blk.lo + 1) else LEFT

    return Procedure(name="closest", decide=decide, is_shift_invariant=True, is_locally_decided=True)


def prime_procedure() -> Procedure:
    # right iff the block the car lands on has prime size
    def decide(st, occ, blk, a):
        return RIGHT if _is_prime(blk.size) else LEFT

    return Procedure(name="prime", decide=decide, is_shift_invariant=True, is_locally_decided=True)


def evenodd_procedure() -> Procedure:
    def decide(st, occ, blk, a):
        return RIGHT if a % 2 == 0 else LEFT

    return Procedure(name="evenodd", decide=decide, is_locally_decided=True)


def naples_procedure(k: int) -> Procedure:
    """Back up at most k spots looking for a free one, but never to a spot
    below 1; otherwise go right."""
    if isinstance(k, bool) or not isinstance(k, Integral) or k < 1:
        raise ValueError(f"naples requires an integer k >= 1, got {k!r}")

    def decide(st, occ, blk, a):
        return LEFT if blk.lo > 1 and a - blk.lo < k else RIGHT

    return Procedure(name=f"naples:k={k}", decide=decide, is_locally_decided=True)


def far_procedure(convention: str = "prose") -> Procedure:
    """Compare the number of cars parked strictly right (R) and strictly
    left (L) of the preferred spot.

    convention "prose": go right iff R <= L (the default).
    convention "notation": go right iff R > L (the opposite reading).
    """
    if convention not in ("prose", "notation"):
        raise ValueError(f"unknown far convention {convention!r}")

    def decide(st, occ, blk, a):
        right_count = sum(1 for s in occ if s > a)
        left_count = sum(1 for s in occ if s < a)
        if convention == "prose":
            return RIGHT if right_count <= left_count else LEFT
        return RIGHT if right_count > left_count else LEFT

    name = "far" if convention == "prose" else f"far:convention={convention}"
    return Procedure(name=name, decide=decide, is_shift_invariant=True)


def lbs_procedure() -> Procedure:
    """Compare against the last car that parked on the block: park right
    iff the new preference is >= that car's preference.

    The state is a block-record state (see `block_record`).
    """

    def decide(state, occ, blk, a):
        return RIGHT if a >= block_record(state, blk) else LEFT

    return Procedure(
        name="lbs",
        decide=decide,
        init_state=tuple,
        update=record_parked,
        is_shift_invariant=True,
        is_locally_decided=True,
    )


def index_rule_procedure(dirs, name: str | None = None) -> Procedure:
    """Direction chosen by the arrival index of the bumped car: car i uses
    dirs[i-1]. The index equals |occupied|+1, so the rule is memoryless
    and shift invariant but in general not locally decided; it does
    commute with rotations that keep the run inside {1..r}."""
    dirs = tuple(dirs)

    def decide(st, occ, blk, a):
        i = len(occ) + 1
        if i > len(dirs):
            raise ValueError(f"no direction for car {i}")
        return dirs[i - 1]

    return Procedure(
        name=name or "bycar(" + "".join(d.value for d in dirs) + ")",
        decide=decide,
        is_shift_invariant=True,
    )


# ---------------------------------------------------------------------------
# direction tables


@dataclass(frozen=True)
class DirTable:
    """Row r gives the direction for each preferred position i in {1..r}
    on the standard occupied block {1..r}; blocks larger than r_max use
    `default_beyond`."""

    rows: tuple[tuple[Direction, ...], ...]
    default_beyond: Direction = RIGHT

    def __post_init__(self) -> None:
        for r, row in enumerate(self.rows, start=1):
            if len(row) != r:
                raise ValueError(f"row {r} must have {r} entries, got {len(row)}")

    @property
    def r_max(self) -> int:
        return len(self.rows)

    def direction(self, r: int, i: int) -> Direction:
        if not 1 <= i <= r:
            raise ValueError(f"position {i} outside 1..{r}")
        if r <= self.r_max:
            return self.rows[r - 1][i - 1]
        return self.default_beyond

    def to_json(self) -> dict:
        return {
            "type": "memoryless_local",
            "r_max": self.r_max,
            "rows": [[d.value for d in row] for row in self.rows],
            "default_beyond": self.default_beyond.value,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "DirTable":
        kind = doc.get("type") if isinstance(doc, dict) else None
        if kind != "memoryless_local":
            raise ValueError(f"unsupported table type {kind!r}")
        if "rows" not in doc:
            raise ValueError("direction table has no 'rows'")
        rows = doc["rows"]
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise ValueError(f"direction table rows must be a list of lists, got {rows!r}")
        rows = tuple(tuple(Direction(entry) for entry in row) for row in rows)
        table = cls(rows, Direction(doc.get("default_beyond", "R")))
        if "r_max" in doc and doc["r_max"] != table.r_max:
            raise ValueError(
                f"declared r_max {doc['r_max']} != {table.r_max} rows"
            )
        return table


def load_dir_table(path: str) -> DirTable:
    with open(path, "r", encoding="utf-8") as fh:
        return DirTable.from_json(json.load(fh))


def table_procedure(
    table: DirTable, name: str | None = None, strict: bool = False
) -> Procedure:
    """Memoryless local procedure driven by an explicit direction table."""
    if not isinstance(table, DirTable):
        raise ValueError(f"table requires parameter 'table' as a DirTable, got {table!r}")

    def decide(st, occ, blk, a):
        return table.direction(blk.size, a - blk.lo + 1)

    return Procedure(
        name=name or f"table(r_max={table.r_max})",
        decide=decide,
        is_shift_invariant=True,
        is_locally_decided=True,
        strict_r_max=table.r_max if strict else None,
    )


# ---------------------------------------------------------------------------
# memoryless direction probes


def dir_of(p: Procedure, r: int, i: int) -> Direction:
    """Direction chosen when {1..r} is occupied and the car prefers i."""
    if not 1 <= i <= r:
        raise ValueError(f"position {i} outside 1..{r}")
    return dir_of_set(p, range(1, r + 1), i)


def dir_of_set(p: Procedure, occupied: Iterable[int], a: int) -> Direction:
    """Direction chosen on an arbitrary occupied set (memoryless rules
    that do not branch there)."""
    if not p.is_memoryless:
        raise ValueError(f"{p.name} is not memoryless")
    spot = _sure_spot(p, int_choices(p, p.init_state(), frozenset(occupied), a, a))
    return RIGHT if spot > a else LEFT


# ---------------------------------------------------------------------------
# builtin registry and spec strings

_BUILTINS: dict[str, Callable[..., Procedure]] = {
    "right": right_procedure,
    "left": left_procedure,
    "closest": closest_procedure,
    "prime": prime_procedure,
    "evenodd": evenodd_procedure,
    "naples": naples_procedure,
    "far": far_procedure,
    "lbs": lbs_procedure,
    "table": table_procedure,
}


def builtin(name: str, **params) -> Procedure:
    """Catalog lookup: right, left, closest, prime, evenodd, naples(k),
    far(convention), lbs, table(DirTable)."""
    try:
        factory = _BUILTINS[name]
    except KeyError:
        raise ValueError(f"unknown procedure {name!r}") from None
    accepted = inspect.signature(factory).parameters
    for key in params:
        if key not in accepted:
            raise ValueError(f"{name} takes no parameter {key!r}")
    for key, param in accepted.items():
        if param.default is param.empty and key not in params:
            raise ValueError(f"{name} requires parameter {key!r}")
    return factory(**params)


def spec_params(spec: str) -> tuple[str, dict[str, str]]:
    """Split "name" or "name:k=v,..." into the name and its parameters, as
    strings; ValueError for an item without "=" or a repeated parameter."""
    name, _, tail = spec.partition(":")
    params: dict[str, str] = {}
    for item in tail.split(",") if tail else ():
        key, eq, value = item.partition("=")
        if not eq:
            raise ValueError(f"bad parameter {item!r} in {spec!r}")
        if key in params:
            raise ValueError(f"{name} repeats parameter {key!r} in {spec!r}")
        params[key] = value
    return name, params


def parse_proc_spec(spec: str) -> Procedure:
    """Parse "name" or "name:k=v,..." into a catalog procedure. A table
    comes only as a DirTable (`builtin`, `load_dir_table`), never from a
    spec."""
    name, params = spec_params(spec)
    return builtin(name, **{k: int(v) if v.lstrip("-").isdigit() else v for k, v in params.items()})


# ---------------------------------------------------------------------------
# empirical flag verification


@dataclass(frozen=True)
class FlagCheck:
    declared: bool
    witness: tuple | None

    @property
    def observed(self) -> bool:
        return self.witness is None

    @property
    def consistent(self) -> bool:
        return self.declared == self.observed


@dataclass(frozen=True)
class FlagReport:
    procedure: str
    r_max: int
    shift_invariant: FlagCheck
    memoryless: FlagCheck
    locally_decided: FlagCheck

    @property
    def all_consistent(self) -> bool:
        return (
            self.shift_invariant.consistent
            and self.memoryless.consistent
            and self.locally_decided.consistent
        )


def check_flags(p: Procedure, r_max: int) -> FlagReport:
    """Test the declared flags over every word with letters in
    {1..r_max+1} and length <= r_max; a found violation is returned as a
    witness. A flag is consistent if declared as observed, so one left
    False on a rule that satisfies it is not, and one declared False needs
    r_max large enough for a witness to exist. r_max must be >= 1. A word
    of n cars takes up to n(n+1) car steps, checked against `WORK_BUDGET`."""
    from .enumeration import WORK_BUDGET, take_path

    if r_max < 1:
        raise ValueError(f"r_max must be >= 1, got {r_max}")
    steps = sum((r_max + 1) ** n * n * (n + 1) for n in range(1, r_max + 1))
    take_path("per-word", f"flag check up to length {r_max}", steps, WORK_BUDGET)
    shift_w = None
    memory_w = None
    local_w = None
    seen: dict[tuple[SpotSet, int], tuple[int, Word]] = {}

    for word in chain.from_iterable(product(range(1, r_max + 2), repeat=n) for n in range(1, r_max + 1)):
        res = run(p, word)

        if shift_w is None:
            shifted = run(p, shift(word, 1))
            if shifted.parked != tuple(s + 1 for s in res.parked):
                shift_w = (word, shift(word, 1))

        occupied: set[int] = set()
        for idx, a in enumerate(word):
            if a in occupied:
                if memory_w is None:
                    key = (frozenset(occupied), a)
                    hit = seen.get(key)
                    if hit is None:
                        seen[key] = (res.parked[idx], word[: idx + 1])
                    elif hit[0] != res.parked[idx]:
                        memory_w = (hit[1], word[: idx + 1])
                if local_w is None:
                    blk = block_of(occupied, a)
                    sub = tuple(
                        word[j] for j in range(idx) if res.parked[j] in blk
                    )
                    if run(p, sub + (a,)).parked[-1] != res.parked[idx]:
                        local_w = (word, idx + 1, sub)
            occupied.add(res.parked[idx])

    return FlagReport(
        procedure=p.name,
        r_max=r_max,
        shift_invariant=FlagCheck(p.is_shift_invariant, shift_w),
        memoryless=FlagCheck(p.is_memoryless, memory_w),
        locally_decided=FlagCheck(p.is_locally_decided, local_w),
    )
