"""Indexed binary forests and the two-labeling encoding of parking runs.

A run is encoded as a forest with one binary tree per block of the final
spot set. Nodes are canonically labeled by spots through in-order
traversal. The q-labeling records arrival order (a decreasing labeling:
the block root is the most recent arrival); the p-labeling records the
preference of the car that parked at each spot. The word is recoverable
from the pair, so the encoding is injective; forgetting the labels and
keeping the support projects back onto the plain run.

Serialized form (see pair_to_json): support as a sorted list, one shape
string per block ("()" is a single node, "(L|R)" nests children) and
the two label arrays in canonical (sorted-spot) order.

Fibers: for a memoryless, locally decided rule, the parking words with
outcome sigma number the product over spots i of the label-set size of
i on its subtree span [lo, hi] in the decreasing tree of sigma. That
span needs no tree: it is the block that the car at i closes when it
parks, spot i joined to the blocks the earlier cars leave on either side.
`fiber_counts` reads the spans of a whole batch on one walk along it;
`fiber_counts_brute` counts the parking words by outcome instead: for a
rule without state, as the product along each outcome of a one-car step
table over occupied sets, and for a rule with state, grown as rows of
(partial outcome, rule pair) that merge after every car; both step the
same pairs (`procedures._sure_pass`). `fiber_count_brute` counts one
outcome's words on a walk that keeps only the runs whose cars park where
the outcome puts them.
A label set's size is 1 + R(lo, i-1) + L(i+1, hi), with R and L the
preferences bumped right and left off a block (`enumeration.block_sides`,
whose denominator D is 1 unless a decision branches);
each call probes each block size once (each block, for a rule that is not
shift invariant) and keeps nothing after it returns.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from . import _kernels
from .enumeration import (
    WORK_BUDGET,
    _block_sides_memo,
    _check_r,
    _check_runs,
    _check_strict,
    check_budget,
    take_path,
)
from .procedures import (
    Direction,
    Procedure,
    _branch_error,
    _merge_rows,
    _sure_pass,
    decision_table,
    dir_of_set,
    initial_level,
    merge_step,
    run,
    step_counts,
)
from .words import Block, SpotSet, Word, as_int, as_word, blocks

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class Tree:
    """Nonempty binary tree; an absent child is None."""

    left: "Tree | None" = None
    right: "Tree | None" = None


def tree_size(t: Tree | None) -> int:
    return 0 if t is None else 1 + tree_size(t.left) + tree_size(t.right)


def tree_to_str(t: Tree | None) -> str:
    if t is None:
        return ""
    return f"({tree_to_str(t.left)}|{tree_to_str(t.right)})"


def tree_from_str(text: str) -> Tree | None:
    def expect(s: str, pos: int, char: str) -> None:
        if pos >= len(s) or s[pos] != char:
            raise ValueError(f"bad shape string {text!r}: expected {char!r} at {pos}")

    def parse(s: str, pos: int) -> tuple[Tree | None, int]:
        if pos >= len(s) or s[pos] != "(":
            return None, pos
        left, pos = parse(s, pos + 1)
        expect(s, pos, "|")
        right, pos = parse(s, pos + 1)
        expect(s, pos, ")")
        return Tree(left, right), pos + 1

    tree, end = parse(text, 0)
    if end != len(text):
        raise ValueError(f"trailing characters in shape string {text!r}")
    return tree


def decreasing_tree(seq: Sequence[int]) -> Tree | None:
    """Binary tree of a sequence of distinct values: root at the maximum,
    children built from the left and right remainders."""
    if not seq:
        return None
    k = max(range(len(seq)), key=seq.__getitem__)
    return Tree(decreasing_tree(seq[:k]), decreasing_tree(seq[k + 1 :]))


def node_intervals(t: Tree | None, lo: int) -> dict[int, tuple[int, int]]:
    """Subtree span of each node under canonical (in-order) labeling of a
    block starting at `lo`; node i maps to (l_i, r_i)."""
    out: dict[int, tuple[int, int]] = {}

    def walk(node: Tree | None, lo: int) -> int:
        if node is None:
            return lo
        mid = walk(node.left, lo)
        hi = walk(node.right, mid + 1)
        out[mid] = (lo, hi - 1)
        return hi

    walk(t, lo)
    return out


@dataclass(frozen=True)
class IndexedForest:
    """A spot set with one binary tree per block, tree sizes matching
    block sizes; nodes are the spots via in-order traversal."""

    support: SpotSet
    trees: tuple[Tree | None, ...]

    def __post_init__(self) -> None:
        bls = blocks(self.support)
        if len(bls) != len(self.trees):
            raise ValueError(f"{len(self.trees)} trees for {len(bls)} blocks")
        for b, t in zip(bls, self.trees):
            if tree_size(t) != b.size:
                raise ValueError(f"tree size {tree_size(t)} != block size {b.size}")

    @property
    def block_list(self) -> tuple[Block, ...]:
        return blocks(self.support)

    def intervals(self) -> dict[int, tuple[int, int]]:
        out: dict[int, tuple[int, int]] = {}
        for b, t in zip(self.block_list, self.trees):
            out.update(node_intervals(t, b.lo))
        return out


@dataclass(frozen=True)
class ForestPair:
    """Shape plus the two labelings, stored in canonical (sorted-spot)
    order: q_labels are arrival indices (decreasing along every tree),
    p_labels are preferences."""

    forest: IndexedForest
    p_labels: tuple[int, ...]
    q_labels: tuple[int, ...]

    def spots(self) -> list[int]:
        return sorted(self.forest.support)

    def p_label_of(self) -> dict[int, int]:
        return dict(zip(self.spots(), self.p_labels))

    def q_label_of(self) -> dict[int, int]:
        return dict(zip(self.spots(), self.q_labels))


def pair_from_trace(word, spots: SpotSet, parked: Sequence[int]) -> ForestPair:
    """Build the pair from a run trace; word letters may be any objects
    whose identity the p-labels should carry."""
    outcome = {spot: i + 1 for i, spot in enumerate(parked)}
    trees = tuple(
        decreasing_tree([outcome[s] for s in b.spots()]) for b in blocks(spots)
    )
    ordered = sorted(spots)
    q_labels = tuple(outcome[s] for s in ordered)
    p_labels = tuple(word[outcome[s] - 1] for s in ordered)
    return ForestPair(IndexedForest(frozenset(spots), trees), p_labels, q_labels)


def encode(p: Procedure, word: Iterable[int]) -> ForestPair:
    """The injective lift of a run: common shape, arrival labeling Q and
    preference labeling P."""
    word = as_word(word)
    res = run(p, word)
    return pair_from_trace(word, res.spots, res.parked)


def project(pair: ForestPair) -> SpotSet:
    """Support of the shape; composing with encode returns the plain run."""
    return pair.forest.support


def word_of_pair(pair: ForestPair) -> Word:
    """The only word that can map to this pair: car q_i prefers p_i."""
    r = len(pair.p_labels)
    letters = [0] * r
    for p_lab, q_lab in zip(pair.p_labels, pair.q_labels):
        letters[q_lab - 1] = p_lab
    return tuple(letters)


def is_decreasing(pair: ForestPair) -> bool:
    """q-labels are {1..r} and every node exceeds its whole subtree."""
    r = len(pair.q_labels)
    if sorted(pair.q_labels) != list(range(1, r + 1)):
        return False
    q = pair.q_label_of()
    return all(
        q[i] > q[j]
        for i, (lo, hi) in pair.forest.intervals().items()
        for j in range(lo, hi + 1)
        if j != i
    )


# ---------------------------------------------------------------------------
# label sets and fibers


def _check_label_rule(p: Procedure) -> None:
    if not p.decides_by_block:
        raise ValueError(f"{p.name} must be memoryless and locally decided, keeping no state")


def _label_sizes(p: Procedure) -> Callable[[int, int, int], int]:
    """Label-set size of `node` on the span [lo, hi] for one call, from
    block sides probed once each (`enumeration._block_sides_memo`, once per
    size for a local rule). A rule whose decisions branch on a block has
    no label sets: ValueError."""
    _check_label_rule(p)
    side = _block_sides_memo(p)

    def size(node: int, lo: int, hi: int) -> int:
        right, _, d_left = side(lo, node - 1)
        _, left, d_right = side(node + 1, hi)
        if d_left > 1 or d_right > 1:
            raise ValueError(f"{p.name}: a decision branches; it has no label sets")
        return 1 + right + left

    return size


def label_set(p: Procedure, node: int, lo: int, hi: int) -> frozenset[int]:
    """Preferences that can label `node` when its subtree spans [lo, hi]:
    the node itself, plus the left-span spots bounced right onto it, plus
    the right-span spots bounced left onto it."""
    _check_label_rule(p)
    if not lo <= node <= hi:
        raise ValueError(f"node {node} outside [{lo}, {hi}]")
    out = {node}
    left_span = frozenset(range(lo, node))
    for j in left_span:
        if dir_of_set(p, left_span, j) is Direction.RIGHT:
            out.add(j)
    right_span = frozenset(range(node + 1, hi + 1))
    for j in right_span:
        if dir_of_set(p, right_span, j) is Direction.LEFT:
            out.add(j)
    return frozenset(out)


def _as_sigmas(sigmas: Iterable[Sequence[int]] | np.ndarray) -> np.ndarray:
    """The batch as an int64 (m, r) array; every row must be a permutation
    of 1..r for one r, its entries ints (`words.as_int`). An integer
    ndarray of shape (m, r) is checked in one pass; any other ndarray is
    checked as the list of its entries, which refuses floats and bools."""
    import numpy as np

    if isinstance(sigmas, np.ndarray) and (sigmas.ndim != 2 or sigmas.dtype.kind not in "iu"):
        sigmas = sigmas.tolist()
    if isinstance(sigmas, np.ndarray):
        s = sigmas
    else:
        rows = [tuple(row) for row in sigmas]
        if not all(type(a) is int for row in rows for a in row):
            rows = [tuple(as_int(a, "not a permutation: entry") for a in row) for row in rows]
        lengths = sorted({len(row) for row in rows})
        if len(lengths) > 1:
            raise ValueError(f"outcomes of different lengths {lengths} in one batch")
        s = np.array(rows).reshape(len(rows), lengths[0] if rows else 0)
    r = s.shape[1]
    # every entry is an int, and one beyond 1..r is refused by value, never cast
    bad = np.flatnonzero((np.sort(s, axis=1) != np.arange(1, r + 1)).any(axis=1))
    if len(bad):
        raise ValueError(f"{tuple(s[bad[0]].tolist())} is not a permutation of 1..{r}")
    return s.astype(np.int64, copy=False)


def fiber_counts(p: Procedure, sigmas: Iterable[Sequence[int]] | np.ndarray) -> list[int]:
    """Fiber size of each outcome in a batch (sigma[i-1] = arrival index of
    the car at spot i, every sigma of one length r): the number of parking
    words with that outcome, the product over cars of the label-set size of
    the car's spot on its subtree span: the block that the car closes,
    joined to the blocks the cars before it leave on either side. The batch
    is a sequence of sigmas or an integer ndarray of shape (m, r), checked
    in one pass. One walk along the cars reads every span of the batch, and
    each distinct (spot, span) is sized once, from block sides probed once
    per call."""
    import numpy as np

    s = _as_sigmas(sigmas)
    label_size = _label_sizes(p)
    m, r = s.shape
    n = r + 2
    # per row, first[i] is the first spot of the block ending at spot i and
    # last[i] the last spot of the block starting at i: i+1 and i-1 while i
    # is free, as spots 0 and r+1 always are; -1..n fit the smallest signed
    # type, which keeps the gathers fast
    first = np.tile(np.arange(1, n + 1, dtype=np.min_scalar_type(-n - 1)), m)
    last = first - 2
    base = np.arange(0, m * n, n)
    keys = np.empty((r, m), np.int64)
    for car, spot in enumerate(np.argsort(s, axis=1).T + 1):
        lo, hi = first[base + spot - 1], last[base + spot + 1]
        first[base + hi] = lo
        last[base + lo] = hi
        keys[car] = (spot * n + lo) * n + hi
    keys = keys.ravel()
    # a count per slot takes (r+2)^3 entries, so only a batch with as many
    # keys counts them; a smaller one takes the set of its keys
    if len(keys) >= n**3:
        uniq = np.flatnonzero(np.bincount(keys))
    else:
        uniq = np.array(sorted(set(keys.tolist())), np.int64)
    sizes = [label_size(key // n**2, key // n % n, key % n) for key in uniq.tolist()]
    # a label set lies inside its span, and the subtree sizes of an r-node
    # tree multiply to at most r! (hook length formula), so below 2^63 the
    # int64 product is exact; beyond it the product runs on Python ints
    dtype = np.int64 if math.factorial(r) <= np.iinfo(np.int64).max else object
    factors = np.array(sizes, dtype=dtype)[np.searchsorted(uniq, keys)]
    return np.prod(factors.reshape(r, m), axis=0, dtype=dtype).tolist()


def fiber_count(p: Procedure, sigma: Sequence[int]) -> int:
    """Number of parking words whose outcome is sigma (sigma[i-1] = arrival
    index of the car at spot i): the product of the label-set sizes of
    the spots on their subtree spans, as `fiber_counts` computes it."""
    return fiber_counts(p, [sigma])[0]


def fiber_counts_brute(
    p: Procedure, r: int, *, cap: int | None = WORK_BUDGET
) -> dict[tuple[int, ...], int]:
    """Outcome histogram of all parking words of length r, in ascending
    order of sigma: for a rule without state every outcome, each with the
    product of its step counts (`all_fiber_counts_brute`), for a rule with
    state the outcomes its words reach (`_outcome_histogram`)."""
    if p.is_memoryless:
        sigmas, counts = all_fiber_counts_brute(p, r, cap=cap)
        return dict(zip(map(tuple, sigmas.tolist()), counts))
    return _outcome_histogram(p, r, cap)


def all_fiber_counts_brute(
    p: Procedure, r: int, *, cap: int | None = WORK_BUDGET
) -> tuple[np.ndarray, list[int]]:
    """Every outcome of length r, as the rows of an int64 (r!, r) array in
    lexicographic order, and the number of parking words with each, 0 for
    an outcome that none has. The outcomes are listed only once the brute
    count has passed the budget.

    A rule without state keeps no pair but its occupied set, which a
    partial outcome fixes, so the words with outcome sigma number the
    product over cars k of the step counts c[S_{k-1}][s_k] (`step_counts`):
    the letters that park car k on its spot s_k from the set S_{k-1} of the
    cars before it. Each is at least 1, for the letter s_k itself. One
    gather and product per car reads all r! counts, over int8 spots and
    int32 masks; the int64 product is exact, since a count is at most the
    r^r words and `_check_runs` refuses r >= 16, where (r+1)^r passes
    int64, before any car. The work is estimated at sum_{k<r} r!/(r-k)! * r
    car steps, the partial outcomes of k cars stepped by r letters. A rule
    with state takes `fiber_counts_brute`'s histogram, read by outcome."""
    import numpy as np

    if not p.is_memoryless:
        histogram = fiber_counts_brute(p, r, cap=cap)
        sigmas = _permutations(r)
        return sigmas, [histogram.get(sigma, 0) for sigma in map(tuple, sigmas.tolist())]
    _check_runs(p, r, cap, sum(math.perm(r, k) for k in range(r)) * r)
    steps = step_counts(p, r, decision_table(p))
    sigmas = _permutations(r)
    counts = np.ones(len(sigmas), np.int64)
    occupied = np.zeros(len(sigmas), np.int32)
    # the spot of each car in every outcome, from 0
    for spot in np.argsort(sigmas, axis=1).astype(np.int8).T:
        counts *= steps[occupied, spot]
        occupied |= np.left_shift(1, spot, dtype=np.int32)
    return sigmas, counts.tolist()


def _permutations(r: int) -> np.ndarray:
    """Every permutation of 1..r as the rows of an int64 (r!, r) array, in
    lexicographic order: those of 0..n-1 are, for each first entry i in
    turn, i before those of 0..n-2 with the entries >= i raised by one."""
    import numpy as np

    s = np.zeros((1, 0), np.int64)
    for n in range(1, r + 1):
        s = np.concatenate([np.column_stack([np.full(len(s), i), s + (s >= i)]) for i in range(n)])
    return s + 1


def _outcome_histogram(p: Procedure, r: int, cap: int | None) -> dict[tuple[int, ...], int]:
    """`fiber_counts_brute` of a rule with state: the parking words of
    length r are grown in {1..r} as rows of (partial outcome key, pair id),
    car k on spot s adding k * (r+1)^(r-s) to the key, each row with its
    int64 number of words: each car steps the pairs once (`_sure_pass`,
    which logs `rows`, the rows kept after each car), extends every row by
    one gather and merges the rows that agree (`_merge_rows`), so the work
    follows the r!/(r-k)! partial outcomes of k cars, times their rule
    states, not the (r+1)^(r-1) words; the rows of one key, in several
    states, are summed. The work is estimated at r^r * r car steps, as any
    parking runs. ValueError if a decision branches."""
    import numpy as np

    _check_runs(p, r, cap)
    places = _kernels.radix_weights(r + 1, r)
    keys = np.zeros(1, np.int64)
    ids = np.zeros(1, np.int32)
    counts = np.ones(1, np.int64)

    def extend(car, next_id, spot, pairs):
        nonlocal keys, ids, counts
        rows, cols = np.nonzero(next_id[ids] >= 0)
        from_ids = ids[rows]
        grown = (keys[rows] + car * places[spot[from_ids, cols] - 1], next_id[from_ids, cols])
        (keys, ids), counts = _merge_rows(grown, counts[rows])
        return len(keys)

    _sure_pass(p, r, decision_table(p), extend, "outcome rows", ("pairs", "rows"))
    first = np.flatnonzero(np.diff(keys, prepend=-1))
    sigmas = keys[first, None] // places % (r + 1)
    return dict(zip(map(tuple, sigmas.tolist()), np.add.reduceat(counts, first).tolist()))


def fiber_count_brute(p: Procedure, sigma: Sequence[int], *, cap: int | None = WORK_BUDGET) -> int:
    """Number of words of length len(sigma) whose run has outcome sigma,
    counted on a walk instead of growing every parking word: car k tries
    every letter in {1..r}, and only the runs that park it where sigma puts
    it are kept (`merge_step` with `inside` that one spot), each pair
    carrying the number of prefixes reaching it. sigma is checked as
    `fiber_counts` checks it, and r against a strict table's rows, before
    any car moves. A rule without state
    keeps one pair per car, so the work is estimated at r^2 car steps; a
    rule with state is refused once its levels pass the budget, as a walk
    is. ValueError if a kept run branches."""
    s = _as_sigmas([sigma])[0].tolist()
    r = len(s)
    spots = [0] * r
    for spot, car in enumerate(s, start=1):
        spots[car - 1] = spot
    _check_strict(p, r)
    path = f"walk over the outcome of {r} cars"
    take_path("walk", path, r * r, cap)
    table = decision_table(p)
    level = initial_level(p)
    steps = 0
    for spot in spots:
        steps += len(level[1]) * r
        check_budget(path, steps, cap)
        level = merge_step(p, level, range(1, r + 1), frozenset({spot}), table=table)
    den, runs = level
    if den > 1:
        raise _branch_error(p)
    return sum(runs.values())


def decreasing_labelings_count(t: Tree | None) -> int:
    """Number of ways to label the tree with {1..size} decreasingly."""
    if t is None:
        return 1
    ls, rs = tree_size(t.left), tree_size(t.right)
    return (
        math.comb(ls + rs, ls)
        * decreasing_labelings_count(t.left)
        * decreasing_labelings_count(t.right)
    )


def shape_counts(p: Procedure, trees: Iterable[Tree]) -> list[int]:
    """Number of parking words of length size(t) whose pair has the tree t
    as its shape (label-set product times decreasing labelings), for each
    tree of a batch, from block sides probed once per call."""
    label_size = _label_sizes(p)
    return [
        math.prod(label_size(node, lo, hi) for node, (lo, hi) in node_intervals(t, 1).items())
        * decreasing_labelings_count(t)
        for t in trees
    ]


def all_shape_counts(p: Procedure, r: int, *, cap: int | None = WORK_BUDGET) -> list[int]:
    """`shape_counts(p, iter_tree_shapes(r))`, built without any tree.
    The counts of the shapes of n nodes on the span starting at lo come
    from those of their subtrees, in `iter_tree_shapes` order: a root with
    ls nodes on its left weighs its label-set size times the C(n-1, ls)
    ways to share the smaller labels, times one count of each side. The
    work is estimated at Catalan(r) * r (shape, node) pairs, one product
    term each, before any block is probed; no car is stepped."""
    shapes = math.comb(2 * r, r) // (r + 1)
    take_path("interval DP", f"shape counts of {r} nodes", shapes * r, cap, "(shape, node) pairs")
    label_size = _label_sizes(p)

    @functools.cache
    def counts(lo: int, n: int) -> list[int]:
        if n == 0:
            return [1]
        out = []
        for ls in range(n):
            root = lo + ls
            weight = label_size(root, lo, lo + n - 1) * math.comb(n - 1, ls)
            out.extend(
                weight * left * right
                for left in counts(lo, ls)
                for right in counts(root + 1, n - 1 - ls)
            )
        return out

    return counts(1, r)


def shape_count(p: Procedure, t: Tree) -> int:
    """`shape_counts` of one tree."""
    return shape_counts(p, [t])[0]


def iter_tree_shapes(r: int) -> Iterator[Tree | None]:
    """All binary tree shapes with r nodes."""
    if r == 0:
        yield None
        return
    for ls in range(r):
        for left in iter_tree_shapes(ls):
            for right in iter_tree_shapes(r - 1 - ls):
                yield Tree(left, right)


# ---------------------------------------------------------------------------
# good correspondences


def _labelings_of_tree(t: Tree | None, labels: frozenset[int]) -> Iterator[dict]:
    """Decreasing labelings of one tree with the given label set, as maps
    keyed by in-order position (0-based within the tree)."""
    if t is None:
        yield {}
        return
    root_pos = tree_size(t.left)
    rest = labels - {max(labels)}
    for left_labels in itertools.combinations(sorted(rest), tree_size(t.left)):
        right_labels = rest - set(left_labels)
        for lmap in _labelings_of_tree(t.left, frozenset(left_labels)):
            for rmap in _labelings_of_tree(t.right, frozenset(right_labels)):
                out = {root_pos: max(labels)}
                out.update(lmap)
                out.update({root_pos + 1 + pos: lab for pos, lab in rmap.items()})
                yield out


def iter_decreasing_labelings(forest: IndexedForest) -> Iterator[tuple[int, ...]]:
    """All decreasing labelings of the forest with {1..r}, in canonical
    spot order."""
    bls = forest.block_list
    r = len(forest.support)

    def rec(idx: int, remaining: frozenset[int]) -> Iterator[tuple[int, ...]]:
        if idx == len(bls):
            yield ()
            return
        size = bls[idx].size
        for chosen in itertools.combinations(sorted(remaining), size):
            for lmap in _labelings_of_tree(forest.trees[idx], frozenset(chosen)):
                head = tuple(lmap[pos] for pos in range(size))
                for tail in rec(idx + 1, remaining - set(chosen)):
                    yield head + tail

    yield from rec(0, frozenset(range(1, r + 1)))


@dataclass(frozen=True)
class GoodnessReport:
    procedure: str
    r_max: int
    good: bool
    # witness: (word, alternative q-labels, candidate word that fails)
    witness: tuple[Word, tuple[int, ...], Word] | None


def is_good_correspondence(p: Procedure, r_max: int) -> GoodnessReport:
    """Check that relabeling the arrival forest of any image pair with any
    other decreasing labeling stays in the image, for every word with
    letters in {1..r_max+1} and length <= r_max. Membership of (P, Q') is
    decided by replaying its unique candidate word. r_max must be >= 1. A
    word of n cars takes up to n * n! car steps, checked against `WORK_BUDGET`."""
    _check_r(r_max, "r_max")
    steps = sum((r_max + 1) ** n * n * math.factorial(n) for n in range(1, r_max + 1))
    take_path("per-word", f"correspondence check up to length {r_max}", steps, WORK_BUDGET)
    for r in range(1, r_max + 1):
        for word in itertools.product(range(1, r_max + 2), repeat=r):
            pair = encode(p, word)
            for q_labels in iter_decreasing_labelings(pair.forest):
                if q_labels == pair.q_labels:
                    continue
                candidate = ForestPair(pair.forest, pair.p_labels, q_labels)
                if encode(p, word_of_pair(candidate)) != candidate:
                    return GoodnessReport(
                        p.name, r_max, False, (word, q_labels, word_of_pair(candidate))
                    )
    return GoodnessReport(p.name, r_max, True, None)


def total_displacement(p: Procedure, word: Iterable[int]) -> int:
    """Sum over cars of |preference - parked spot|."""
    word = as_word(word)
    res = run(p, word)
    return sum(abs(a - s) for a, s in zip(word, res.parked))


# ---------------------------------------------------------------------------
# probabilistic lift and serialization


def weighted_pairs(pp, word: Iterable[int]):
    """Pair-valued lift of a probabilistic rule: every branch of the run
    contributes its pair with the branch weight."""
    from .probabilistic import path_distribution

    word = as_word(word)
    out: dict[ForestPair, object] = {}
    for parked, weight in path_distribution(pp, word).items():
        pair = pair_from_trace(word, frozenset(parked), parked)
        out[pair] = out.get(pair, 0) + weight
    return out


def pair_to_json(pair: ForestPair) -> dict:
    return {
        "support": pair.spots(),
        "shapes": [tree_to_str(t) for t in pair.forest.trees],
        "p_labels": list(pair.p_labels),
        "q_labels": list(pair.q_labels),
    }


def pair_from_json(doc: dict) -> ForestPair:
    support = frozenset(doc["support"])
    trees = tuple(tree_from_str(s) for s in doc["shapes"])
    return ForestPair(
        IndexedForest(support, trees),
        tuple(doc["p_labels"]),
        tuple(doc["q_labels"]),
    )


# r=3 labeling multisets: this encoding gives (6,4,3,2,1) over the five
# shapes; the labeled-Dyck-path and Shi-tree encodings both give
# (6,3,3,3,1), so neither is a relabeling of ours.
DYCK_SHI_R3_LABELING_COUNTS = (6, 3, 3, 3, 1)
