import itertools
import math
import re
from collections import Counter
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import goldens
from conftest import parking_runs, random_dir_tables
from goldens import BLOCK_RULES
from parkline.forests import (
    ForestPair,
    Tree,
    all_shape_counts,
    decreasing_labelings_count,
    decreasing_tree,
    encode,
    fiber_count,
    fiber_count_brute,
    fiber_counts,
    fiber_counts_brute,
    is_decreasing,
    is_good_correspondence,
    iter_decreasing_labelings,
    iter_tree_shapes,
    label_set,
    node_intervals,
    pair_from_json,
    pair_to_json,
    project,
    shape_count,
    shape_counts,
    total_displacement,
    tree_from_str,
    tree_to_str,
    weighted_pairs,
    word_of_pair,
)
from parkline.probabilistic import kw_procedure, measure
from parkline.procedures import RIGHT, Procedure, builtin, is_parking, outcome, parse_proc_spec, run

CATALOG = ["right", "left", "closest", "prime", "evenodd", "far", "lbs"]
LABEL_RULES = ["right", "left", "closest", "prime", "evenodd", "naples:k=1", "naples:k=2"]
RANDOM_TABLES = {p.name: p for p in random_dir_tables(3, 5, seed=11)}
# the pinned engine rules without state, whose fibers take the step table
STATELESS = {name: p for name, p in goldens.engine_rules().items() if p.is_memoryless}


def word_space(r, hi=None):
    return itertools.product(range(1, (hi or r + 1) + 1), repeat=r)


class TestTrees:
    def test_decreasing_tree_shape(self):
        t = decreasing_tree((1, 3, 2))
        assert t == Tree(Tree(None, None), Tree(None, None))

    def test_catalan_counts(self):
        assert [sum(1 for _ in iter_tree_shapes(r)) for r in range(6)] == [1, 1, 2, 5, 14, 42]

    def test_shape_string_round_trip(self):
        for t in iter_tree_shapes(4):
            assert tree_from_str(tree_to_str(t)) == t

    @pytest.mark.parametrize("text", ["(x)", "(|", "(", "(||)", "(|)(|)"])
    def test_bad_shape_string_raises(self, text):
        with pytest.raises(ValueError, match="shape string"):
            tree_from_str(text)

    def test_bad_shape_string_raises_under_optimize(self):
        # the check must not be an assert, which `python -O` strips
        import os
        import subprocess
        import sys
        from pathlib import Path

        import parkline

        # the child imports the same package, wherever pytest found it
        src = str(Path(parkline.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = (
            "from parkline.forests import tree_from_str\n"
            "try:\n    tree_from_str('(x)')\nexcept ValueError:\n    print('ValueError')\n"
        )
        out = subprocess.run(
            [sys.executable, "-O", "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert out.stdout.strip() == "ValueError"

    def test_node_intervals_left_comb(self):
        t = decreasing_tree((1, 2, 3))  # left comb: root is spot 3
        assert node_intervals(t, 1) == {3: (1, 3), 2: (1, 2), 1: (1, 1)}

    def test_decreasing_labelings_count_vs_enumeration(self):
        for r in range(1, 6):
            for t in iter_tree_shapes(r):
                from parkline.forests import IndexedForest

                forest = IndexedForest(frozenset(range(1, r + 1)), (t,))
                explicit = list(iter_decreasing_labelings(forest))
                assert len(explicit) == decreasing_labelings_count(t)
                assert len(set(explicit)) == len(explicit)


class TestEncode:
    def test_single_letter(self):
        pair = encode(builtin("right"), (7,))
        assert project(pair) == frozenset({7})
        assert pair.p_labels == (7,)
        assert pair.q_labels == (1,)

    def test_right_11(self):
        pair = encode(builtin("right"), (1, 1))
        # spot 2 is the root (most recent arrival), spot 1 its left child
        assert tree_to_str(pair.forest.trees[0]) == "((|)|)"
        assert pair.q_labels == (1, 2)
        assert pair.p_labels == (1, 1)

    def test_increasing_word_right(self):
        pair = encode(builtin("right"), (1, 2, 3, 4))
        assert pair.q_labels == (1, 2, 3, 4)
        assert tree_to_str(pair.forest.trees[0]) == "((((|)|)|)|)"

    def test_lbs_121_support(self):
        assert project(encode(builtin("lbs"), (1, 2, 1))) == frozenset({0, 1, 2})

    def test_empty(self):
        pair = encode(builtin("right"), ())
        assert project(pair) == frozenset()

    @pytest.mark.parametrize("name", CATALOG)
    def test_projection_and_labels(self, name):
        p = builtin(name)
        for r in range(1, 5):
            for word in word_space(r):
                pair = encode(p, word)
                res = run(p, word)
                assert project(pair) == res.spots
                assert sorted(pair.p_labels) == sorted(word)
                assert is_decreasing(pair)
                # canonical label == parked spot: q-label at spot s is the
                # arrival index of the car that parked at s
                assert pair.q_label_of() == res.outcome
                assert word_of_pair(pair) == word

    def test_projection_exhaustive_r5(self):
        p = builtin("right")
        for word in word_space(5):
            assert project(encode(p, word)) == run(p, word).spots

    @pytest.mark.parametrize("name", CATALOG)
    def test_injective_and_parking_shape(self, name):
        p = builtin(name)
        for r in range(1, 5):
            seen = set()
            for word in word_space(r):
                pair = encode(p, word)
                assert pair not in seen
                seen.add(pair)
                single_tree_on_1r = (
                    project(pair) == frozenset(range(1, r + 1))
                    and len(pair.forest.trees) == 1
                )
                assert single_tree_on_1r == is_parking(p, word)


class TestLabelSets:
    def test_right_labels_run_down_to_interval_start(self):
        p = builtin("right")
        assert label_set(p, 3, 1, 4) == frozenset({1, 2, 3})
        assert label_set(p, 2, 2, 5) == frozenset({2})

    def test_naples_general_rule(self):
        # left part starts k past the interval start (cannot reach farther
        # back), right part extends k beyond the node
        nap = builtin("naples", k=1)
        assert label_set(nap, 4, 2, 5) == frozenset({3, 4, 5})
        nap2 = builtin("naples", k=2)
        assert label_set(nap2, 5, 2, 7) == frozenset({4, 5, 6, 7})

    def test_naples_leftmost_branch(self):
        # an interval starting at 1 cannot back up below 1: all left spots count
        nap = builtin("naples", k=1)
        assert label_set(nap, 3, 1, 4) == frozenset({1, 2, 3, 4})

    def test_requires_memoryless_local(self):
        with pytest.raises(ValueError):
            label_set(builtin("lbs"), 1, 1, 1)
        with pytest.raises(ValueError):
            label_set(builtin("far"), 1, 1, 1)

    def test_label_sets_match_observed_fibers(self):
        # oracle: collect the preferences actually seen at each spot over
        # all parking words with a fixed outcome
        p = builtin("naples", k=1)
        r = 4
        by_sigma = {}
        for word in word_space(r):
            if not is_parking(p, word):
                continue
            sigma = tuple(outcome(p, word)[s] for s in range(1, r + 1))
            by_sigma.setdefault(sigma, []).append(word)
        for sigma, words in by_sigma.items():
            tree = decreasing_tree(sigma)
            intervals = node_intervals(tree, 1)
            for spot, (lo, hi) in intervals.items():
                observed = {w[sigma[spot - 1] - 1] for w in words}
                assert observed == label_set(p, spot, lo, hi), (sigma, spot)


class TestFibers:
    @pytest.mark.parametrize("sigma", [(1.0, 2.0), (True, 2), (1, "2")], ids=repr)
    def test_entries_must_be_ints(self, sigma):
        bad = next(a for a in sigma if type(a) is not int)
        with pytest.raises(ValueError, match=f"entry {bad!r} is not an int"):
            fiber_counts(builtin("right"), [(2, 1), sigma])

    def test_numpy_rows_are_ints(self):
        import numpy as np

        assert fiber_counts(builtin("right"), np.array([[2, 1], [1, 2]])) == [1, 2]

    def test_identity_fiber_is_factorial(self):
        p = builtin("right")
        for r in range(1, 6):
            assert fiber_count(p, tuple(range(1, r + 1))) == math.factorial(r)

    def test_reverse_fiber_is_one(self):
        p = builtin("right")
        for r in range(1, 6):
            assert fiber_count(p, tuple(range(r, 0, -1))) == 1

    def test_size_one(self):
        for name in CATALOG:
            if name in ("far", "lbs"):
                continue
            assert fiber_count(builtin(name), (1,)) == 1

    @pytest.mark.parametrize("spec", [*LABEL_RULES, *RANDOM_TABLES])
    def test_formula_matches_brute(self, spec):
        p = RANDOM_TABLES.get(spec) or parse_proc_spec(spec)
        for r in range(1, 6):
            brute = fiber_counts_brute(p, r)
            sigmas = list(itertools.permutations(range(1, r + 1)))
            expected = [brute.get(sigma, 0) for sigma in sigmas]
            assert fiber_counts(p, sigmas) == expected, (spec, r)
            assert [fiber_count(p, sigma) for sigma in sigmas] == expected, (spec, r)

    @pytest.mark.parametrize("spec", BLOCK_RULES)
    def test_merged_histogram_equals_the_words(self, spec):
        # the outcome of each parking word, one row per word
        p = parse_proc_spec(spec)
        for r in range(1, 7):
            _, parked = parking_runs(p, r)
            expected = Counter(map(tuple, (np.argsort(parked, axis=1) + 1).tolist()))
            brute = fiber_counts_brute(p, r)
            assert brute == expected and list(brute) == sorted(expected), (spec, r)
            assert all(type(count) is int for count in brute.values())

    @pytest.mark.parametrize("spec", LABEL_RULES)
    def test_array_batch_equals_the_list(self, spec):
        p = parse_proc_spec(spec)
        for r in range(7):
            sigmas = list(itertools.permutations(range(1, r + 1)))
            expected = fiber_counts(p, sigmas)
            for dtype in (np.int64, np.int32, np.uint8):
                array = np.array(sigmas, dtype).reshape(len(sigmas), r)
                assert fiber_counts(p, array) == expected, (spec, r, dtype)

    @pytest.mark.parametrize(
        "rows",
        [[(2.0, 1.0)], [(1, 2), (2.5, 1)], [(True, False)], [(1, 2), (1, 1)], [(0, 1)], [(1, 2), (2, 3)]],
        ids=repr,
    )
    def test_array_batch_refused_as_the_list(self, rows):
        # the list path on the array's own entries, floats and bools included
        p, array = builtin("right"), np.array(rows)
        with pytest.raises(ValueError) as listed:
            fiber_counts(p, array.tolist())
        with pytest.raises(ValueError) as refused:
            fiber_counts(p, array)
        assert str(refused.value) == str(listed.value)

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(LABEL_RULES),
        st.integers(0, 10).flatmap(
            lambda n: st.lists(st.permutations(range(1, n + 1)), min_size=1, max_size=4)
        ),
    )
    def test_batch_spans_and_products_equal_trees(self, spec, sigmas):
        from parkline.forests import _as_sigmas, _spans

        p = parse_proc_spec(spec)
        lo, hi = _spans(_as_sigmas(sigmas))
        products = []
        for row, sigma in enumerate(sigmas):
            intervals = node_intervals(decreasing_tree(tuple(sigma)), 1)
            assert intervals == {
                i + 1: (lo[row, i], hi[row, i]) for i in range(len(sigma))
            }
            products.append(
                math.prod(len(label_set(p, i, a, b)) for i, (a, b) in intervals.items())
            )
        assert fiber_counts(p, sigmas) == products
        assert fiber_counts(p, sigmas[:1]) == products[:1]

    @pytest.mark.parametrize("spec", [*BLOCK_RULES, "far", "lbs"])
    def test_one_outcome_walk_equals_the_histogram(self, spec):
        # far and lbs have no fiber formula, but their words have outcomes;
        # lbs keeps state, so its walk holds several pairs per car
        p = parse_proc_spec(spec)
        for r in range(1, 6):
            brute = fiber_counts_brute(p, r)
            for sigma in itertools.permutations(range(1, r + 1)):
                assert fiber_count_brute(p, sigma) == brute.get(sigma, 0), (spec, sigma)

    def test_one_outcome_walk_beyond_the_histogram(self, caplog):
        import logging

        from parkline.enumeration import CapExceededError

        caplog.set_level(logging.DEBUG, logger="parkline")
        for spec, r in (("right", 9), ("closest", 12), ("naples:k=2", 12)):
            p = parse_proc_spec(spec)
            for sigma in (tuple(range(1, r + 1)), tuple(range(r, 0, -1)), tuple(range(2, r + 1)) + (1,)):
                caplog.clear()
                assert fiber_count_brute(p, sigma) == fiber_count(p, sigma), (spec, sigma)
                [record] = caplog.records
                assert (record.path, record.estimate) == ("walk", r * r)
        with pytest.raises(CapExceededError, match="walk over the outcome of 4 cars: 16 car steps"):
            fiber_count_brute(builtin("right"), (1, 2, 3, 4), cap=15)

    def test_histogram_of_a_rule_without_state_is_estimated_by_partial_outcomes(self):
        from parkline.enumeration import CapExceededError

        # sum_{k<r} r!/(r-k)! * r car steps, one per partial outcome and
        # letter: 554,248 at r = 8 and 5,611,770 at r = 9 are admitted
        closest = builtin("closest")
        for r, steps in ((8, 554_248), (9, 5_611_770), (10, 62_353_010)):
            with pytest.raises(CapExceededError, match=f"parking runs of length {r}: {steps:,} car steps"):
                fiber_counts_brute(closest, r, cap=steps - 1)
        assert sum(fiber_counts_brute(closest, 8).values()) == 9**7
        with pytest.raises(CapExceededError, match="parking runs of length 10"):
            fiber_counts_brute(closest, 10)
        # a rule with state is still estimated at r^r * r
        with pytest.raises(CapExceededError, match="parking runs of length 8: 134,217,728 car steps"):
            fiber_counts_brute(builtin("lbs"), 8)

    def test_one_outcome_walk_checks_sigma_first(self):
        asked = []
        p = Procedure("asked", decide=lambda *args: asked.append(args) or RIGHT, is_locally_decided=True)
        for sigma, message in (((1, 1, 2), "(1, 1, 2) is not a permutation of 1..3"),
                               ((1, "2"), "not a permutation: entry '2' is not an int")):
            with pytest.raises(ValueError, match=re.escape(message)):
                fiber_count_brute(p, sigma)
        assert not asked
        assert fiber_count_brute(p, ()) == 1
        # a kept run that branches has no word count
        with pytest.raises(ValueError, match="kw:q=1/2: a decision branches"):
            fiber_count_brute(kw_procedure(F(1, 2)), (1, 2))

    def test_one_outcome_walk_refuses_rows_a_strict_table_lacks(self):
        from parkline.enumeration import StrictTableError
        from parkline.procedures import DirTable, Direction, table_procedure

        table = DirTable(((Direction.RIGHT,), (Direction.LEFT, Direction.RIGHT)))
        strict = table_procedure(table, strict=True)
        assert fiber_count_brute(strict, (2, 1)) == fiber_counts_brute(strict, 2)[(2, 1)]
        for sigma in ((1, 2, 3), (3, 2, 1)):
            with pytest.raises(StrictTableError, match="refusing r=3"):
                fiber_count_brute(strict, sigma)
        lenient = table_procedure(table)
        assert fiber_count_brute(lenient, (1, 2, 3)) == fiber_counts_brute(lenient, 3).get((1, 2, 3), 0)

    def test_products_beyond_int64_are_exact(self):
        # r! passes 2^63 at r = 21; the product must not wrap
        p = builtin("right")
        for r in (21, 25):
            identity = tuple(range(1, r + 1))
            counts = fiber_counts(p, [identity, identity[::-1]])
            assert counts == [math.factorial(r), 1]
            assert all(type(c) is int for c in counts)
            assert fiber_count(p, identity) == math.factorial(r)
        assert math.factorial(21) > 2**63

    def test_batch_probes_each_node_and_span_once(self, monkeypatch):
        import parkline.enumeration as enumeration

        p = parse_proc_spec("closest")
        probes = []
        real = enumeration.block_sides
        monkeypatch.setattr(
            enumeration, "block_sides", lambda *args: probes.append(args[1:]) or real(*args)
        )
        r = 6
        counts = fiber_counts(p, itertools.permutations(range(1, r + 1)))
        assert sum(counts) == (r + 1) ** (r - 1)
        # every (node, lo, hi) with lo <= node <= hi is some spot's span; its
        # size reads the sides of [lo, node-1] and [node+1, hi], so every
        # block size below r is read, and closest is local, so each size is
        # probed once, on the block that starts at 1
        assert sorted(probes) == [(1, n) for n in range(1, r)]

    @pytest.mark.parametrize(
        "name, sigmas, match",
        [
            ("right", [(1, 2, 3), (1, 1, 3)], "not a permutation"),
            ("right", [(2, 1), (1, 2.5)], "not a permutation"),
            ("right", [(1, 2), (1, 2, 3)], "different lengths"),
            ("lbs", [(2, 1), (1, 2)], "memoryless and locally decided"),
            ("far", [(2, 1), (1, 2)], "memoryless and locally decided"),
        ],
    )
    def test_batch_refused_before_any_probe(self, monkeypatch, name, sigmas, match):
        import parkline.enumeration as enumeration

        probes = []
        monkeypatch.setattr(enumeration, "block_sides", lambda *args: probes.append(args))
        with pytest.raises(ValueError, match=match):
            fiber_counts(builtin(name), sigmas)
        assert probes == []

    def test_empty_batch_and_empty_outcome(self):
        p = builtin("right")
        assert fiber_counts(p, []) == []
        assert fiber_counts(p, [(), ()]) == [1, 1]

    @pytest.mark.parametrize("name", ["right", "closest", "prime"])
    def test_fiber_sum_is_universal(self, name):
        p = builtin(name)
        for r in range(1, 6):
            total = sum(
                fiber_count(p, sigma)
                for sigma in itertools.permutations(range(1, r + 1))
            )
            assert total == (r + 1) ** (r - 1)


    def test_label_sets_probed_once_per_node_and_span(self, monkeypatch):
        import gc
        import weakref

        import parkline.enumeration as enumeration

        p = builtin("closest")
        probes = []
        real = enumeration.block_sides
        monkeypatch.setattr(
            enumeration, "block_sides", lambda *args: probes.append(args[1:]) or real(*args)
        )
        sigmas = list(itertools.permutations(range(1, 5)))
        first = fiber_counts(p, sigmas)
        assert len(probes) == len(set(probes)) > 0
        probes.clear()
        shapes = shape_counts(p, iter_tree_shapes(4))
        assert len(probes) == len(set(probes)) > 0
        # block sides live for one call: the same calls probe again and
        # agree, one outcome or tree at a time too
        assert [fiber_count(p, sigma) for sigma in sigmas] == first
        assert [shape_count(p, t) for t in iter_tree_shapes(4)] == shapes
        # and no call keeps the rule alive once it returns
        monkeypatch.undo()
        ref = weakref.ref(p)
        del p
        gc.collect()
        assert ref() is None

    @pytest.mark.parametrize("spec", ["kw:q=1/2", "pq:q=2"])
    def test_branching_rules_have_no_label_sets(self, spec):
        from parkline.probabilistic import parse_prob_spec

        pp = parse_prob_spec(spec)
        with pytest.raises(ValueError, match=f"{spec}: a decision branches"):
            fiber_count(pp, (2, 1))
        with pytest.raises(ValueError, match=f"{spec}: a decision branches"):
            shape_count(pp, Tree(Tree(), None))
        # pq:q=0 never branches: it runs as right does
        zero, right = parse_prob_spec("pq:q=0"), builtin("right")
        sigmas = list(itertools.permutations(range(1, 5)))
        assert fiber_counts(zero, sigmas) == fiber_counts(right, sigmas)

    def test_rules_without_label_sets_refused(self):
        for name in ("lbs", "far"):
            for _ in range(2):
                with pytest.raises(ValueError, match="memoryless and locally decided"):
                    fiber_count(builtin(name), (2, 1))
                with pytest.raises(ValueError, match="memoryless and locally decided"):
                    shape_count(builtin(name), Tree(None, None))


class TestShapeCounts:
    def test_right_r3_multiset(self):
        counts = sorted(
            (shape_count(builtin("right"), t) for t in iter_tree_shapes(3)),
            reverse=True,
        )
        assert counts == [6, 4, 3, 2, 1]
        assert sum(counts) == 16

    def test_single_node(self):
        assert shape_count(builtin("right"), Tree(None, None)) == 1

    @pytest.mark.parametrize("spec", LABEL_RULES + list(RANDOM_TABLES))
    def test_all_shapes_match_the_trees(self, spec):
        p = RANDOM_TABLES.get(spec) or parse_proc_spec(spec)
        for r in range(7):
            assert all_shape_counts(p, r) == shape_counts(p, iter_tree_shapes(r))

    def test_all_shapes_are_held_to_the_budget(self, caplog):
        import logging

        from parkline.enumeration import CapExceededError

        caplog.set_level(logging.DEBUG, logger="parkline")
        all_shape_counts(builtin("right"), 6)
        [record] = caplog.records
        assert (record.path, record.estimate) == ("interval DP", 132 * 6)
        # Catalan(14) = 2,674,440 shapes of 14 nodes
        with pytest.raises(CapExceededError, match=re.escape("shape counts of 14 nodes: 37,442,160 (shape, node) pairs exceed the work budget")):
            all_shape_counts(builtin("right"), 14)
        assert len(all_shape_counts(builtin("right"), 8, cap=1430 * 8)) == 1430

    @pytest.mark.parametrize("spec", ["lbs", "far", "kw:q=1/2"])
    def test_all_shapes_refuse_as_the_trees_do(self, spec):
        from parkline.probabilistic import parse_prob_spec

        p = parse_prob_spec(spec)
        with pytest.raises(ValueError) as tree_error:
            shape_counts(p, iter_tree_shapes(3))
        with pytest.raises(ValueError, match=re.escape(str(tree_error.value))):
            all_shape_counts(p, 3)

    @pytest.mark.parametrize("k", [1, 2])
    def test_naples_shape_sum_recovers_count(self, k):
        from parkline.enumeration import count_parking

        nap = builtin("naples", k=k)
        for r in range(1, 5):
            total = sum(shape_count(nap, t) for t in iter_tree_shapes(r))
            assert total == count_parking(nap, r)


class TestGoodCorrespondence:
    @pytest.mark.parametrize("r_max", [0, -3])
    def test_refuses_r_max_below_one(self, r_max):
        # no word would be checked, and the report would read good
        with pytest.raises(ValueError, match=f"r_max must be >= 1, got {r_max}"):
            is_good_correspondence(builtin("right"), r_max)

    def test_over_budget_refused_before_any_word(self, monkeypatch):
        import parkline.forests as forests
        from parkline.enumeration import CapExceededError

        def refuse(*args):
            raise AssertionError("encode called")

        monkeypatch.setattr(forests, "encode", refuse)
        with pytest.raises(CapExceededError, match="correspondence check up to length 6: 518,564,753 car"):
            is_good_correspondence(builtin("right"), 6)
        # r_max = 5, at 4,794,054 steps, is admitted: its first word is encoded
        with pytest.raises(AssertionError, match="encode called"):
            is_good_correspondence(builtin("right"), 5)

    @pytest.mark.parametrize("name", ["right", "prime"])
    def test_memoryless_local_is_good(self, name):
        assert is_good_correspondence(builtin(name), 3).good

    def test_naples_is_good(self):
        assert is_good_correspondence(builtin("naples", k=1), 3).good

    def test_lbs_empirically_good_at_desk_scale(self):
        # records the exhaustive answer at r <= 4; no claim beyond that scale
        assert is_good_correspondence(builtin("lbs"), 4).good

    def test_far_is_not(self):
        report = is_good_correspondence(builtin("far"), 3)
        assert not report.good
        word, q_labels, candidate = report.witness
        pair = encode(builtin("far"), word)
        target = ForestPair(pair.forest, pair.p_labels, q_labels)
        # the witness pair is genuinely outside the image: the only word
        # that could reach it fails to
        assert encode(builtin("far"), candidate) != target
        assert word_of_pair(target) == candidate


class TestDisplacement:
    def test_permutation_is_zero(self):
        for perm in itertools.permutations(range(1, 5)):
            assert total_displacement(builtin("closest"), perm) == 0

    def test_right_11(self):
        assert total_displacement(builtin("right"), (1, 1)) == 1

    def test_right_111(self):
        assert total_displacement(builtin("right"), (1, 1, 1)) == 3

    def test_matches_label_definition(self):
        p = builtin("lbs")
        for word in word_space(3, hi=4):
            pair = encode(p, word)
            via_labels = sum(
                abs(p_lab - spot) for spot, p_lab in pair.p_label_of().items()
            )
            assert total_displacement(p, word) == via_labels


class TestSerialization:
    def test_round_trip(self):
        pair = encode(builtin("lbs"), (1, 2, 1, 5))
        assert pair_from_json(pair_to_json(pair)) == pair

    def test_weighted_pairs_sum_to_measure(self):
        pp = kw_procedure(F(1, 2))
        for word in ((1, 1), (1, 1, 2), (2, 1, 2)):
            pairs = weighted_pairs(pp, word)
            assert sum(pairs.values()) == 1
            by_support = {}
            for pair, w in pairs.items():
                s = project(pair)
                by_support[s] = by_support.get(s, 0) + w
            assert by_support == measure(pp, word).probs


def raised(call):
    """`(result, None)` of `call()`, or `(None, (type, message))` of what it
    raises."""
    try:
        return call(), None
    except Exception as e:  # every refusal is compared, whatever its type
        return None, (type(e), str(e))


def late_error_rule() -> Procedure:
    """No state; goes right, except that car 2 branches and car 4 has no
    decision, so a branch is met before the error."""

    def decide(st, occ, blk, a):
        if len(occ) == 3:
            raise ValueError("late-error: no decision for car 4")
        return F(1, 2) if len(occ) == 1 else RIGHT

    return Procedure("late-error", decide=decide)


def per_word_histogram(p, r: int) -> dict[tuple[int, ...], int]:
    """The outcomes of the parking words of length r and the number of
    words with each, read off the spots of every parking word that
    `grow_runs` keeps; the refusal of a branch as
    `forests._outcome_histogram` words it."""
    from parkline.procedures import _branch_error, decision_table, grow_runs

    _, parked, _, _ = grow_runs(p, r, range(1, r + 1), frozenset(range(1, r + 1)), decision_table(p))
    if parked is None:
        raise _branch_error(p)
    # car k on spot s puts k at sigma[s-1]
    sigmas = np.zeros_like(parked)
    sigmas[np.arange(len(parked))[:, None], parked - 1] = np.arange(1, r + 1)
    return Counter(map(tuple, sigmas.tolist()))


class TestStepCounts:
    """The fibers of a rule without state, read off its one-car step table
    (`procedures.step_counts`), against the pair rows that a rule with state
    takes (`forests._outcome_histogram`), and those rows against the spots
    of every parking word (`procedures.grow_runs`). "The outcome fold" in
    the test names is that pair-row pass."""

    @pytest.mark.parametrize("name", [*goldens.engine_rules(), "late-error"])
    def test_pair_rows_equal_the_per_word_outcomes(self, name):
        from parkline.forests import _outcome_histogram

        p = goldens.engine_rules().get(name) or late_error_rule()
        for r in range(1, 7):
            rows, error = raised(lambda: _outcome_histogram(p, r, None))
            # the same refusal, of the same type, with the same message
            expected, expected_error = raised(lambda: per_word_histogram(p, r))
            assert error == expected_error, (name, r)
            if error:
                continue
            assert list(rows) == sorted(expected), (name, r)
            assert rows == expected and all(type(n) is int for n in rows.values()), (name, r)

    @pytest.mark.parametrize("name", [*STATELESS, "late-error"])
    def test_products_equal_the_outcome_fold(self, name):
        from parkline.forests import _outcome_histogram, all_fiber_counts_brute

        p = STATELESS.get(name) or late_error_rule()
        for r in range(1, 7):
            histogram, error = raised(lambda: _outcome_histogram(p, r, None))
            got, got_error = raised(lambda: all_fiber_counts_brute(p, r))
            # the same refusal, of the same type, with the same message
            assert got_error == error == raised(lambda: fiber_counts_brute(p, r))[1], (name, r)
            if error:
                continue
            sigmas, brute = got
            # every outcome, zeros included, in the outcome array's order
            expected = [histogram.get(sigma, 0) for sigma in map(tuple, sigmas.tolist())]
            assert brute == expected, (name, r)
            assert all(type(count) is int for count in brute)
            assert sigmas.shape == (math.factorial(r), r) and sigmas.dtype == np.int64

    def test_a_branch_is_refused_after_every_car(self):
        # car 2 branches, and car 4's error is met before the branch is refused
        from parkline.forests import _outcome_histogram, all_fiber_counts_brute

        p = late_error_rule()
        for r, message in ((2, "late-error: a decision branches"), (3, "late-error: a decision branches"),
                           (4, "late-error: no decision for car 4"), (5, "late-error: no decision for car 4")):
            for call in (lambda: _outcome_histogram(p, r, None), lambda: all_fiber_counts_brute(p, r),
                         lambda: fiber_counts_brute(p, r)):
                with pytest.raises(ValueError, match=message):
                    call()

    @pytest.mark.parametrize("name", ["lbs", "state-parity", "history-coin"])
    def test_a_rule_with_state_keeps_the_outcome_fold(self, name, caplog):
        # its fibers are grown on pair rows, which log `rows`, not `sets`
        import logging

        from parkline.forests import _outcome_histogram, _permutations, all_fiber_counts_brute

        caplog.set_level(logging.DEBUG, logger="parkline")
        p = goldens.engine_rules()[name]
        for r in range(1, 6):
            caplog.clear()
            histogram, error = raised(lambda: fiber_counts_brute(p, r))
            assert error == raised(lambda: _outcome_histogram(p, r, None))[1], (name, r)
            assert [record for record in caplog.records if hasattr(record, "rows")]
            assert not [record for record in caplog.records if hasattr(record, "sets")]
            got, got_error = raised(lambda: all_fiber_counts_brute(p, r))
            assert got_error == error, (name, r)
            if error:
                continue
            sigmas, counts = got
            assert (sigmas == _permutations(r)).all()
            assert counts == [histogram.get(sigma, 0) for sigma in map(tuple, sigmas.tolist())]

    @pytest.mark.parametrize("spec", ["far", "closest", "kwseq:qs=1/2+1/3", "pq:q=2", "lbs", "history-coin"])
    def test_same_decisions_as_the_outcome_fold(self, spec):
        # the pair rows, the step table and the growth of every parking
        # word take the same pair steps, so the same decisions in the same
        # order, once per (block, letter) for a rule with a decision table
        import dataclasses

        from parkline.forests import _outcome_histogram, all_fiber_counts_brute

        asked = []
        p = goldens.engine_rules()[spec]

        def decide(st, occ, blk, a):
            asked.append((occ, blk, a))
            return p.decide(st, occ, blk, a)

        rule = dataclasses.replace(p, decide=decide)
        for r in (3, 5):
            raised(lambda: _outcome_histogram(rule, r, None))
            pair_rows = asked[:]
            asked.clear()
            raised(lambda: all_fiber_counts_brute(rule, r))
            assert asked == pair_rows and pair_rows, (spec, r)
            asked.clear()
            raised(lambda: per_word_histogram(rule, r))
            assert asked == pair_rows, (spec, r)
            asked.clear()
