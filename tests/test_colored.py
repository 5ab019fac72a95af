import itertools

import pytest

from parkline.colored import (
    ColoredLetter,
    LanguageClosureError,
    Language,
    UndefinedRuleError,
    colored_lbs_procedure,
    colored_orbit_audit,
    colored_run,
    colored_word,
    distinct_letters_language,
    is_parking_colored,
    grow_language_words,
    rotate_values,
    verify_closures,
)
from parkline.procedures import Direction, Procedure, builtin, run

from conftest import reference_colored_audit

CLBS = colored_lbs_procedure()
DISTINCT = distinct_letters_language()


class TestColoredRun:
    @pytest.mark.parametrize("value", [1.5, "1", True])
    def test_values_must_be_ints(self, value):
        with pytest.raises(ValueError, match=f"letter value {value!r} is not an int"):
            colored_word([(2, "a"), (value, "b")])

    def test_free_values_park_anywhere(self):
        word = colored_word([(2, "a"), (1, "b"), (3, "a")])
        assert colored_run(CLBS, word).spots == frozenset({1, 2, 3})

    def test_bigger_color_goes_right(self):
        word = colored_word([(1, 1), (1, 2)])
        assert colored_run(CLBS, word).spots == frozenset({1, 2})

    def test_smaller_color_goes_left(self):
        word = colored_word([(1, 2), (1, 1)])
        assert colored_run(CLBS, word).spots == frozenset({0, 1})

    def test_one_rule_type(self):
        from parkline.colored import ColoredProcedure
        from parkline.probabilistic import ProbProcedure

        assert ColoredProcedure is Procedure and ProbProcedure is Procedure
        assert type(CLBS) is Procedure
        assert CLBS.language.name == "distinct-letters"

    def test_a_sure_probability_runs_on_values(self):
        sure_right = Procedure("sure-right", decide=lambda *_: 1)
        word = colored_word([(1, "a"), (1, "b"), (1, "c")])
        assert colored_run(sure_right, word).parked == (1, 2, 3)

    def test_language_violation(self):
        with pytest.raises(UndefinedRuleError):
            colored_run(CLBS, [(1, 1), (1, 1)])

    def test_equal_letters_undefined_outside_language(self):
        import dataclasses

        free_for_all = Language("anything", lambda w: True)
        loose = dataclasses.replace(colored_lbs_procedure(), language=free_for_all)
        with pytest.raises(UndefinedRuleError):
            colored_run(loose, [(1, 1), (1, 1)])

    def test_single_color_matches_plain_lbs(self):
        plain = builtin("lbs")
        for n in range(1, 5):
            for values in itertools.permutations(range(1, n + 1)):
                word = colored_word((v, 0) for v in values)
                assert colored_run(CLBS, word).spots == run(plain, values).spots

    def test_single_color_matches_plain_lbs_with_repeats(self):
        # repeats get distinct colors ordered by position: the later car
        # compares >= the earlier one exactly like the plain tie rule
        plain = builtin("lbs")
        for n in range(1, 5):
            for values in itertools.product(range(1, n + 2), repeat=n):
                word = colored_word((v, i) for i, v in enumerate(values))
                res = colored_run(CLBS, word)
                assert res.spots == run(plain, values).spots
                assert res.parked == run(plain, values).parked

    def test_shift_commutes(self):
        for values in itertools.product(range(1, 4), repeat=3):
            word = colored_word((v, i) for i, v in enumerate(values))
            shifted = colored_word((v + 2, i) for i, v in enumerate(values))
            assert colored_run(CLBS, shifted).spots == frozenset(
                s + 2 for s in colored_run(CLBS, word).spots
            )


class TestLanguage:
    def test_distinct_letters_closures(self):
        letters = [ColoredLetter(v, c) for v in (1, 2, 3) for c in (1, 2)]
        words = grow_language_words(DISTINCT, [letters] * 2)
        assert len(words) == 30  # 6 letters, ordered pairs without repeats
        assert words == sorted(words)
        verify_closures(DISTINCT, words, 2)

    def test_closure_violation_detected(self):
        bad = Language("no-short", lambda w: len(w) >= 2)
        with pytest.raises(LanguageClosureError):
            verify_closures(bad, [colored_word([(1, 1), (2, 1)])], 2)

    def test_rotation_fixes_colors(self):
        word = colored_word([(3, "x"), (1, "y")])
        assert rotate_values(word, 2) == colored_word([(1, "x"), (2, "y")])
        with pytest.raises(ValueError):
            rotate_values(colored_word([(5, "x")]), 2)


class TestColoredOrbits:
    def test_r2_two_colors(self):
        report = colored_orbit_audit(CLBS, DISTINCT, 2, (1, 2))
        assert report.orbit_count == 10
        assert report.histogram == {1: 10}
        assert report.all_one

    def test_r1_single_color(self):
        report = colored_orbit_audit(CLBS, DISTINCT, 1, (1,))
        assert report.orbit_count == 1
        assert report.all_one

    def test_r3_single_color(self):
        report = colored_orbit_audit(CLBS, DISTINCT, 3, (1,))
        assert report.orbit_count == 6
        assert report.all_one

    def test_r3_two_colors(self):
        report = colored_orbit_audit(CLBS, DISTINCT, 3, (1, 2))
        assert report.orbit_count == 84
        assert report.all_one

    def test_budget_refuses_before_any_word(self, monkeypatch):
        import parkline.colored as colored
        from parkline.enumeration import CapExceededError

        def refuse(*args, **kw):
            raise AssertionError("no word may be listed over the budget")

        real = colored.grow_language_words
        monkeypatch.setattr(colored, "grow_language_words", refuse)
        with pytest.raises(CapExceededError, match="colored words over 16 letters"):
            colored_orbit_audit(CLBS, DISTINCT, 7, (1, 2))
        # r=3 with 2 colors: 8^3 * 3 = 1,536 car steps
        with pytest.raises(CapExceededError, match="1,536 car steps"):
            colored_orbit_audit(CLBS, DISTINCT, 3, (1, 2), cap=1535)
        monkeypatch.setattr(colored, "grow_language_words", real)
        assert colored_orbit_audit(CLBS, DISTINCT, 3, (1, 2), cap=1536).all_one

    def test_refuses_a_rotation_open_language(self):
        # closed under subwords, but value 3 never appears: the spot checks
        # find the first key (1:1, 2:1) rotated to (2:1, 3:1)
        no_three = Language("no-3", lambda w: DISTINCT.contains(w) and all(a.value != 3 for a in w))
        with pytest.raises(LanguageClosureError, match="no-3 not closed under value rotation") as err:
            colored_orbit_audit(CLBS, no_three, 2, (1,))
        assert err.value.witness == (colored_word([(1, 1), (2, 1)]), colored_word([(2, 1), (3, 1)]))

    @pytest.mark.parametrize("r", [0, -1])
    def test_refuses_r_below_one(self, r):
        with pytest.raises(ValueError, match="r must be >= 1"):
            colored_orbit_audit(CLBS, DISTINCT, r, (1, 2))

    def test_refuses_no_colors(self):
        # an empty alphabet has no words and no classes to audit
        with pytest.raises(ValueError, match="no colors"):
            colored_orbit_audit(CLBS, DISTINCT, 2, ())

    def test_refuses_a_repeated_color(self):
        # a repeated color would list every letter twice
        with pytest.raises(ValueError, match="repeated color"):
            colored_orbit_audit(CLBS, DISTINCT, 2, (1, 1))

    def test_key_outside_a_rotation_open_language(self):
        # declared closed and passing the spot checks, but the class key
        # (1:1, 3:1) of the parking word (2:1, 1:1) is missing
        missing = colored_word([(1, 1), (3, 1)])
        liar = Language("liar", lambda w: DISTINCT.contains(w) and w != missing)
        with pytest.raises(LanguageClosureError, match="value rotation") as err:
            colored_orbit_audit(CLBS, liar, 2, (1,))
        assert err.value.witness == (colored_word([(2, 1), (1, 1)]), missing)

    def test_membership_calls(self):
        calls = []
        counting = Language("counting", lambda w: calls.append(w) or DISTINCT.contains(w))
        assert colored_orbit_audit(CLBS, counting, 4, (1, 2)).all_one
        # listing and filtering all 10^4 words, then checking closures on
        # the 5,040 in the language, asked 35,200 times
        assert len(calls) <= 35_200 // 2


def color_parity_rule() -> Procedure:
    """Goes right iff value + color is even: not shift invariant."""
    return Procedure(
        "color-parity",
        decide=lambda st, occ, blk, a: (
            Direction.RIGHT if (a.value + a.color) % 2 == 0 else Direction.LEFT
        ),
        is_locally_decided=True,
    )


def colored_far_rule() -> Procedure:
    """Goes right iff fewer occupied spots lie right of the value than
    left of it, the color breaking ties: it reads the whole occupied set,
    so it is not locally decided."""

    def decide(st, occ, blk, a):
        above = sum(s > a.value for s in occ)
        below = sum(s < a.value for s in occ)
        return Direction.RIGHT if (above, a.color % 2) < (below, 1) else Direction.LEFT

    return Procedure("colored-far", decide=decide, is_shift_invariant=True)


GRID = [(r, (1,)) for r in range(1, 5)] + [(r, (1, 2)) for r in range(1, 5)] + [
    (r, (1, 2, 3)) for r in range(1, 4)
]


class TestAgainstTheFullListing:
    @pytest.mark.parametrize("rule", [colored_lbs_procedure, color_parity_rule, colored_far_rule])
    @pytest.mark.parametrize("r, colors", GRID)
    def test_equal_reports(self, rule, r, colors):
        p = rule()
        assert colored_orbit_audit(p, DISTINCT, r, colors) == reference_colored_audit(
            p, DISTINCT, r, colors
        )

    @pytest.mark.parametrize(
        "rule, histogram",
        [(color_parity_rule, {0: 10, 1: 64, 2: 10}), (colored_far_rule, {0: 8, 1: 76})],
    )
    def test_the_grid_reaches_violations(self, rule, histogram):
        report = colored_orbit_audit(rule(), DISTINCT, 3, (1, 2))
        assert report.histogram == histogram
        assert len(report.violations) == sum(v for k, v in histogram.items() if k != 1)


def test_is_parking_colored():
    assert is_parking_colored(CLBS, [(2, 1), (1, 2)])
    assert not is_parking_colored(CLBS, [(2, 1), (3, 2)])


class TestColoredMeasure:
    def test_measure_is_the_point_mass_on_the_run(self):
        from parkline.probabilistic import measure, path_distribution

        word = colored_word([(1, "a"), (1, "b")])
        assert measure(CLBS, word).probs == {frozenset({1, 2}): 1}
        letters = [ColoredLetter(v, c) for v in (1, 2, 3) for c in (1, 2)]
        for n in range(1, 4):
            for word in itertools.product(letters, repeat=n):
                if not DISTINCT.contains(word):
                    continue
                res = colored_run(CLBS, word)
                assert measure(CLBS, word).probs == {res.spots: 1}, word
                assert path_distribution(CLBS, word) == {res.parked: 1}, word

    def test_measure_refuses_words_outside_the_language(self):
        from parkline.probabilistic import measure

        with pytest.raises(UndefinedRuleError, match="outside language"):
            measure(CLBS, colored_word([(1, "a"), (1, "a")]))
