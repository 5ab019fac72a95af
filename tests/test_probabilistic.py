import itertools
import logging
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import abelian_by_orderings, history_parity_rule, state_parity_rule
from goldens import engine_rules, outcome
from parkline.probabilistic import (
    INFINITY,
    _abelian_search,
    abelian_uniqueness_check,
    is_abelian,
    kw_procedure,
    kw_sequence_procedure,
    measure,
    orbit_parking_mass,
    parking_probability,
    parse_prob_spec,
    parse_q,
    pq_procedure,
    pq_right_prob,
    q_integer,
    right_prob_table,
    total_parking_mass,
)
from parkline.enumeration import StrictTableError, count_parking
from parkline.procedures import (
    Direction,
    DirTable,
    Procedure,
    builtin,
    decision_table,
    dir_of,
    index_rule_procedure,
    run,
    table_procedure,
)

HALF = F(1, 2)


def probs_of(m):
    return {tuple(sorted(s)): v for s, v in m.probs.items()}


class TestMeasure:
    def test_empty_word(self):
        m = measure(kw_procedure(HALF), ())
        assert probs_of(m) == {(): F(1)}

    def test_kw_single_branch(self):
        for q in (F(0), F(1, 3), HALF, F(1)):
            m = measure(kw_procedure(q), (1, 1))
            expected = {}
            if q < 1:
                expected[(0, 1)] = 1 - q
            if q > 0:
                expected[(1, 2)] = q
            assert probs_of(m) == expected

    def test_free_spot_is_deterministic(self):
        assert probs_of(measure(pq_procedure(F(2)), (1,))) == {(1,): F(1)}

    @pytest.mark.parametrize(
        "pp",
        [kw_procedure(F(1, 3)), pq_procedure(F(2)), pq_procedure(INFINITY),
         kw_sequence_procedure([HALF, F(1, 3), F(2, 5), F(1)])],
        ids=lambda pp: pp.name,
    )
    @given(word=st.lists(st.integers(1, 4), max_size=4).map(tuple))
    @settings(max_examples=40, deadline=None)
    def test_total_mass_is_one(self, pp, word):
        assert measure(pp, word).total() == 1

    @pytest.mark.parametrize("name", ["right", "closest", "prime", "lbs", "far"])
    @given(word=st.lists(st.integers(1, 4), max_size=4).map(tuple))
    @settings(max_examples=30, deadline=None)
    def test_deterministic_embedding_is_point_mass(self, name, word):
        p = builtin(name)
        m = measure(p, word)
        assert m.probs == {run(p, word).spots: F(1)}
        assert all(type(v) is F for v in m.probs.values())

    @pytest.mark.parametrize("answer", ["L", None])
    def test_embedding_refuses_a_non_direction(self, answer):
        p = Procedure("bad", decide=lambda *_: answer)
        with pytest.raises(ValueError, match=f"bad: decide returned {answer!r}"):
            measure(p, (1, 1))

    @pytest.mark.parametrize("answer", [0.5, 1.0, 0.0, True, False])
    def test_inexact_probabilities_are_refused(self, answer):
        p = Procedure("inexact", decide=lambda *_: answer)
        with pytest.raises(ValueError, match=f"inexact: decide returned {answer!r}"):
            measure(p, (1, 1))
        with pytest.raises(ValueError, match=f"inexact: decide returned {answer!r}"):
            parking_probability(p, (1, 1, 2))
        with pytest.raises(ValueError, match=f"inexact: decide returned {answer!r}"):
            total_parking_mass(p, 2)

    @pytest.mark.parametrize("answer", [0, 1, F(0), F(1), F(1, 3)])
    def test_exact_probabilities_keep_fraction_results(self, answer):
        m = measure(Procedure("exact", decide=lambda *_: answer), (1, 1))
        assert m.total() == 1
        assert all(type(v) is F for v in m.probs.values())


class TestParkingProbability:
    def test_permutation_parks_surely(self):
        assert parking_probability(pq_procedure(F(1)), (2, 1, 3)) == 1

    def test_kw_11(self):
        assert parking_probability(kw_procedure(HALF), (1, 1)) == HALF

    def test_pq_11_is_one_over_one_plus_q(self):
        for q in (F(0), F(1), F(2), F(7, 3)):
            assert parking_probability(pq_procedure(q), (1, 1)) == 1 / (1 + q)
        assert parking_probability(pq_procedure(INFINITY), (1, 1)) == 0


class TestTotalMass:
    def test_kw_half_r2(self):
        assert total_parking_mass(kw_procedure(HALF), 2) == 3

    def test_pq_one_r3(self):
        assert total_parking_mass(pq_procedure(F(1)), 3) == 16

    def test_trivial_r1(self):
        assert total_parking_mass(kw_procedure(F(2, 7)), 1) == 1

    @pytest.mark.parametrize("q", [F(0), F(1, 3), HALF, F(1)])
    def test_kw_universal_r_le_4(self, q):
        for r in range(1, 5):
            assert total_parking_mass(kw_procedure(q), r) == (r + 1) ** (r - 1)

    @pytest.mark.parametrize("q", [F(0), HALF, F(1), F(2), INFINITY])
    def test_pq_universal_r_le_4(self, q):
        for r in range(1, 5):
            assert total_parking_mass(pq_procedure(q), r) == (r + 1) ** (r - 1)

    def test_kw_sequence_universal(self):
        pp = kw_sequence_procedure([F(1, 3), F(3, 4), HALF, F(1)])
        for r in range(1, 5):
            assert total_parking_mass(pp, r) == (r + 1) ** (r - 1)

    def test_orbit_mass_is_one(self):
        for pp in (pq_procedure(F(2)), kw_procedure(F(1, 3))):
            for r in range(1, 5):
                masses = orbit_parking_mass(pp, r)
                assert len(masses) == (r + 1) ** (r - 1)
                assert all(v == 1 for v in masses.values())

    def test_orbit_mass_is_one_r5(self):
        masses = orbit_parking_mass(kw_procedure(HALF), 5)
        assert len(masses) == 6**4
        assert all(v == 1 for v in masses.values())

    def test_cap(self):
        from parkline.enumeration import CapExceededError

        with pytest.raises(CapExceededError, match="walk over 30 spots"):
            total_parking_mass(kw_sequence_procedure([HALF]), 30)
        with pytest.raises(CapExceededError, match="interval DP over 57 spots"):
            total_parking_mass(kw_procedure(HALF), 57)

    def test_r_below_one(self):
        for mass in (total_parking_mass, orbit_parking_mass):
            with pytest.raises(ValueError, match="r must be >= 1, got 0"):
                mass(kw_procedure(HALF), 0)


WALKED = [pq_procedure(q) for q in (F(0), HALF, F(1), F(2), INFINITY)]
WALKED += [kw_procedure(F(1, 3)), kw_procedure(F(1))]
WALKED += [kw_sequence_procedure([F(1, 3), F(3, 4), HALF, F(1, 5)])]


class TestMassWalk:
    """total_parking_mass's walk over occupied sets against the per-word
    sum of parking probabilities."""

    @pytest.mark.parametrize("pp", WALKED, ids=lambda pp: pp.name)
    def test_walk_equals_per_word_mass(self, pp):
        for r in range(1, 5):
            per_word = sum(
                (parking_probability(pp, w) for w in itertools.product(range(1, r + 2), repeat=r)),
                F(0),
            )
            walked = total_parking_mass(pp, r)
            assert type(walked) is F
            assert walked == per_word, (pp.name, r)

    def test_lbs_walk_equals_per_word_mass(self):
        pp = builtin("lbs")
        for r in range(1, 5):
            words = itertools.product(range(1, r + 2), repeat=r)
            per_word = sum((parking_probability(pp, w) for w in words), F(0))
            assert total_parking_mass(pp, r) == per_word == (r + 1) ** (r - 1), r

    def test_embedded_deterministic_rule_matches_count(self):
        from parkline.enumeration import count_parking

        for name in ("closest", "far"):
            for r in range(1, 5):
                mass = total_parking_mass(builtin(name), r)
                assert type(mass) is F
                assert mass == count_parking(builtin(name), r)

    def test_which_masses_walk(self, monkeypatch):
        import parkline.enumeration as enumeration
        from conftest import alternating_rule, history_parity_rule, state_parity_rule

        walks, dps = [], []
        real, real_dp = enumeration.walk_occupied, enumeration.interval_weight
        monkeypatch.setattr(
            enumeration,
            "walk_occupied",
            lambda target, *args, **kw: walks.append(len(target)) or real(target, *args, **kw),
        )
        monkeypatch.setattr(
            enumeration,
            "interval_weight",
            lambda pp, target, *args: dps.append(len(target)) or real_dp(pp, target, *args),
        )
        # memoryless, locally decided rules take the interval DP, and so
        # does lbs, whose state is a block record
        for pp in (kw_procedure(HALF), pq_procedure(F(2)), builtin("closest"), builtin("lbs")):
            assert total_parking_mass(pp, 3) == 16
        assert dps == [3, 3, 3, 3] and walks == []
        dps.clear()
        # the rest walk: kwseq and far are not locally decided
        for pp in (kw_sequence_procedure([HALF, F(1, 3), F(1, 5)]), builtin("far")):
            walks.clear()
            words = itertools.product(range(1, 5), repeat=3)
            per_word = sum((parking_probability(pp, w) for w in words), F(0))
            assert total_parking_mass(pp, 3) == per_word
            assert walks == [3]
        # other rules with an `update` walk (occupied set, state) pairs
        for pp in (alternating_rule(), state_parity_rule()):
            for r in range(1, 4):
                words = itertools.product(range(1, r + 2), repeat=r)
                per_word = sum((parking_probability(pp, w) for w in words), F(0))
                walks.clear()
                assert total_parking_mass(pp, r) == per_word, (pp.name, r)
                assert walks == [r]
        # a rule whose state is its history walks too
        history = history_parity_rule()
        walks.clear()
        for r, count in enumerate([1, 4, 14, 126], start=1):
            words = itertools.product(range(1, r + 2), repeat=r)
            per_word = sum((parking_probability(history, w) for w in words), F(0))
            assert total_parking_mass(history, r) == per_word == count
        assert walks == [1, 2, 3, 4] and dps == []
        state = state_parity_rule()
        assert [total_parking_mass(state, r) for r in range(1, 5)] == [1, 4, 14, 126]

    def test_history_mass_grows_parking_prefixes(self, monkeypatch):
        import parkline.probabilistic as probabilistic
        from conftest import history_parity_rule
        from parkline.enumeration import CapExceededError

        def refuse(*args, **kw):
            raise AssertionError("not on this path")

        # a rule whose state is its history walks (occupied set, history)
        # pairs of parking prefixes, not word by word over {1..r+1}^r. Its
        # pairs are its prefixes, so the walk counts the steps of each level
        # as the level grows, and refuses before one passes the budget.
        monkeypatch.setattr(probabilistic, "parking_probability", refuse)
        monkeypatch.setattr(probabilistic, "grow_runs", refuse)
        history = history_parity_rule()
        assert total_parking_mass(history, 5) == 1164
        assert total_parking_mass(history, 6) == 16954
        with pytest.raises(CapExceededError, match="walk over 9 spots: 10,000,008 car steps"):
            total_parking_mass(history, 9)

    def test_engine_paths_build_no_measure(self, monkeypatch):
        import parkline.probabilistic as probabilistic

        def refuse(*args, **kw):
            raise AssertionError("not on this path")

        # orbit masses and abelian checks read their measures off the
        # nodes of one growth, not one `measure` per word
        monkeypatch.setattr(probabilistic, "measure", refuse)
        monkeypatch.setattr(probabilistic, "parking_probability", refuse)
        assert is_abelian(pq_procedure(F(2)), 4).abelian
        assert is_abelian(kw_procedure(HALF), 4).witness == ((1, 1, 2), (1, 2, 1))
        assert set(orbit_parking_mass(pq_procedure(F(3)), 4).values()) == {1}
        assert total_parking_mass(history_parity_rule(), 4) == 126

    def test_probability_check_holds_on_the_walk(self):
        bad = Procedure("bad", decide=lambda st, occ, blk, a: F(3, 2))
        with pytest.raises(ValueError, match="outside"):
            total_parking_mass(bad, 2)


class TestQIntegers:
    def test_q1_collapses(self):
        assert q_integer(3, F(1)) == 3

    def test_q2(self):
        assert q_integer(3, F(2)) == 7

    def test_j_below_one(self):
        with pytest.raises(ValueError):
            q_integer(0, F(1))

    def test_ratio_at_infinity(self):
        assert pq_right_prob(3, 2, INFINITY) == 0

    def test_pq_prob_values(self):
        assert pq_right_prob(3, 2, F(1)) == F(2, 4)
        assert pq_right_prob(2, 1, F(2)) == F(1, 7)

    def test_parse_q(self):
        assert parse_q("1/2") == HALF
        assert parse_q("inf") is INFINITY
        with pytest.raises(ValueError):
            parse_q("-1")
        for text in ("1/0", " 3/0 "):
            with pytest.raises(ValueError, match="zero denominator"):
                parse_q(text)


class TestPqDegenerate:
    def test_q0_is_right(self):
        table = right_prob_table(pq_procedure(F(0)), 4)
        assert all(v == 1 for v in table.values())

    def test_qinf_is_left(self):
        table = right_prob_table(pq_procedure(INFINITY), 4)
        assert all(v == 0 for v in table.values())

    def test_q1_is_uniform(self):
        table = right_prob_table(pq_procedure(F(1)), 4)
        assert all(table[(r, i)] == F(i, r + 1) for r, i in table)

    def test_deterministic_table(self):
        table = right_prob_table(builtin("closest"), 4)
        assert table == {
            (r, i): F(1) if r + 1 - i <= i else F(0) for r, i in table
        }
        assert all(type(v) is F for v in table.values())

    def test_degenerate_rules_run_as_directions(self):
        right, left = builtin("right"), builtin("left")
        q0, qinf = pq_procedure(F(0)), pq_procedure(INFINITY)
        for n in range(5):
            for word in itertools.product(range(1, 5), repeat=n):
                assert run(q0, word) == run(right, word)
                assert run(qinf, word) == run(left, word)

    def test_degenerate_rule_counts(self):
        from parkline.enumeration import count_parking

        for r in range(1, 6):
            count = count_parking(pq_procedure(F(0)), r)
            assert type(count) is int and count == (r + 1) ** (r - 1)

    def test_a_branching_rule_refuses_to_run(self):
        from parkline.enumeration import count_parking, orbit_audit

        with pytest.raises(ValueError, match="kw:q=1/2: a decision branches"):
            run(kw_procedure(HALF), (1, 1))
        with pytest.raises(ValueError, match="kw:q=1/2 branches"):
            count_parking(kw_procedure(HALF), 2)
        with pytest.raises(ValueError, match="kw:q=1/2: a decision branches"):
            orbit_audit(kw_procedure(HALF), 2)
        with pytest.raises(ValueError, match="kw:q=1/2: a decision branches"):
            dir_of(kw_procedure(HALF), 2, 1)


ABELIAN_RULES = [pq_procedure(q) for q in (F(0), HALF, F(1), F(2), INFINITY)]
ABELIAN_RULES += [kw_procedure(F(1, 3)), kw_procedure(HALF)]
ABELIAN_RULES += [kw_sequence_procedure([F(1, 3), F(3, 4), HALF, F(1, 5)])]
ABELIAN_RULES += [builtin(name) for name in ("right", "lbs", "far", "evenodd")]
ABELIAN_RULES += [builtin("naples", k=2), state_parity_rule(), history_parity_rule()]


class TestAbelian:
    @pytest.mark.parametrize("q", [F(1), F(2)])
    def test_pq_is_abelian(self, q):
        assert is_abelian(pq_procedure(q), 3).abelian

    def test_deterministic_right_is_abelian(self):
        assert is_abelian(builtin("right"), 3).abelian

    def test_kw_half_is_not(self):
        report = is_abelian(kw_procedure(HALF), 3)
        assert not report.abelian
        w1, w2 = report.witness
        assert sorted(w1) == sorted(w2)
        assert measure(kw_procedure(HALF), w1) != measure(kw_procedure(HALF), w2)

    @pytest.mark.parametrize("pp", ABELIAN_RULES, ids=lambda pp: pp.name)
    def test_verdict_and_witness_equal_per_ordering_measures(self, pp):
        for r_max in range(1, 5):
            report = is_abelian(pp, r_max)
            assert (report.abelian, report.witness) == abelian_by_orderings(pp, r_max), r_max
            assert report.procedure == pp.name and report.r_max == r_max

    def test_r_max_below_one(self):
        with pytest.raises(ValueError, match="r must be >= 1, got 0"):
            is_abelian(pq_procedure(F(2)), 0)

    def test_budget_refuses_r_max_7_before_any_decision(self):
        from parkline.enumeration import CapExceededError

        decisions = []
        pp = Procedure("counted", decide=lambda *args: decisions.append(args) or HALF)
        with pytest.raises(CapExceededError, match="15,427,550 car steps"):
            is_abelian(pp, 7)
        assert decisions == []
        # 747,486 car steps fit
        assert is_abelian(builtin("right"), 6).abelian

    def test_pq_measures_depend_only_on_multiset(self):
        pp = pq_procedure(F(2))
        for multiset in itertools.combinations_with_replacement(range(1, 5), 4):
            ms = {measure(pp, w).probs == measure(pp, multiset).probs
                  for w in set(itertools.permutations(multiset))}
            assert ms == {True}


# the rules whose abelian checks engines.jsonl pins, and two more
PROOF_RULES = {**engine_rules(), "pq:q=3": pq_procedure(F(3)), "kw:q=1/2": kw_procedure(HALF)}


def proof_records(caplog) -> list:
    return [record for record in caplog.records if hasattr(record, "proved")]


class TestAbelianProof:
    """`is_abelian` proves a rule abelian by commuting two cars on reachable
    pairs, and searches words only where the proof fails: every report and
    refusal equals the search's."""

    @pytest.mark.parametrize("pp", PROOF_RULES.values(), ids=PROOF_RULES)
    def test_reports_and_errors_equal_the_search(self, pp):
        for r_max in range(1, 6):
            searched = outcome(lambda: _abelian_search(pp, r_max, decision_table(pp)))
            assert outcome(lambda: is_abelian(pp, r_max)) == searched, r_max

    def test_a_witness_below_a_refused_car(self, caplog):
        # not abelian at length 3, and no direction for car 4
        rule = index_rule_procedure((Direction.RIGHT, Direction.RIGHT, Direction.LEFT))
        caplog.set_level(logging.DEBUG, logger="parkline")
        report = is_abelian(rule, 4)
        assert (report.abelian, report.witness) == abelian_by_orderings(rule, 3)
        assert report.witness == ((1, 1, 3), (1, 3, 1))
        assert report == _abelian_search(rule, 4, decision_table(rule))
        [proof] = proof_records(caplog)
        assert not proof.proved
        with pytest.raises(ValueError, match="no direction for car 4"):
            measure(rule, (1, 1, 1, 1))

    def test_a_step_that_raises_falls_back_to_the_search(self, caplog):
        # the right rule for three cars: its proof raises at car 4, and the
        # search raises the same error at length 4
        rule = index_rule_procedure((Direction.RIGHT,) * 3)
        assert is_abelian(rule, 3).abelian
        caplog.set_level(logging.DEBUG, logger="parkline")
        with pytest.raises(ValueError, match="^no direction for car 4$"):
            is_abelian(rule, 4)
        [proof] = proof_records(caplog)
        assert not proof.proved and len(proof.pairs) == 3
        # the search grew lengths 1 to 3, then raised at length 4
        assert len([record for record in caplog.records if hasattr(record, "nodes")]) == 3

    def test_a_proof_logs_one_record_and_grows_no_word(self, caplog):
        caplog.set_level(logging.DEBUG, logger="parkline")
        assert is_abelian(pq_procedure(F(2)), 4).abelian
        [proof] = proof_records(caplog)
        assert (proof.name, proof.levelno) == ("parkline", logging.DEBUG)
        assert proof.proved and proof.pair_steps == 190
        # each generation's pairs over the letters 1..5
        assert proof.pairs == [1, 5, 12, 20] and 5 * sum(proof.pairs) == 190
        assert proof.compared == 98
        assert proof.getMessage() == (
            "is_abelian: pq:q=2 up to length 4, 190 pair steps, pairs [1, 5, 12, 20], 98 compared, proved True"
        )
        assert not [record for record in caplog.records if record.getMessage().startswith("grow_runs")]

    def test_a_failed_proof_is_logged_before_the_search(self, caplog):
        caplog.set_level(logging.DEBUG, logger="parkline")
        report = is_abelian(kw_procedure(HALF), 4)
        assert report.witness == ((1, 1, 2), (1, 2, 1))
        path, proof, *grown = caplog.records
        assert proof_records(caplog) == [proof] and not proof.proved
        # the proof stops at its first failing comparison, once the
        # generation after it is stepped
        assert proof.compared >= 1 and len(proof.pairs) < 4
        assert [len(record.pairs) for record in grown] == [1, 2, 3]
        assert all(record.getMessage().startswith("grow_runs") for record in grown)


class TestUniqueness:
    def test_pq_tables_pass(self):
        for q in (F(0), F(1), F(3)):
            report = abelian_uniqueness_check(right_prob_table(pq_procedure(q), 5), 5)
            assert report.passed and report.matches_pq
            assert report.q == q

    def test_constant_half_fails_at_2_1(self):
        table = {(1, 1): HALF, (2, 1): HALF, (2, 2): HALF}
        report = abelian_uniqueness_check(table, 2)
        assert not report.passed
        assert (report.failure.equation, report.failure.r, report.failure.i) == ("ratio", 2, 1)
        assert report.failure.rhs == F(1, 4)
        assert not report.matches_pq

    def test_all_ones_pass(self):
        table = {(r, i): F(1) for r in range(1, 6) for i in range(1, r + 1)}
        report = abelian_uniqueness_check(table, 5)
        assert report.passed and report.matches_pq and report.q == 0

    def test_infinite_q_from_zero(self):
        table = {(r, i): F(0) for r in range(1, 5) for i in range(1, r + 1)}
        report = abelian_uniqueness_check(table, 4)
        assert report.passed and report.matches_pq and report.q is INFINITY

    @pytest.mark.parametrize("r_max", [0, -1])
    def test_r_max_below_one_refused(self, r_max):
        # an empty table checks nothing, and a real one must not pass vacuously
        message = re.escape(f"r_max must be >= 1, got {r_max}")
        with pytest.raises(ValueError, match=message):
            right_prob_table(pq_procedure(F(2)), r_max)
        with pytest.raises(ValueError, match=message):
            abelian_uniqueness_check({}, r_max)
        with pytest.raises(ValueError, match=message):
            abelian_uniqueness_check(right_prob_table(pq_procedure(F(2)), 3), r_max)

    def test_table_short_of_r_max_refused(self):
        # not a bare KeyError: the first (r, i) missing, in (r, i) order, is named
        with pytest.raises(ValueError, match=re.escape("the table has no p(4, 1), needed up to r_max=5")):
            abelian_uniqueness_check(right_prob_table(pq_procedure(F(2)), 3), 5)
        table = right_prob_table(pq_procedure(F(2)), 3)
        del table[(2, 2)]
        with pytest.raises(ValueError, match=re.escape("no p(2, 2), needed up to r_max=3")):
            abelian_uniqueness_check(table, 3)

    def test_recurrence_failure_detected(self):
        table = right_prob_table(pq_procedure(F(1)), 3)
        table[(3, 3)] = F(9, 10)
        report = abelian_uniqueness_check(table, 3)
        assert not report.passed
        assert report.failure.equation in ("ratio", "recurrence")
        assert report.failure.r == 3


class TestParseSpec:
    def test_kw(self):
        assert parse_prob_spec("kw:q=1/2").name == "kw:q=1/2"

    def test_pq_inf(self):
        pp = parse_prob_spec("pq:q=inf")
        assert parking_probability(pp, (1, 1)) == 0

    def test_kwseq(self):
        pp = parse_prob_spec("kwseq:qs=1/2+1/3")
        assert parking_probability(pp, (1, 1)) == F(1, 3)

    def test_deterministic_fallback(self):
        pp = parse_prob_spec("lbs")
        assert probs_of(measure(pp, (1, 2, 1))) == {(0, 1, 2): F(1)}
        # returned as it is: the deterministic run engine takes it
        assert pp.name == "lbs" and pp.update is not None
        assert run(pp, (1, 2, 1)).spots == {0, 1, 2}

    @pytest.mark.parametrize(
        "spec,message",
        [
            ("kw", "requires parameter 'q'"),
            ("pq:z=2", "takes no parameter 'z'"),
            ("kwseq:q=1/2", "takes no parameter 'q'"),
            ("kw:q=1/2,q=1/3", "kw repeats parameter 'q'"),
            ("pq:q=2,q=2", "pq repeats parameter 'q'"),
            ("naples:k=2,k=3", "naples repeats parameter 'k'"),
        ],
    )
    def test_bad_parameters_name_the_parameter(self, spec, message):
        with pytest.raises(ValueError, match=message):
            parse_prob_spec(spec)

    @pytest.mark.parametrize("spec", ["pq:q=1/0", "kw:q=1/0", "kwseq:qs=1/2+1/0"])
    def test_zero_denominator_is_a_value_error(self, spec):
        with pytest.raises(ValueError, match=re.escape("q has a zero denominator, got '1/0'")):
            parse_prob_spec(spec)

    def test_validation(self):
        with pytest.raises(ValueError):
            kw_procedure(F(3, 2))
        with pytest.raises(ValueError):
            pq_procedure(F(-1))
        with pytest.raises(ValueError):
            kw_sequence_procedure([F(2)])
        # a coin is a probability; q=inf is a pq value only
        for make in (lambda: kw_procedure(INFINITY), lambda: kw_sequence_procedure([HALF, INFINITY])):
            with pytest.raises(ValueError, match=re.escape("q must be in [0,1], got inf")):
                make()

    FACTORIES = {
        "kw": kw_procedure,
        "kwseq": lambda q: kw_sequence_procedure([HALF, q]),
        "pq": pq_procedure,
    }

    @pytest.mark.parametrize("family", FACTORIES)
    @pytest.mark.parametrize("q", [0.1, 0.5, 1.0, True, False, None])
    def test_inexact_q_refused(self, family, q):
        # a float's binary value is not the q written, and a bool is no q
        with pytest.raises(ValueError, match=re.escape(f"got {q!r}")):
            self.FACTORIES[family](q)

    @pytest.mark.parametrize("family", FACTORIES)
    def test_zero_denominator_refused(self, family):
        with pytest.raises(ValueError, match=re.escape("q has a zero denominator, got '1/0'")):
            self.FACTORIES[family]("1/0")

    @pytest.mark.parametrize("family", FACTORIES)
    def test_exact_q_accepted(self, family):
        for q, name in ((1, "1"), (F(1, 10), "1/10"), ("0.1", "1/10"), (parse_q("1/2"), "1/2")):
            assert self.FACTORIES[family](q).name.endswith(name)


class TestStrictMass:
    def test_total_mass_refuses_lengths_beyond_the_table(self):
        table = DirTable(((Direction.RIGHT,), (Direction.LEFT, Direction.RIGHT)))
        p = table_procedure(table, strict=True)
        assert total_parking_mass(p, 2) == 3
        # the same refusal as counting the parking words
        for query in (total_parking_mass, count_parking):
            with pytest.raises(StrictTableError, match="r_max=2; refusing r=3"):
                query(p, 3)
