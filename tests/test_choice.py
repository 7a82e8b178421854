import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsc import (
    DEFAULT_EPS,
    AlternativeSet,
    ChoiceRule,
    DensityOperator,
    InvalidArgument,
    ProfileState,
    QcvParams,
    Ranking,
    RankingSpace,
    axioms,
    basis_state,
    compose,
    dictator_rule,
    mixed_state,
    natural_extension,
    qcv_rule,
    qcvne,
    qcvne_rule,
    support_probability,
    winner_projector,
)

ROOT2 = 2 ** -0.5


def rk(alts, text):
    return Ranking.from_string(alts, text)


class TestNaturalExtension:
    def test_split_ballot(self, xyz, xyz_space, split_top_profile):
        result = natural_extension(split_top_profile.factors[0])
        assert result.as_dict() == pytest.approx({"x": 0.5, "y": 0.5, "z": 0.0})

    def test_point_mass_reads_top(self, alts3, space3):
        result = natural_extension(basis_state(space3, rk(alts3, "a>b>c")))
        assert result.as_dict() == pytest.approx({"a": 1.0, "b": 0.0, "c": 0.0})

    def test_uniform_splits_evenly(self, alts3, space3):
        uniform = mixed_state(space3, [(1.0, r) for r in space3.rankings()])
        assert natural_extension(uniform).as_dict() == pytest.approx(
            {"a": 1 / 3, "b": 1 / 3, "c": 1 / 3}
        )

    @given(seed=st.integers(0, 5000), weight=st.floats(0.0, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_affine_and_normalized(self, seed, weight):
        rng = random.Random(seed)
        alts = AlternativeSet(("a", "b", "c"))
        space = RankingSpace(alts)

        def random_state():
            raw = np.array([rng.random() + 1e-3 for _ in range(6)])
            return mixed_state(space, list(zip(raw, space.rankings())))

        one, two = random_state(), random_state()
        blend = mixed_state(
            space,
            list(zip(weight * one.diagonal + (1 - weight) * two.diagonal, space.rankings())),
        )
        left = natural_extension(blend).as_dict()
        l1, l2 = natural_extension(one).as_dict(), natural_extension(two).as_dict()
        for name in alts.names:
            assert left[name] == pytest.approx(
                weight * l1[name] + (1 - weight) * l2[name], abs=1e-9
            )
        assert sum(left.values()) == pytest.approx(1.0, abs=1e-9)

    def test_matches_winner_support_exactly(self, alts3, space3):
        rng = random.Random(3)
        raw = np.array([rng.random() for _ in range(6)])
        state = mixed_state(space3, list(zip(raw, space3.rankings())))
        result = natural_extension(state)
        for a in alts3.names:
            assert result[a] == support_probability(state, winner_projector(space3, a))

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_same_bits_as_the_gathered_sum(self, m):
        # The axiom engine reads a choice rule on the winner rows of its welfare
        # output (``axioms._Targets.values``), not through natural_extension:
        # both must give the same bits at the same eps.
        space = RankingSpace(AlternativeSet(tuple("abcdef")[:m]))
        adapter = axioms._Targets(compose(dictator_rule(1)), space, DEFAULT_EPS)
        orders = np.array([r.order for r in space.rankings()])
        rng = np.random.default_rng(m)
        for _ in range(200):
            weights = rng.dirichlet(np.full(space.dim, 0.5))
            result = natural_extension(DensityOperator(space, weights), DEFAULT_EPS)
            for a, name in enumerate(space.alternatives.names):
                assert result[name] == weights[np.flatnonzero(orders[:, 0] == a)].sum()
            assert dict(zip(adapter.targets, adapter.values(weights))) == result.as_dict()

    def test_support_iff_topped_ranking_supported(self, alts3, space3):
        state = mixed_state(
            space3, [(0.7, rk(alts3, "b>a>c")), (0.3, rk(alts3, "b>c>a"))]
        )
        result = natural_extension(state)
        assert result["b"] > 1e-9
        assert result["a"] <= 1e-9 and result["c"] <= 1e-9


class TestCompose:
    def test_dictator_composition(self, split_top_profile):
        rule = compose(dictator_rule(1))
        result = rule.evaluate(split_top_profile)
        assert result.as_dict() == pytest.approx({"x": 0.5, "y": 0.5, "z": 0.0})
        assert rule.name == "natural-extension(dictator:1)"

    def test_composition_equals_qcvne(self, alts3, cycle_profile):
        params = QcvParams(0.05)
        profile = ProfileState.basis(cycle_profile)
        composed = compose(qcv_rule(params))
        assert composed.evaluate(profile).as_dict() == pytest.approx(
            qcvne(profile, params).as_dict()
        )

    def test_unanimous_profile_tops_out(self, alts3, unanimous_profile):
        rule = compose(dictator_rule(1))
        result = rule.evaluate(ProfileState.basis(unanimous_profile))
        assert result["a"] == pytest.approx(1.0)

    def test_a_choice_rule_must_extend_a_welfare_rule(self):
        rule = qcvne_rule(QcvParams.for_alternatives(3))
        with pytest.raises(InvalidArgument, match="^a choice rule extends a welfare rule, got the ChoiceRule 'qcvne'$"):
            compose(rule)
        with pytest.raises(InvalidArgument, match="^a choice rule extends a welfare rule, got the str 'qcv'$"):
            ChoiceRule("by-name", "qcv")


class TestQcvne:
    def test_unanimous(self, unanimous_profile):
        result = qcvne(ProfileState.basis(unanimous_profile), QcvParams(0.05))
        assert result.as_dict() == pytest.approx({"a": 1.0, "b": 0.0, "c": 0.0})

    def test_cycle_splits_evenly(self, cycle_profile):
        result = qcvne(ProfileState.basis(cycle_profile), QcvParams(0.05))
        assert result.as_dict() == pytest.approx({"a": 1 / 3, "b": 1 / 3, "c": 1 / 3})

    def test_two_voter_shared_top(self, two_voter_profile):
        result = qcvne(ProfileState.basis(two_voter_profile), QcvParams(0.05))
        assert result.as_dict() == pytest.approx({"a": 1.0, "b": 0.0, "c": 0.0})
