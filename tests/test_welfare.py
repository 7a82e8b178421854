import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsc import (
    AlternativeSet,
    ClassicalProfile,
    InvalidArgument,
    ProfileState,
    QcvParams,
    Ranking,
    RankingSpace,
    basis_state,
    default_profile_sampler,
    dictator_rule,
    encoded_pairs_all,
    encoded_pairs_any,
    enforce_unanimity,
    minority_spread,
    mixed_state,
    pair_projector,
    pure_state,
    qcv,
    qcv_basis,
    support_probability,
    veto_rule,
)

from oracles import oracle_sigma3

ROOT2 = 2 ** -0.5


def rk(alts, text):
    return Ranking.from_string(alts, text)


def diag_by_label(space, state):
    return {
        r.to_string(): float(w)
        for r, w in zip(space.rankings(), state.diagonal)
    }


class TestEncodedPairs:
    def test_cycle_profile(self, alts3, cycle_profile):
        profile = ProfileState.basis(cycle_profile)
        assert encoded_pairs_any(profile) == frozenset(alts3.ordered_pairs())
        assert encoded_pairs_all(profile) == frozenset()

    def test_unanimous(self, unanimous_profile):
        profile = ProfileState.basis(unanimous_profile)
        expected = frozenset({("a", "b"), ("a", "c"), ("b", "c")})
        assert encoded_pairs_any(profile) == expected
        assert encoded_pairs_all(profile) == expected

    def test_two_voter(self, two_voter_profile):
        profile = ProfileState.basis(two_voter_profile)
        assert encoded_pairs_any(profile) == frozenset(
            {("a", "b"), ("a", "c"), ("b", "c"), ("c", "b")}
        )
        assert encoded_pairs_all(profile) == frozenset({("a", "b"), ("a", "c")})

    def test_any_contains_all(self, alts3, space3):
        rng = random.Random(7)
        sampler = default_profile_sampler(space3, 3)
        for _ in range(25):
            profile = sampler(rng)
            assert encoded_pairs_any(profile) >= encoded_pairs_all(profile)


class TestMinoritySpread:
    def test_frozen_point_mass_expansion(self, alts3, space3):
        # Hand-expanded: (1-3d)|abc> + d(Omega_ab + Omega_ac + Omega_bc), d = 0.05.
        sigma1 = basis_state(space3, rk(alts3, "a>b>c"))
        pairs = (("a", "b"), ("a", "c"), ("b", "c"))
        spread = minority_spread(sigma1, pairs, 0.05)
        assert diag_by_label(space3, spread) == pytest.approx(
            {
                "a>b>c": 0.90,
                "a>c>b": 1 / 30,
                "b>a>c": 1 / 30,
                "b>c>a": 1 / 60,
                "c>a>b": 1 / 60,
                "c>b>a": 0.0,
            }
        )

    def test_no_pairs_is_identity(self, alts3, space3):
        sigma1 = basis_state(space3, rk(alts3, "a>b>c"))
        assert np.allclose(minority_spread(sigma1, (), 0.05).matrix, sigma1.matrix)

    @given(seed=st.integers(0, 5000))
    @settings(max_examples=25, deadline=None)
    def test_unit_trace(self, seed):
        rng = random.Random(seed)
        alts = AlternativeSet(("a", "b", "c"))
        space = RankingSpace(alts)
        raw = np.array([rng.random() for _ in range(6)])
        sigma1 = mixed_state(space, list(zip(raw, space.rankings())))
        pair_pool = alts.ordered_pairs()
        pairs = tuple(
            pair_pool[i] for i in sorted(rng.sample(range(len(pair_pool)), rng.randint(0, 6)))
        )
        spread = minority_spread(sigma1, pairs, 0.05)
        assert float(np.real(np.trace(spread.matrix))) == pytest.approx(1.0)

    def test_excessive_spread_rejected(self, alts3, space3):
        sigma1 = basis_state(space3, rk(alts3, "a>b>c"))
        with pytest.raises(InvalidArgument):
            minority_spread(sigma1, tuple(alts3.ordered_pairs()), 0.2)  # 6 * 0.2 > 1


class TestEnforceUnanimity:
    def test_no_pairs_is_identity(self, alts3, space3):
        state = basis_state(space3, rk(alts3, "a>b>c"))
        assert np.allclose(enforce_unanimity(state, ()).matrix, state.matrix)

    def test_unanimous_pairs_collapse_to_point(self, alts3, space3, unanimous_profile):
        stages = qcv_basis(ClassicalProfile(unanimous_profile), QcvParams(0.05))
        projected = enforce_unanimity(stages.sigma2, (("a", "b"), ("a", "c"), ("b", "c")))
        assert diag_by_label(space3, projected)["a>b>c"] == pytest.approx(1.0)

    def test_two_voter_confined(self, alts3, space3, two_voter_profile):
        stages = qcv_basis(ClassicalProfile(two_voter_profile), QcvParams(0.05))
        confined = enforce_unanimity(stages.sigma2, (("a", "b"), ("a", "c")))
        weights = diag_by_label(space3, confined)
        assert weights["a>b>c"] + weights["a>c>b"] == pytest.approx(1.0)


class TestQcvBasisExamples:
    @pytest.mark.parametrize("delta", [0.02, 0.05, 0.1])
    def test_cycle_yields_uniform(self, alts3, cycle_profile, delta):
        stages = qcv_basis(ClassicalProfile(cycle_profile), QcvParams(delta))
        assert np.allclose(stages.sigma3.diagonal, 1 / 6, atol=1e-12)

    def test_unanimous_yields_point_mass(self, alts3, space3, unanimous_profile):
        stages = qcv_basis(ClassicalProfile(unanimous_profile), QcvParams(0.05))
        assert diag_by_label(space3, stages.sigma3)["a>b>c"] == pytest.approx(1.0)

    @pytest.mark.parametrize("delta", [0.02, 0.05, 0.1, 0.11])
    def test_two_voter_half_half(self, alts3, space3, two_voter_profile, delta):
        stages = qcv_basis(ClassicalProfile(two_voter_profile), QcvParams(delta))
        weights = diag_by_label(space3, stages.sigma3)
        assert weights["a>b>c"] == pytest.approx(0.5, abs=1e-12)
        assert weights["a>c>b"] == pytest.approx(0.5, abs=1e-12)

    def test_single_voter_point_mass(self, alts3, space3):
        stages = qcv_basis(ClassicalProfile((rk(alts3, "b>c>a"),)), QcvParams(0.05))
        assert diag_by_label(space3, stages.sigma3)["b>c>a"] == pytest.approx(1.0)

    def test_delta_bound_enforced(self, alts3, cycle_profile):
        with pytest.raises(InvalidArgument):
            qcv_basis(ClassicalProfile(cycle_profile), QcvParams(1 / 9))
        with pytest.raises(InvalidArgument):
            QcvParams(0.0)


class TestQcvAgainstExactOracle:
    # The spread bound is strict, so 1/16 is only admissible below m = 4.
    @pytest.mark.parametrize(
        "m, delta",
        [
            (3, Fraction(1, 16)),
            (3, Fraction(1, 20)),
            (4, Fraction(1, 20)),
        ],
    )
    def test_random_profiles(self, m, delta):
        labels = tuple("abcd")[:m]
        alts = AlternativeSet(labels)
        space = RankingSpace(alts)
        rankings = space.rankings()
        rng = random.Random(1000 * m + delta.denominator)
        for _ in range(12):
            n = rng.randint(1, 4)
            chosen = [rankings[rng.randrange(len(rankings))] for _ in range(n)]
            stages = qcv_basis(ClassicalProfile(tuple(chosen)), QcvParams(float(delta)))
            expected = oracle_sigma3(labels, [r.labels for r in chosen], delta)
            for r, got in zip(rankings, stages.sigma3.diagonal):
                assert float(got) == pytest.approx(float(expected[r.labels]), abs=1e-12)


class TestQcvGeneralProfiles:
    def test_basis_profile_matches_basis_rule(self, alts3, cycle_profile):
        params = QcvParams(0.05)
        via_general = qcv(ProfileState.basis(cycle_profile), params)
        via_basis = qcv_basis(ClassicalProfile(cycle_profile), params).sigma3
        assert np.allclose(via_general.matrix, via_basis.matrix, atol=1e-12)

    def test_correlated_mixture_is_convex(self, alts3, space3, cycle_profile, unanimous_profile):
        params = QcvParams(0.05)
        mixture = ProfileState.correlated(
            space3,
            [(0.5, cycle_profile), (0.5, unanimous_profile)],
        )
        got = qcv(mixture, params)
        lhs = qcv_basis(ClassicalProfile(cycle_profile), params).sigma3.diagonal
        rhs = qcv_basis(ClassicalProfile(unanimous_profile), params).sigma3.diagonal
        assert np.allclose(got.diagonal, 0.5 * lhs + 0.5 * rhs, atol=1e-12)

    def test_product_mixed_ballot_enumerates_support(self, alts3, space3):
        params = QcvParams(0.05)
        half = mixed_state(space3, [(0.5, rk(alts3, "a>b>c")), (0.5, rk(alts3, "b>a>c"))])
        point = basis_state(space3, rk(alts3, "a>b>c"))
        got = qcv(ProfileState.product_of([half, point]), params)
        one = qcv_basis(
            ClassicalProfile((rk(alts3, "a>b>c"), rk(alts3, "a>b>c"))), params
        ).sigma3.diagonal
        two = qcv_basis(
            ClassicalProfile((rk(alts3, "b>a>c"), rk(alts3, "a>b>c"))), params
        ).sigma3.diagonal
        assert np.allclose(got.diagonal, 0.5 * one + 0.5 * two, atol=1e-12)

    def test_output_is_diagonal_unit_trace(self, space3):
        params = QcvParams(0.05)
        rng = random.Random(11)
        sampler = default_profile_sampler(space3, 3)
        for _ in range(20):
            state = qcv(sampler(rng), params)
            off = state.matrix - np.diag(state.matrix.diagonal())
            assert float(np.abs(off).max()) == 0.0
            assert float(np.real(np.trace(state.matrix))) == pytest.approx(1.0)

    def test_minority_shot_and_unanimity_enforcement(self, space3):
        params = QcvParams(0.05)
        rng = random.Random(23)
        sampler = default_profile_sampler(space3, 3)
        for _ in range(40):
            profile = sampler(rng)
            society = qcv(profile, params)
            for pair in encoded_pairs_any(profile):
                assert support_probability(society, pair_projector(space3, *pair)) > 1e-9
            for pair in encoded_pairs_all(profile):
                assert support_probability(society, pair_projector(space3, *pair)) >= 1 - 1e-9

    def test_basis_cache_keys_on_eps(self, alts3, cycle_profile):
        from qsc.welfare import _qcv_basis_diagonal

        _qcv_basis_diagonal.cache_clear()
        profile = ProfileState.basis(cycle_profile)
        qcv(profile, QcvParams(0.05, eps=1e-9))
        qcv(profile, QcvParams(0.05, eps=1e-3))
        assert _qcv_basis_diagonal.cache_info().misses == 2

    def test_support_cap_surfaces_as_resource_limit(self, alts3, space3):
        from qsc import ResourceLimit

        uniform = mixed_state(space3, [(1.0, r) for r in space3.rankings()])
        profile = ProfileState.product_of([uniform] * 3)
        with pytest.raises(ResourceLimit):
            qcv(profile, QcvParams(0.05, support_cap=100))

    @given(seed=st.integers(0, 5000))
    @settings(max_examples=20, deadline=None)
    def test_relabelling_equivariance(self, seed):
        rng = random.Random(seed)
        alts = AlternativeSet(("a", "b", "c"))
        space = RankingSpace(alts)
        rankings = space.rankings()
        params = QcvParams(0.05)
        n = rng.randint(1, 3)
        chosen = tuple(rankings[rng.randrange(6)] for _ in range(n))
        perm = list(range(3))
        rng.shuffle(perm)
        base = qcv(ProfileState.basis(chosen), params)
        permuted = qcv(
            ProfileState.basis(tuple(r.relabelled(perm) for r in chosen)), params
        )
        base_w = {r.labels: w for r, w in zip(rankings, base.diagonal)}
        perm_w = {r.labels: w for r, w in zip(rankings, permuted.diagonal)}
        relabel = {alts.names[i]: alts.names[perm[i]] for i in range(3)}
        for labels, w in base_w.items():
            mapped = tuple(relabel[x] for x in labels)
            assert perm_w[mapped] == pytest.approx(float(w), abs=1e-12)


class TestBaselineRules:
    def test_dictator_returns_first_ballot(self, split_top_profile):
        result = dictator_rule(1).evaluate(split_top_profile)
        assert np.allclose(result.matrix, split_top_profile.factors[0].matrix)

    def test_dictator_second_voter(self, xyz, xyz_space, split_top_profile):
        result = dictator_rule(2).evaluate(split_top_profile)
        index = xyz_space.basis_index(rk(xyz, "z>x>y"))
        assert result.diagonal[index] == pytest.approx(1.0)

    def test_dictator_on_correlated_profile(self, alts3, space3):
        profile = ProfileState.correlated(
            space3,
            [(0.5, (rk(alts3, "a>b>c"),) * 2), (0.5, (rk(alts3, "c>b>a"),) * 2)],
        )
        result = dictator_rule(2).evaluate(profile)
        assert result.diagonal[0] == pytest.approx(0.5)

    def test_veto_pinned_by_first_voter(self, alts3, space3):
        pet = rk(alts3, "a>b>c")
        rule = veto_rule(pet)
        profile = ProfileState.product_of(
            [basis_state(space3, pet), basis_state(space3, rk(alts3, "c>b>a"))]
        )
        result = rule.evaluate(profile)
        assert result.diagonal[0] == pytest.approx(1.0)

    def test_veto_falls_back_to_second_voter(self, alts3, space3):
        rule = veto_rule(rk(alts3, "a>b>c"))
        superposed = pure_state(
            space3, [(ROOT2, rk(alts3, "a>b>c")), (ROOT2, rk(alts3, "a>c>b"))]
        )
        second = basis_state(space3, rk(alts3, "b>a>c"))
        result = rule.evaluate(ProfileState.product_of([superposed, second]))
        assert np.allclose(result.matrix, second.matrix)

    def test_veto_needs_two_voters(self, alts3, space3):
        rule = veto_rule(rk(alts3, "a>b>c"))
        with pytest.raises(InvalidArgument):
            rule.evaluate(ProfileState.product_of([basis_state(space3, rk(alts3, "b>a>c"))]))
