import dataclasses
import hashlib
import io
import json
import math
import random
import re
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsc import (
    AlternativeSet,
    InvalidArgument,
    ProfileState,
    QcvParams,
    ResourceLimit,
    Ranking,
    RankingSpace,
    basis_state,
    default_profile_sampler,
    dictator_rule,
    mixed_state,
    pair_projector,
    pure_state,
    qcv,
    qcv_basis,
    qcv_rule,
    qcvne,
    qcvne_rule,
    support_probability,
    veto_rule,
)

from qsc import cli, hilbert, welfare
from qsc.errors import ZeroMassProjection
from qsc.rankings import all_rankings, basis_table, ranking_index
from qsc.serde import parse_profile
from qsc.serde import serialize_density
from qsc.welfare import CERTAIN, EXCLUDED, UNDECIDED, WelfareRule, _qcv_rows

from controls import statuses_at
from oracles import oracle_sigma3
from stepwise import (
    ClassicalProfile,
    encoded_pairs_all,
    encoded_pairs_any,
    enforce_unanimity,
    minority_spread,
    per_basis_loop,
    read_status,
    read_statuses,
    stepwise_qcv,
)
from universe import signatures

ROOT2 = 2 ** -0.5


def rk(alts, text):
    return Ranking.from_string(alts, text)


def stages_of(rankings, params):
    """``qcv_basis`` on the basis profile of these rankings."""
    return qcv_basis(rankings[0].alternatives, [ranking_index(r) for r in rankings], params)


def kernel_rows(alternatives, idx, params):
    """The kernel's sigma3 rows for rows of basis indices, read through their signatures."""
    return _qcv_rows(alternatives, signatures(alternatives, idx), params)


def count_kernel_rows(monkeypatch):
    """Record the rows of every kernel call that ``qcv`` makes."""
    scored = []

    def counted(alternatives, signatures, params):
        scored.append(len(signatures))
        return _qcv_rows(alternatives, signatures, params)

    monkeypatch.setattr(welfare, "_qcv_rows", counted)
    return scored


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
        stages = stepwise_qcv(ClassicalProfile(unanimous_profile), QcvParams(0.05))
        projected = enforce_unanimity(stages.sigma2, (("a", "b"), ("a", "c"), ("b", "c")))
        assert diag_by_label(space3, projected)["a>b>c"] == pytest.approx(1.0)

    def test_two_voter_confined(self, alts3, space3, two_voter_profile):
        stages = stepwise_qcv(ClassicalProfile(two_voter_profile), QcvParams(0.05))
        confined = enforce_unanimity(stages.sigma2, (("a", "b"), ("a", "c")))
        weights = diag_by_label(space3, confined)
        assert weights["a>b>c"] + weights["a>c>b"] == pytest.approx(1.0)


class TestQcvBasisExamples:
    @pytest.mark.parametrize("delta", [0.02, 0.05, 0.1])
    def test_cycle_yields_uniform(self, alts3, cycle_profile, delta):
        stages = stages_of(cycle_profile, QcvParams(delta))
        assert np.allclose(stages.sigma3.diagonal, 1 / 6, atol=1e-12)

    def test_unanimous_yields_point_mass(self, alts3, space3, unanimous_profile):
        stages = stages_of(unanimous_profile, QcvParams(0.05))
        assert diag_by_label(space3, stages.sigma3)["a>b>c"] == pytest.approx(1.0)

    @pytest.mark.parametrize("delta", [0.02, 0.05, 0.1, 0.11])
    def test_two_voter_half_half(self, alts3, space3, two_voter_profile, delta):
        stages = stages_of(two_voter_profile, QcvParams(delta))
        weights = diag_by_label(space3, stages.sigma3)
        assert weights["a>b>c"] == pytest.approx(0.5, abs=1e-12)
        assert weights["a>c>b"] == pytest.approx(0.5, abs=1e-12)

    def test_single_voter_point_mass(self, alts3, space3):
        stages = stages_of((rk(alts3, "b>c>a"),), QcvParams(0.05))
        assert diag_by_label(space3, stages.sigma3)["b>c>a"] == pytest.approx(1.0)

    def test_delta_bound_enforced(self, alts3, cycle_profile):
        with pytest.raises(InvalidArgument):
            stages_of(cycle_profile, QcvParams(1 / 9))
        with pytest.raises(InvalidArgument):
            QcvParams(0.0)

    def test_eps_bounded_above(self):
        assert QcvParams(0.05, eps=1e-3).eps == 1e-3
        with pytest.raises(InvalidArgument, match="eps"):
            QcvParams(0.05, eps=0.6)

    @pytest.mark.parametrize(
        "args, message",
        [(("0.05",), "delta must be a number, got '0.05'"), ((0.05, "1e-9"), "eps must be a number, got '1e-9'"),
         ((None,), "delta must be a number, got None"), ((0.05, 1j), "eps must be a number, got 1j")],
        ids=["string-delta", "string-eps", "none-delta", "complex-eps"],
    )
    def test_parameters_that_are_not_numbers_are_refused(self, args, message):
        with pytest.raises(InvalidArgument, match=f"^{re.escape(message)}$"):
            QcvParams(*args)

    def test_eps_bounded_below(self):
        # Below about 1e-15 the distribution checks fail on a sum's rounding alone.
        assert QcvParams(0.05, eps=1e-12).eps == 1e-12
        with pytest.raises(InvalidArgument, match="eps"):
            QcvParams(0.05, eps=1e-13)


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
            stages = stages_of(tuple(chosen), QcvParams(float(delta)))
            expected = oracle_sigma3(labels, [r.labels for r in chosen], delta)
            for r, got in zip(rankings, stages.sigma3.diagonal):
                assert float(got) == pytest.approx(float(expected[r.labels]), abs=1e-12)


@dataclass(frozen=True)
class UncheckedParams(QcvParams):
    """QcvParams without its range checks, to reach the rule's own error paths."""

    def __post_init__(self):
        pass

    def check_alternatives(self, m):
        pass


def random_tuples(rng, d, n, count):
    return np.array([[rng.randrange(d) for _ in range(n)] for _ in range(count)], dtype=np.intp)


def basis_rule(alts, indices, params):
    rankings = all_rankings(alts)
    return stepwise_qcv(ClassicalProfile(tuple(rankings[k] for k in indices)), params).sigma3.diagonal


class TestQcvKernel:
    @pytest.mark.parametrize("m, max_n", [(3, 8), (4, 3)])
    def test_signatures_follow_the_class_definition(self, m, max_n):
        # Classes read from explicit tallies: 0 at t = 0, 1 below n/2, 2 at n/2, 3 above n/2, 4 at n.
        alts = AlternativeSet(tuple("abcd"[:m]))
        rankings = all_rankings(alts)
        pairs = [(x, y) for x in range(m) for y in range(x + 1, m)]
        for n in range(1, max_n + 1):
            idx = np.array(list(combinations_with_replacement(range(len(rankings)), n)), dtype=np.intp)
            got = signatures(alts, idx)
            assert got.dtype == np.intp and got.shape == (len(idx), len(pairs))
            for indices, signature in zip(idx.tolist(), got.tolist()):
                want = []
                for x, y in pairs:
                    t = sum(rankings[k].order.index(x) < rankings[k].order.index(y) for k in indices)
                    want.append(0 if t == 0 else 4 if t == n else 1 + (2 * t >= n) + (2 * t > n))
                assert signature == want, (indices, signature, want)

    def test_all_three_voter_profiles_match_oracle(self, alts3):
        rankings = all_rankings(alts3)
        idx = np.array(list(product(range(6), repeat=3)), dtype=np.intp)
        rows = kernel_rows(alts3, idx, QcvParams(0.05))
        assert rows.shape == (216, 6)
        for indices, row in zip(idx, rows):
            expected = oracle_sigma3(
                alts3.names, [rankings[k].labels for k in indices], Fraction(1, 20)
            )
            exact = [float(expected[r.labels]) for r in rankings]
            assert np.abs(row - exact).max() <= 1e-15

    @pytest.mark.parametrize("m, count", [(4, 12), (5, 6), (6, 2)])
    def test_random_tuples_match_oracle(self, m, count):
        alts = AlternativeSet(tuple("abcdef"[:m]))
        rankings = all_rankings(alts)
        delta = Fraction(1, 2 * m * m)
        rng = random.Random(m)
        for n in (1, 2, 3, 4):
            idx = random_tuples(rng, len(rankings), n, count)
            rows = kernel_rows(alts, idx, QcvParams(float(delta)))
            for indices, row in zip(idx, rows):
                expected = oracle_sigma3(alts.names, [rankings[k].labels for k in indices], delta)
                exact = [float(expected[r.labels]) for r in rankings]
                assert np.abs(row - exact).max() <= 1e-15

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_matches_step_by_step_rule(self, m):
        alts = AlternativeSet(tuple("abcdef"[:m]))
        params = QcvParams.for_alternatives(m)
        d = len(all_rankings(alts))
        rng = random.Random(100 + m)
        for n in range(1, 8):
            idx = random_tuples(rng, d, n, 8)
            rows = kernel_rows(alts, idx, params)
            for indices, row in zip(idx, rows):
                assert np.abs(row - basis_rule(alts, indices, params)).max() <= 1e-15

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_rows_without_unanimous_pairs_are_bit_identical(self, m):
        # No projection runs on such a row, and the spread adds delta / (d/2)
        # per covered pair in the same order as minority_spread.
        alts = AlternativeSet(tuple("abcdef"[:m]))
        params = QcvParams.for_alternatives(m)
        rankings = all_rankings(alts)
        rng = random.Random(300 + m)
        # A ranking and its reverse share no pair, so no pair is unanimous.
        idx = random_tuples(rng, len(rankings), 3, 20)
        idx[:, 1] = [ranking_index(rankings[k].reversed()) for k in idx[:, 0]]
        rows = kernel_rows(alts, idx, params)
        for indices, row in zip(idx, rows):
            assert np.array_equal(row, basis_rule(alts, indices, params))

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_voter_order_leaves_rows_bit_identical(self, m):
        alts = AlternativeSet(tuple("abcdef"[:m]))
        params = QcvParams.for_alternatives(m)
        rng = random.Random(200 + m)
        idx = random_tuples(rng, len(all_rankings(alts)), 5, 20)
        shuffled = np.array([rng.sample(list(row), len(row)) for row in idx], dtype=np.intp)
        base = kernel_rows(alts, idx, params)
        assert np.array_equal(base, kernel_rows(alts, shuffled, params))
        assert np.array_equal(base, kernel_rows(alts, np.sort(idx, axis=1), params))

    def test_rows_do_not_depend_on_the_batch(self, alts4):
        params = QcvParams.for_alternatives(4)
        idx = random_tuples(random.Random(3), 24, 3, 10)
        batch = kernel_rows(alts4, idx, params)
        for indices, row in zip(idx, batch):
            assert np.array_equal(row, kernel_rows(alts4, indices[None, :], params)[0])

    def test_delta_bound_raises_like_the_step_rule(self, alts3, cycle_profile):
        idx = np.array([[0, 3, 4]], dtype=np.intp)
        with pytest.raises(InvalidArgument):
            kernel_rows(alts3, idx, QcvParams(1 / 9))
        with pytest.raises(InvalidArgument):
            stepwise_qcv(ClassicalProfile(cycle_profile), QcvParams(1 / 9))

    def test_spread_bound_raises_like_the_step_rule(self, alts3):
        # Delta 0.2 would leave a cycle, which orients all six pairs, no base
        # weight (6 * 0.2 >= 1); check_alternatives refuses it first in both
        # forms. Below 1/m^2, |any| * delta <= m(m-1) * delta < (m-1)/m.
        params = QcvParams(0.2)
        cycle = (0, 3, 4)
        message = r"^delta 0.2 must be strictly below 1/9 for 3 alternatives$"
        with pytest.raises(InvalidArgument, match=message):
            basis_rule(alts3, cycle, params)
        with pytest.raises(InvalidArgument, match=message):
            kernel_rows(alts3, np.array([cycle], dtype=np.intp), params)
        unchecked = UncheckedParams(0.2)
        assert np.array_equal(
            kernel_rows(alts3, np.array([[0, 0, 1]], dtype=np.intp), unchecked)[0],
            kernel_rows(alts3, np.array([[0, 1, 0]], dtype=np.intp), unchecked)[0],
        )

    def test_zero_mass_follows_the_step_rule(self, alts3):
        # At the largest delta and eps the rule accepts, a constrained row
        # keeps at least 1 - |any| * delta > 1/m of mass in the unanimous
        # subspace, far above eps, so neither form raises ZeroMassProjection
        # (or anything else) on any basis profile.
        params = QcvParams(float(np.nextafter(1 / 9, 0)), hilbert.MAX_EPS)
        for n in (1, 2, 3):
            idx = np.array(list(combinations_with_replacement(range(6), n)), dtype=np.intp)
            rows = kernel_rows(alts3, idx, params)
            for indices, row in zip(idx, rows):
                assert np.abs(row - basis_rule(alts3, indices, params)).max() <= 1e-15


class TestStageReadout:
    """``qcv_basis`` reads the kernel's stages; the stepwise rule is their reference."""

    @pytest.mark.parametrize("m, max_n, profiles", [(3, 4, 209), (4, 3, 2924)])
    def test_every_basis_multiset_matches_the_stepwise_rule(self, m, max_n, profiles):
        alts = AlternativeSet(tuple("abcd"[:m]))
        params = QcvParams.for_alternatives(m)
        rankings = all_rankings(alts)
        checked = 0
        for n in range(1, max_n + 1):
            idx = np.array(list(combinations_with_replacement(range(len(rankings)), n)), dtype=np.intp)
            for indices, row in zip(idx.tolist(), kernel_rows(alts, idx, params)):
                got = qcv_basis(alts, indices, params)
                want = stepwise_qcv(ClassicalProfile(tuple(rankings[k] for k in indices)), params)
                assert got.scores == want.scores
                assert [list(tier) for tier in got.tiers] == want.weak_order.tier_labels()
                assert got.extensions == tuple(r.to_string() for r in want.extensions)
                assert (got.pairs_any, got.pairs_all) == (want.pairs_any, want.pairs_all)
                assert np.array_equal(got.sigma1.diagonal, want.sigma1.diagonal)
                assert np.array_equal(got.sigma2.diagonal, want.sigma2.diagonal)
                assert np.abs(got.sigma3.diagonal - want.sigma3.diagonal).max() <= 1e-15
                assert np.array_equal(got.sigma3.diagonal, row)
                # What ``evaluate --stages`` prints of each state is unchanged.
                for stage in ("sigma1", "sigma2", "sigma3"):
                    printed = [serialize_density(getattr(s, stage), params.eps) for s in (got, want)]
                    assert printed[0] == printed[1]
                checked += 1
        assert checked == profiles

    def test_voter_order_leaves_the_stages_unchanged(self, alts4):
        params = QcvParams.for_alternatives(4)
        first, second = qcv_basis(alts4, [5, 0, 17], params), qcv_basis(alts4, [17, 5, 0], params)
        for field in ("scores", "tiers", "extensions", "pairs_any", "pairs_all"):
            assert getattr(first, field) == getattr(second, field)
        for stage in ("sigma1", "sigma2", "sigma3"):
            assert np.array_equal(getattr(first, stage).diagonal, getattr(second, stage).diagonal)


class TestQcvGeneralProfiles:
    def test_basis_profile_matches_basis_rule(self, alts3, cycle_profile):
        params = QcvParams(0.05)
        via_general = qcv(ProfileState.basis(cycle_profile), params)
        via_basis = stages_of(cycle_profile, params).sigma3
        assert np.allclose(via_general.matrix, via_basis.matrix, atol=1e-12)

    def test_correlated_mixture_is_convex(self, alts3, space3, cycle_profile, unanimous_profile):
        params = QcvParams(0.05)
        mixture = ProfileState.correlated(
            space3,
            [(0.5, cycle_profile), (0.5, unanimous_profile)],
        )
        got = qcv(mixture, params)
        lhs = stages_of(cycle_profile, params).sigma3.diagonal
        rhs = stages_of(unanimous_profile, params).sigma3.diagonal
        assert np.allclose(got.diagonal, 0.5 * lhs + 0.5 * rhs, atol=1e-12)

    def test_product_mixed_ballot_enumerates_support(self, alts3, space3):
        params = QcvParams(0.05)
        half = mixed_state(space3, [(0.5, rk(alts3, "a>b>c")), (0.5, rk(alts3, "b>a>c"))])
        point = basis_state(space3, rk(alts3, "a>b>c"))
        got = qcv(ProfileState.product_of([half, point]), params)
        one = stages_of((rk(alts3, "a>b>c"), rk(alts3, "a>b>c")), params).sigma3.diagonal
        two = stages_of((rk(alts3, "b>a>c"), rk(alts3, "a>b>c")), params).sigma3.diagonal
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

    def test_support_cap_surfaces_as_resource_limit(self, alts3, space3, monkeypatch):
        from qsc import ResourceLimit

        uniform = mixed_state(space3, [(1.0, r) for r in space3.rankings()])
        profile = ProfileState.product_of([uniform] * 3)
        # The cap bounds distinct tallies: two uniform voters already reach 19.
        monkeypatch.setattr(hilbert, "DEFAULT_SUPPORT_CAP", 18)
        with pytest.raises(ResourceLimit, match="exceeds 18 distinct tallies"):
            qcv(profile, QcvParams(0.05))

    def test_support_cap_counts_distinct_tallies(self, alts3, space3):
        # 25 voters, each mixed over the same two rankings: 2^25 support tuples,
        # but only 26 tallies, one per count j of voters casting the first ranking.
        first, second = rk(alts3, "a>b>c"), rk(alts3, "b>a>c")
        profile = ProfileState.product_of([mixed_state(space3, [(0.25, first), (0.75, second)])] * 25)
        params = QcvParams(0.05)
        assert len(welfare._fold(params, profile)[1]) == 26
        want = sum(
            math.comb(25, j) * 0.25**j * 0.75 ** (25 - j)
            * stages_of((first,) * j + (second,) * (25 - j), params).sigma3.diagonal
            for j in range(26)
        )
        assert np.allclose(qcv(profile, params).diagonal, want, rtol=0.0, atol=1e-14)

    def test_support_cap_refuses_before_the_kernel_runs(self, monkeypatch):
        # At m=4, 25 voters mixed uniformly over all 24 rankings pass 20,000
        # distinct tallies part of the way through the fold.
        space = space_of(4)
        uniform = mixed_state(space, [(1.0, r) for r in space.rankings()])

        def refuse(*args):
            raise AssertionError("the kernel ran")

        monkeypatch.setattr(welfare, "_qcv_rows", refuse)
        with pytest.raises(ResourceLimit, match="^profile support exceeds 20000 distinct tallies$"):
            qcv(ProfileState.product_of([uniform] * 25), QcvParams.for_alternatives(4))

    @pytest.mark.parametrize("m, n", [(5, 80), (6, 18)])
    def test_tallies_past_int64(self, m, n):
        # (n + 1)^C(m,2) passes 2^63, so tallies pack into Python ints: with
        # most voters casting ranking 0, the last pair's tally would overflow int64.
        space = RankingSpace(AlternativeSet(tuple("abcdef"[:m])))
        rankings, params = space.rankings(), QcvParams.for_alternatives(m)
        cast = rankings[:3] + rankings[:1] * (n - 3)
        first = mixed_state(space, [(0.5, rankings[0]), (0.5, rankings[1])])
        profile = ProfileState.product_of([first] + [basis_state(space, r) for r in cast[1:]])
        want = sum(0.5 * stages_of([r, *cast[1:]], params).sigma3.diagonal for r in rankings[:2])
        assert np.allclose(qcv(profile, params).diagonal, want, rtol=0.0, atol=1e-14)
        for k in (0, 1, len(rankings) - 1):
            got = qcv(profile.substitute_ballot(1, basis_state(space, rankings[k])), params).diagonal
            assert np.array_equal(got, stages_of([rankings[k], *cast[1:]], params).sigma3.diagonal)

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


def unique_folded(codes, weights, rows, row_weights):
    """The fold as written with ``np.unique``: the oracle ``welfare._folded`` matches bit for bit."""
    if len(rows) == 1:
        return codes + rows[0], weights * row_weights[0]
    cap = hilbert.DEFAULT_SUPPORT_CAP
    out, summed, step = codes[:0], weights[:0], max(1, cap // len(codes))
    for start in range(0, len(rows), step):
        part = slice(start, start + step)
        out, inverse = np.unique(np.concatenate([out, (codes[:, None] + rows[part]).ravel()]), return_inverse=True)
        if len(out) > cap:
            raise ResourceLimit(f"profile support exceeds {cap} distinct tallies")
        summed = np.bincount(inverse, np.concatenate([summed, (weights[:, None] * row_weights[part]).ravel()]))
    return out, summed


def fold_voters(fold, voters, dtype=np.int64):
    """Fold each voter's (rows, row weights) in turn from the zero tally, as ``_fold`` does."""
    codes, weights = np.zeros(1, dtype), np.ones(1)
    for rows, row_weights in voters:
        codes, weights = fold(codes, weights, rows, row_weights)
    return codes, weights


def same_bits(got, want):
    (codes, weights), (want_codes, want_weights) = got, want
    return (
        codes.dtype == want_codes.dtype and codes.tolist() == want_codes.tolist()
        and weights.dtype == want_weights.dtype and weights.tobytes() == want_weights.tobytes()
    )


def random_voters(rng, n, width, dtype=np.int64, offset=0):
    """n voters, each with 1-5 rows drawn from ``width`` codes (so tallies meet often) at weights of mixed scales."""
    voters = []
    for _ in range(n):
        size = int(rng.integers(1, 6))
        rows = np.array([offset + int(c) for c in rng.integers(0, width, size)], dtype=dtype)
        voters.append((rows, rng.random(size) * 2.0 ** rng.integers(-40, 1, size)))
    return voters


class TestFold:
    """``_folded`` is the ``np.unique`` and ``np.bincount`` fold: its bits, chunks and refusals are the oracle's."""

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_the_unique_fold(self, seed):
        rng = np.random.default_rng(seed)
        voters = random_voters(rng, int(rng.integers(1, 7)), int(rng.integers(2, 40)))
        assert same_bits(fold_voters(welfare._folded, voters), fold_voters(unique_folded, voters))

    def test_rows_with_repeats_merge_like_the_unique_fold(self):
        # A correlated profile folds its joint terms' packed sums at once, repeats included.
        rng = np.random.default_rng(7)
        for _ in range(50):
            rows = rng.integers(0, 5, int(rng.integers(2, 60)))
            weights = rng.random(len(rows))
            voters = [(rows, weights)]
            assert same_bits(fold_voters(welfare._folded, voters), fold_voters(unique_folded, voters))

    def test_single_rows_only_shift(self):
        rng = np.random.default_rng(3)
        voters = [(np.array([5]), np.array([0.3])), (np.array([2, 9, 2]), np.array([0.5, 0.25, 0.25])),
                  (np.array([11]), np.array([0.7]))]
        codes, weights = fold_voters(welfare._folded, voters)
        assert same_bits((codes, weights), fold_voters(unique_folded, voters))
        assert codes.tolist() == [18, 25]
        assert same_bits(welfare._folded(codes, weights, np.array([4]), np.array([0.5])),
                         unique_folded(codes, weights, np.array([4]), np.array([0.5])))
        for seed in range(10):
            voters = [(np.array([int(c)]), rng.random(1)) for c in rng.integers(0, 100, 6)]
            assert same_bits(fold_voters(welfare._folded, voters), fold_voters(unique_folded, voters))

    def test_tallies_past_int64(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            voters = random_voters(rng, 4, 12, object, offset=2**70)
            assert same_bits(fold_voters(welfare._folded, voters, object), fold_voters(unique_folded, voters, object))

    @pytest.mark.parametrize("seed", range(10))
    def test_cap_chunks_and_refusals_match(self, seed, monkeypatch):
        # A small cap cuts each voter's new terms into chunks, and refuses a fold
        # at the chunk where the distinct tallies first pass it.
        rng = np.random.default_rng(100 + seed)
        voters = random_voters(rng, 5, 30)
        for cap in range(1, 40):
            monkeypatch.setattr(hilbert, "DEFAULT_SUPPORT_CAP", cap)
            results = []
            for fold in (welfare._folded, unique_folded):
                calls = []

                def counted(*args, fold=fold):
                    calls.append(len(args[0]))
                    return fold(*args)

                try:
                    results.append((fold_voters(counted, voters), calls))
                except ResourceLimit as refusal:
                    results.append((str(refusal), calls))
            (got, got_calls), (want, want_calls) = results
            assert got_calls == want_calls
            assert got == want if isinstance(want, str) else same_bits(got, want)

    def test_thousands_of_tallies_through_the_cli(self, monkeypatch, capsys):
        # 30 voters at m=5, each mixed over the same four rankings, meet in C(33, 3) = 5,456 tallies;
        # the reports' hashes were taken from the argsort fold that came before np.unique's.
        rankings = ["a>b>c>d>e", "b>a>c>d>e", "a>b>d>c>e", "e>d>c>b>a"]
        document = json.dumps({
            "alternatives": list("abcde"),
            "voters": [{"mixed": [[w, r] for w, r in zip((1, 1, 1, 2), rankings)]}] * 30,
        })
        assert len(welfare._fold(QcvParams.for_alternatives(5), parse_profile(document))[0]) == 5456
        want = {
            "qcv": "1d3f14bd914f6538c02fee2e6797c1095eccbb15ccc157e5c0da0f891d11b0a9",
            "qcvne": "78cc7a74765ad7aafa5368ba32b723c3d59dffd55f746bae170ddf77e00541a1",
        }
        for rule, digest in want.items():
            monkeypatch.setattr("sys.stdin", io.StringIO(document))
            assert cli.main(["evaluate", "--rule", rule, "--profile", "-"]) == 0
            assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def space_of(m):
    return RankingSpace(AlternativeSet(tuple("abcde")[:m]))


def small_support_profile(space, n, rng, correlated, light=False):
    """A profile whose voters each back at most two rankings, or a few correlated tuples.

    Product ballots are basis states, two-ranking mixtures or superpositions;
    correlated profiles have one to three terms, and with ``light`` a 1e-4 term besides.
    """
    rankings = space.rankings()
    if correlated:
        raw = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
        terms = [(w / sum(raw), [rng.choice(rankings) for _ in range(n)]) for w in raw]
        if light:
            terms = [(w * (1 - 1e-4), rs) for w, rs in terms]
            terms.append((1e-4, [rng.choice(rankings) for _ in range(n)]))
        return ProfileState.correlated(space, terms)

    def ballot():
        first, second = rng.sample(rankings, 2)
        style = rng.choice(("basis", "mixed", "pure"))
        if style == "basis":
            return basis_state(space, first)
        w = rng.choice((0.25, 0.5, 0.75))
        if style == "mixed":
            return mixed_state(space, [(w, first), (1 - w, second)])
        return pure_state(space, [(w ** 0.5, first), ((1 - w) ** 0.5 * 1j, second)])

    return ProfileState.product_of([ballot() for _ in range(n)])


def assert_rows_match_the_per_basis_loop(profile, params, monkeypatch):
    """Every voter's rows of the ``statuses`` hook against ``qcv`` on the substituted profile (``per_basis_loop``).

    Each row is the status the loop's weights read as, on every pair and
    winner, and the hook neither folds nor scores.
    """
    space, rule = profile.space, qcv_rule(params)
    off = ~np.eye(space.alternatives.m, dtype=bool)
    wants = [read_statuses(space.alternatives, per_basis_loop(profile, voter, params))
             for voter in range(1, profile.n_voters + 1)]
    with monkeypatch.context() as patched:
        patched.setattr(welfare, "_folded", refuse)
        patched.setattr(welfare, "_qcv_rows", refuse)
        got = list(rule.statuses([(profile, voter) for voter in range(1, profile.n_voters + 1)], params.eps))
    for voter, statuses, (pairs, winners) in zip(range(1, profile.n_voters + 1), got, wants, strict=True):
        assert statuses.pairs.shape == (space.dim, *off.shape)
        assert (statuses.pairs[:, off] == pairs[:, off]).all(), voter
        assert (statuses.winners == winners).all(), voter


def split_profiles(space, rng):
    """A product and a correlated profile of three voters, each folding to more than one term."""
    rankings = space.rankings()

    def mixed():
        first, second = rng.sample(rankings, 2)
        return mixed_state(space, [(0.25, first), (0.75, second)])

    product = ProfileState.product_of([mixed(), mixed(), basis_state(space, rng.choice(rankings))])
    raw = [1, 2, 3]
    correlated = ProfileState.correlated(space, [(w / 6, [rng.choice(rankings) for _ in range(3)]) for w in raw])
    return [product, correlated]


class TestQcvResponses:
    """What a voter's basis ballots read as: the ``statuses`` hook's rows against the per-basis loop.

    The statuses hook is ``qcv_rule``'s only hook; ``qcv`` scores one profile.
    """

    @pytest.mark.parametrize("correlated", [False, True], ids=["product", "correlated"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_rows_match_the_per_basis_loop(self, m, n, correlated, monkeypatch):
        space = space_of(m)
        params = QcvParams.for_alternatives(m)
        rng = random.Random(f"{m}:{n}:{correlated}")
        for i in range(2 if m == 5 else 4):
            profile = small_support_profile(space, n, rng, correlated, light=i % 2 == 1)
            assert_rows_match_the_per_basis_loop(profile, params, monkeypatch)

    def test_weight_just_above_eps(self, space3, monkeypatch):
        rankings = space3.rankings()
        faint = mixed_state(space3, [(1 - 1.5e-9, rankings[0]), (1.5e-9, rankings[4])])
        assert len(faint.diagonal_support(1e-9)) == 2
        profile = ProfileState.product_of([faint, basis_state(space3, rankings[2]), faint])
        assert_rows_match_the_per_basis_loop(profile, QcvParams(0.05), monkeypatch)

    def test_blocks_split(self, space4, monkeypatch):
        # One term per piece, each its own kernel call of one signature; the
        # weights keep the bits of unsplit profiles, as do the loop's rows.
        params = QcvParams.for_alternatives(4)
        profiles = split_profiles(space4, random.Random(4))
        unsplit = [(qcv(profile, params).diagonal, per_basis_loop(profile, 2, params)) for profile in profiles]
        monkeypatch.setattr(welfare, "_KERNEL_CELLS", 1)
        scored = count_kernel_rows(monkeypatch)
        for profile, (want, rows) in zip(profiles, unsplit):
            assert np.array_equal(qcv(profile, params).diagonal, want)
            assert len(welfare._fold(params, profile)[0]) > 1
            assert np.array_equal(per_basis_loop(profile, 2, params), rows)
            assert_rows_match_the_per_basis_loop(profile, params, monkeypatch)
        assert set(scored) == {1}

    def test_rule_carries_the_hook(self, space3, cycle_profile):
        params = QcvParams(0.05)
        profile = ProfileState.basis(cycle_profile)
        # The statuses hook is a rule's only one: qcv's, the natural extension's and the dictator's.
        assert [field.name for field in dataclasses.fields(WelfareRule)] == ["name", "fn", "statuses"]
        for rule in (qcv_rule(params), qcvne_rule(params), dictator_rule(2)):
            assert rule.statuses is not None
        # Basis ranking k cast for the dictator: certain of what ranking k places above or tops, excluded elsewhere.
        (got,) = dictator_rule(2).statuses([(profile, 2)], params.eps)
        table = basis_table(space3.alternatives)
        assert np.array_equal(got.pairs, np.where(table.above, CERTAIN, EXCLUDED))
        tops = np.arange(space3.dim)[:, None] // 2 == np.arange(3)
        assert np.array_equal(got.winners, np.where(tops, CERTAIN, EXCLUDED))
        assert got.pairs.dtype == got.winners.dtype == np.int8
        assert veto_rule(cycle_profile[0]).statuses is None

    @pytest.mark.parametrize("correlated", [False, True], ids=["product", "correlated"])
    def test_voters_outside_the_profile_are_refused(self, space3, correlated):
        cast = space3.rankings()[:3]
        profile = ProfileState.correlated(space3, [(1.0, cast)]) if correlated else ProfileState.basis(cast)
        params = QcvParams(0.05)
        for voter in (0, 4):
            hooks = [qcv_rule(params).statuses, dictator_rule(1).statuses, dictator_rule(4).statuses]
            with pytest.raises(InvalidArgument, match=f"^voter index {voter} out of range 1..3$"):
                profile.substitute_ballot(voter, basis_state(space3, cast[0]))
            for hook in hooks:
                with pytest.raises(InvalidArgument, match=f"^voter index {voter} out of range 1..3$"):
                    list(hook([(profile, voter)], params.eps))

    # A bool has __index__, but True is not voter 1, and dictator:True names no voter.
    @pytest.mark.parametrize("voter", [1.5, 2.0, "1", True, False])
    @pytest.mark.parametrize("correlated", [False, True], ids=["product", "correlated"])
    def test_voters_that_are_not_integers_are_refused(self, space3, correlated, voter):
        assert_every_voter_call_refuses(space3, correlated, voter, f"voter index must be an integer, got {voter!r}")

    @pytest.mark.parametrize("correlated", [False, True], ids=["product", "correlated"])
    def test_a_voter_past_the_digit_limit_is_refused(self, space3, correlated):
        # str() of an integer past 4,300 digits raises, so the message does not show it.
        message = "voter index out of range, got an integer too long to print"
        for voter in (10**5000, -(10**5000)):
            assert_every_voter_call_refuses(space3, correlated, voter, message)

    @pytest.mark.parametrize("voter", [0, -1])
    def test_a_dictator_below_voter_1_is_refused_when_built(self, voter):
        with pytest.raises(InvalidArgument, match=f"^voter index must be positive, got {voter}$"):
            dictator_rule(voter)

    @pytest.mark.parametrize("error", [InvalidArgument, ZeroMassProjection])
    def test_kernel_errors_propagate(self, space3, cycle_profile, monkeypatch, error):
        def failing(*args):
            raise error("the kernel refused")

        monkeypatch.setattr(welfare, "_qcv_rows", failing)
        with pytest.raises(error, match="^the kernel refused$"):
            qcv(ProfileState.basis(cycle_profile), QcvParams(0.05))

    def test_nan_kernel_rows_are_refused(self, space3, cycle_profile, monkeypatch):
        def nan_rows(alternatives, signatures, params):
            return np.full_like(_qcv_rows(alternatives, signatures, params), np.nan)

        monkeypatch.setattr(welfare, "_qcv_rows", nan_rows)
        profile = ProfileState.basis(cycle_profile)
        with pytest.raises(InvalidArgument, match="nan"):
            qcv(profile, QcvParams(0.05))
        # Split into one-term pieces, the NaN of every piece reaches the sum.
        monkeypatch.setattr(welfare, "_KERNEL_CELLS", 1)
        for split in split_profiles(space3, random.Random(5)):
            with pytest.raises(InvalidArgument, match="nan"):
                qcv(split, QcvParams(0.05))


class TestEpsFilter:
    """Where the support filter cuts a profile: at each raw joint term, or ballot weight, of at most eps.

    A profile is refused as having no diagonal support only when nothing is kept.
    """

    def test_a_profile_request_drops_each_light_joint_term(self, space3):
        r, params = space3.rankings(), QcvParams(0.05)
        heavy, other = (r[0], r[1], r[2]), (r[5], r[5], r[3])
        alone = qcv(ProfileState.correlated(space3, [(1.0, heavy)]), params).diagonal
        # Two 0.6e-9 terms on one key, a term at eps exactly, or both: each is dropped.
        for light in ([0.6e-9, 0.6e-9], [1e-9], [0.6e-9, 1e-9, 0.6e-9]):
            profile = ProfileState.correlated(space3, [(1.0 - sum(light), heavy)] + [(w, other) for w in light])
            assert np.array_equal(qcv(profile, params).diagonal, alone), light
        # One term of their summed weight is kept, and moves the result.
        kept = ProfileState.correlated(space3, [(1.0 - 1.2e-9, heavy), (1.2e-9, other)])
        assert not np.array_equal(qcv(kept, params).diagonal, alone)

    def test_a_voter_request_drops_two_light_terms_that_differ_in_its_column(self, space3, monkeypatch):
        r, params = space3.rankings(), QcvParams(0.05)
        heavy = (r[0], r[1], r[2])
        # Two 0.6e-9 terms that differ only in voter 2's column. Substituting the
        # voter's ballot does not merge them: each is at most eps, and dropped.
        profile = ProfileState.correlated(
            space3, [(1.0 - 1.2e-9, heavy), (0.6e-9, (r[5], r[3], r[4])), (0.6e-9, (r[5], r[4], r[4]))]
        )
        merged = ProfileState.correlated(space3, [(1.0 - 1.2e-9, heavy), (1.2e-9, (r[5], r[3], r[4]))])
        alone = ProfileState.correlated(space3, [(1.0, heavy)])
        got = per_basis_loop(profile, 2, params)
        assert np.array_equal(got, per_basis_loop(alone, 2, params))
        assert not np.array_equal(got[0], per_basis_loop(merged, 2, params)[0])
        (statuses,), (want,) = (qcv_rule(params).statuses([(p, 2)], params.eps) for p in (profile, alone))
        assert np.array_equal(statuses.pairs, want.pairs) and np.array_equal(statuses.winners, want.winners)
        assert_rows_match_the_per_basis_loop(profile, params, monkeypatch)

    def test_a_correlated_profile_mixes_its_terms(self):
        space, params = space_of(4), QcvParams.for_alternatives(4)
        rankings, rng = space.rankings(), random.Random(26)
        raw = [rng.random() for _ in range(36)]
        terms = [(w / sum(raw), [rng.choice(rankings) for _ in range(4)]) for w in raw]
        got = qcv(ProfileState.correlated(space, terms), params).diagonal
        want = sum(w * qcv(ProfileState.correlated(space, [(1.0, key)]), params).diagonal for w, key in terms)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)

    def test_a_product_profile_that_keeps_a_ranking_per_voter_is_scored(self):
        # Each of six voters keeps one ranking at eps 1e-3, though the kept masses
        # multiply to 0.281^6 = 4.9e-4, below eps: the profile is that one tuple.
        space, params = RankingSpace(AlternativeSet(tuple("abcdef"))), QcvParams.for_alternatives(6, eps=1e-3)
        weights = np.full(space.dim, 0.001)
        weights[0] = 0.281
        profile = ProfileState.product_of([hilbert.diagonal_state(space, weights)] * 6)
        unanimous = ProfileState.basis([space.rankings()[0]] * 6)
        assert np.array_equal(qcv(profile, params).diagonal, qcv(unanimous, params).diagonal)
        for ranking in space.rankings()[:: space.dim // 4]:
            ballot = basis_state(space, ranking)
            got, want = (qcv(p.substitute_ballot(6, ballot), params).diagonal for p in (profile, unanimous))
            assert np.array_equal(got, want)
        (got,), (want,) = (qcv_rule(params).statuses([(p, 6)], params.eps) for p in (profile, unanimous))
        assert np.array_equal(got.pairs, want.pairs) and np.array_equal(got.winners, want.winners)
        assert [key for _, key in profile.support_tuples(1e-3)] == [(0,) * 6]

    def test_a_voter_request_exempts_the_left_out_voter(self, space3):
        # Voter 1 casts a ballot that keeps nothing: only the requests that read it are refused.
        rankings, params = space3.rankings(), QcvParams(0.05)
        others = [basis_state(space3, rankings[0]), basis_state(space3, rankings[3])]
        profile = ProfileState.product_of([hilbert.DensityOperator(space3, np.zeros(6)), *others])
        hook = qcv_rule(params).statuses
        # Its rows are those of any other ballot for voter 1: row k casts basis ranking k for it.
        cast = ProfileState.product_of([basis_state(space3, rankings[5]), *others])
        (statuses,), (want,) = (hook([(p, 1)], params.eps) for p in (profile, cast))
        assert statuses.pairs.shape == (6, 3, 3) and statuses.winners.shape == (6, 3)
        assert np.array_equal(statuses.pairs, want.pairs) and np.array_equal(statuses.winners, want.winners)
        for voter in (2, None):
            with pytest.raises(InvalidArgument, match="^profile has no diagonal support$"):
                list(hook([(profile, voter)], params.eps))
        answered = []
        with pytest.raises(InvalidArgument, match="^profile has no diagonal support$"):
            answered.extend(hook([(profile, 1), (profile, None)], params.eps))
        assert len(answered) == 1

    def test_profile_and_voter_requests_drop_the_same_terms(self, space3):
        # 1,001 terms of weight 1/1001, each below eps 1e-3, on keys that
        # coincide once a voter's column is dropped: both requests keep none.
        rankings, rng = space3.rankings(), random.Random(1001)
        profile = ProfileState.correlated(
            space3, [(1 / 1001, [rng.choice(rankings) for _ in range(4)]) for _ in range(1001)]
        )
        params = QcvParams(0.05, eps=1e-3)
        with pytest.raises(InvalidArgument, match="^profile has no diagonal support$"):
            qcv(profile, params)
        with pytest.raises(InvalidArgument, match="^profile has no diagonal support$"):
            list(qcv_rule(params).statuses([(profile, None)], params.eps))
        for voter in range(1, 5):
            with pytest.raises(InvalidArgument, match="^profile has no diagonal support$"):
                qcv(profile.substitute_ballot(voter, basis_state(space3, rankings[0])), params)
            with pytest.raises(InvalidArgument, match="^profile has no diagonal support$"):
                list(qcv_rule(params).statuses([(profile, voter)], params.eps))


def assert_every_voter_call_refuses(space, correlated, voter, message):
    """Every call that takes a voter index refuses ``voter`` with exactly ``message``."""
    cast = space.rankings()[:3]
    profile = ProfileState.correlated(space, [(1.0, cast)]) if correlated else ProfileState.basis(cast)
    params = QcvParams(0.05)
    calls = [
        lambda: list(qcv_rule(params).statuses([(profile, voter)], params.eps)),
        lambda: list(dictator_rule(1).statuses([(profile, voter)], params.eps)),
        lambda: profile.voter_position(voter),
        lambda: profile.partial_ballot(voter),
        lambda: profile.substitute_ballot(voter, basis_state(space, cast[0])),
        lambda: dictator_rule(voter),
    ]
    for call in calls:
        with pytest.raises(InvalidArgument, match=f"^{re.escape(message)}$"):
            call()


def mixed_batch(space, n, rng, correlated, profiles=3):
    """Profile and voter requests over a few small-support profiles, interleaved at random."""
    drawn = [small_support_profile(space, n, rng, correlated, light=i % 2 == 1) for i in range(profiles)]
    requests = [(p, None) for p in drawn] + [(p, v) for p in drawn for v in range(1, n + 1)]
    rng.shuffle(requests)
    return requests


def reference(rule, profile, voter):
    """A request's weights as the rule computes them one profile at a time: the output, or the per-basis loop."""
    if voter is None:
        return rule.evaluate(profile).diagonal
    space = profile.space
    return np.array([
        rule.evaluate(profile.substitute_ballot(voter, basis_state(space, ranking))).diagonal
        for ranking in space.rankings()
    ])


def same_statuses(got, want) -> bool:
    return np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


class TestBatchHook:
    """A ``statuses`` hook answers a batch of profile and voter requests in one call, in order (the dictator's).

    ``qcv`` scores one profile, a piece of its terms a kernel call.
    """

    @pytest.mark.parametrize("correlated", [False, True], ids=["product", "correlated"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_results_match_one_request_at_a_time(self, m, n, correlated, monkeypatch):
        space = space_of(m)
        params = QcvParams.for_alternatives(m)
        rng = random.Random(f"batch:{m}:{n}:{correlated}")
        requests = mixed_batch(space, n, rng, correlated, profiles=2 if m == 5 else 3)
        rule = dictator_rule(min(n, 2))
        batched = list(rule.statuses(requests, params.eps))
        assert len(batched) == len(requests)
        for (profile, voter), got in zip(requests, batched):
            (alone,) = rule.statuses([(profile, voter)], params.eps)
            assert same_statuses(got, alone)
            assert same_statuses(got, statuses_at(space.alternatives, reference(rule, profile, voter), params.eps))
        # One-cell pieces: every kernel call scores one term's signature, and
        # the weights keep their bits.
        profiles = list({id(profile): profile for profile, _ in requests}.values())
        unsplit = [qcv(profile, params).diagonal for profile in profiles]
        monkeypatch.setattr(welfare, "_KERNEL_CELLS", 1)
        scored = count_kernel_rows(monkeypatch)
        for profile, want in zip(profiles, unsplit):
            assert np.array_equal(qcv(profile, params).diagonal, want)
        assert len(scored) >= len(profiles) and set(scored) == {1}

    @pytest.mark.parametrize("n, rows", [(5, 44), (6, 87)])
    def test_one_kernel_row_per_signature(self, space3, n, rows, monkeypatch):
        # Every m=3 basis multiset, one profile at a time: 252 profiles at n=5
        # and 462 at n=6, each one term and one kernel row, with 44 and 87
        # majority signatures among them.
        keys = list(combinations_with_replacement(range(space3.dim), n))
        profiles = [ProfileState.basis([space3.rankings()[k] for k in key]) for key in keys]
        params = QcvParams(0.05)
        kernel, signed = welfare._qcv_rows, []

        def recorded(alternatives, signatures, params):
            signed.extend(map(tuple, signatures.tolist()))
            return kernel(alternatives, signatures, params)

        monkeypatch.setattr(welfare, "_qcv_rows", recorded)
        got = [qcv(profile, params).diagonal for profile in profiles]
        assert len(signed) == len(profiles) and len(set(signed)) == rows
        monkeypatch.setattr(welfare, "_qcv_rows", kernel)
        for key, weights in zip(keys, got, strict=True):
            assert np.array_equal(weights, qcv_basis(space3.alternatives, key, params).sigma3.diagonal)

    def test_dictator_results_match_its_evaluations(self, space4):
        rng = random.Random(9)
        requests = mixed_batch(space4, 3, rng, False) + mixed_batch(space4, 3, rng, True)
        rule = dictator_rule(2)
        for (profile, voter), got in zip(requests, rule.statuses(requests, 1e-9)):
            if voter is None:
                assert same_statuses(got, statuses_at(space4.alternatives, rule.evaluate(profile).diagonal, 1e-9))
            else:
                (want,) = rule.statuses([(profile, voter)], 1e-9)
                assert same_statuses(got, want)

    def test_dictator_reads_a_profile_once_per_run_of_its_requests(self, space4, monkeypatch):
        # A profile request and three requests of other voters on that profile read the dictator's marginal once;
        # each voter's rows are still the profile's statuses, broadcast.
        profile = small_support_profile(space4, 4, random.Random(3), False)
        read, reads = welfare._read_statuses, []

        def counted(*args):
            reads.append(args)
            return read(*args)

        monkeypatch.setattr(welfare, "_read_statuses", counted)
        found, *rows = dictator_rule(2).statuses([(profile, None), (profile, 1), (profile, 3), (profile, 4)], 1e-9)
        assert len(reads) == 1
        for got in rows:
            assert got.pairs.shape == (space4.dim, 4, 4)
            assert (got.pairs == found.pairs).all() and (got.winners == found.winners).all()

    def test_dictator_voter_requests_at_m6_hold_no_d_by_d_array(self):
        # Each row of the dictator's own request is read off the basis table (d x m x m int8), and another
        # voter's request broadcasts the profile's statuses with no copy: neither builds d x d weights (4 MB).
        space = RankingSpace(AlternativeSet(tuple("abcdef")))
        rankings = space.rankings()
        profile = ProfileState.product_of([mixed_state(space, [(0.5, rankings[k]), (0.5, rankings[-k])]) for k in (1, 2, 3)])
        rule = dictator_rule(1)
        for voter in (2, 1):
            list(rule.statuses([(profile, voter)], 1e-9))  # the basis table and its pair index, built once
            tracemalloc.start()
            try:
                (got,) = rule.statuses([(profile, voter)], 1e-9)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert got.pairs.shape == (space.dim, 6, 6) and got.winners.shape == (space.dim, 6)
            assert peak < 200_000, (voter, peak)

    def test_empty_batch(self):
        assert list(qcv_rule(QcvParams(0.05)).statuses([], 1e-9)) == []
        assert list(dictator_rule(1).statuses([], 1e-9)) == []

    @pytest.mark.parametrize("error", [InvalidArgument, ZeroMassProjection])
    def test_kernel_errors_propagate(self, space3, monkeypatch, error):
        # A refusal in a later piece of a profile's terms propagates out of ``qcv``.
        calls = []

        def failing(*args):
            calls.append(len(args[1]))
            if len(calls) == 2:
                raise error("the kernel refused")
            return _qcv_rows(*args)

        monkeypatch.setattr(welfare, "_KERNEL_CELLS", 1)
        monkeypatch.setattr(welfare, "_qcv_rows", failing)
        profile = split_profiles(space3, random.Random(2))[0]
        with pytest.raises(error, match="^the kernel refused$"):
            qcv(profile, QcvParams(0.05))
        assert calls == [1, 1]

    def test_errors_wait_for_the_results_before_them(self, space3):
        # Requests answered one at a time would yield every result before the
        # failing request, then raise: so does the dictator's batch.
        rankings = space3.rankings()
        good = [ProfileState.basis([rankings[k] for k in key]) for key in ((0, 1, 2), (1, 1, 2))]
        requests = [(good[0], None), (good[1], 2), (good[1], 4), (good[1], None)]
        answered = []
        with pytest.raises(InvalidArgument, match="^voter index 4 out of range 1..3$"):
            answered.extend(dictator_rule(1).statuses(requests, 1e-9))
        assert len(answered) == 2
        answered.clear()
        with pytest.raises(InvalidArgument, match="^voter index 4 out of range 1..3$"):
            answered.extend(dictator_rule(4).statuses(requests[:1] + requests[2:], 1e-9))
        assert answered == []


def refuse(*args):
    raise AssertionError("the statuses hook folded or scored")


class TestStatusesHook:
    """``qcv_rule``'s statuses hook: the status every weight of ``qcv`` and the per-basis loop reads as, with no fold."""

    @pytest.mark.parametrize("correlated", [False, True], ids=["product", "correlated"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_statuses_read_the_responses(self, m, n, correlated, monkeypatch):
        space, params = space_of(m), QcvParams.for_alternatives(m)
        requests = mixed_batch(space, n, random.Random(f"statuses:{m}:{n}:{correlated}"), correlated)
        off = ~np.eye(m, dtype=bool)
        rule = qcv_rule(params)
        weights = [reference(rule, profile, voter) for profile, voter in requests]
        monkeypatch.setattr(welfare, "_folded", refuse)
        monkeypatch.setattr(welfare, "_qcv_rows", refuse)
        batched = list(rule.statuses(requests, params.eps))
        assert len(batched) == len(requests)
        # A group holds at most _KERNEL_CELLS counts and vertex statuses, and at least one request.
        groups, reached = [], welfare._reached
        monkeypatch.setattr(welfare, "_reached", lambda *args: groups.append(len(args[2])) or reached(*args))
        monkeypatch.setattr(welfare, "_KERNEL_CELLS", 1)
        split = list(rule.statuses(requests, params.eps))
        assert groups == [1] * len(requests)
        for request, got, again, rows in zip(requests, batched, split, weights):
            (alone,) = rule.statuses([request], params.eps)
            assert np.array_equal(got.pairs, alone.pairs) and np.array_equal(got.winners, alone.winners)
            assert np.array_equal(got.pairs, again.pairs) and np.array_equal(got.winners, again.winners)
            pairs, winners = read_statuses(space.alternatives, rows)
            assert (got.pairs[..., off] == pairs[..., off]).all()
            assert (got.winners == winners).all()

    def test_errors_wait_for_the_results_before_them(self, space3, space4):
        # As the dictator's hook: every result before a refused request is yielded, then the refusal is raised.
        rankings = space3.rankings()
        good = [ProfileState.basis([rankings[k] for k in key]) for key in ((0, 1, 2), (1, 1, 2))]
        bad = ProfileState.basis([space4.rankings()[5]] * 3)
        answered = []
        with pytest.raises(InvalidArgument, match="^delta 0.1 must be strictly below 1/16 for 4 alternatives$"):
            answered.extend(qcv_rule(QcvParams(0.1)).statuses(
                [(good[0], None), (good[1], 2), (bad, None), (good[1], None)], 1e-9
            ))
        assert len(answered) == 2
        light = ProfileState.correlated(space3, [(1 / 1001, [rankings[k % 6], rankings[k // 6 % 6]]) for k in range(1001)])
        answered.clear()
        with pytest.raises(InvalidArgument, match="^profile has no diagonal support$"):
            answered.extend(qcv_rule(QcvParams(0.05, eps=1e-3)).statuses(
                [(good[0], None), (good[1], 3), (light, 1), (good[0], 1)], 1e-3
            ))
        assert len(answered) == 2

    @pytest.mark.parametrize("n, excluded", [(1, True), (2, True), (3, False), (60, True)])
    def test_a_winner_excluded_by_a_cover(self, space4, n, excluded):
        # Each voter keeps b>c>a>d, c>d>a>b and d>b>a>c: the sets above a are {b, c}, {c, d} and
        # {b, d}, any two of which meet, while no alternative is in all three. So every term of one or
        # two such voters has some alternative unanimously above a, and a term of three need not. From
        # the third voter on, the others keep b>c>d>a, c>b>d>a and d>b>c>a, whose set above a holds
        # every other alternative: at 60 voters the terms number 3^60, past what float64 counts exactly.
        alts = space4.alternatives
        cover = mixed_state(space4, [(1.0, rk(alts, text)) for text in ("b>c>a>d", "c>d>a>b", "d>b>a>c")])
        rest = mixed_state(space4, [(1.0, rk(alts, text)) for text in ("b>c>d>a", "c>b>d>a", "d>b>c>a")])
        ballots = [cover] * min(n, 3) if n <= 3 else [cover] * 2 + [rest] * (n - 2)
        profile, params = ProfileState.product_of(ballots), QcvParams.for_alternatives(4)
        (statuses,) = qcv_rule(params).statuses([(profile, None)], params.eps)
        assert (statuses.winners[0] == EXCLUDED) == excluded
        # The counts the statuses are read from stay exact: their alternating sums over 2^4 sets stay below 2^52.
        counts = welfare._reached(params, welfare._lattice(alts), [(profile, None)])
        assert counts.max() * 16 < 2.0**52
        assert (qcvne(profile, params)["a"] == 0.0) == excluded
        assert (statuses.pairs[~np.eye(4, dtype=bool)] == UNDECIDED).all()

    def test_no_support_cap(self, space3, monkeypatch):
        # The cap bounds a fold; the hook folds nothing, so a support far past it is decided.
        monkeypatch.setattr(hilbert, "DEFAULT_SUPPORT_CAP", 8)
        uniform = mixed_state(space3, [(1.0, r) for r in space3.rankings()])
        profile = ProfileState.product_of([uniform] * 12)
        with pytest.raises(ResourceLimit):
            qcv(profile, QcvParams(0.05))
        (statuses,) = qcv_rule(QcvParams(0.05)).statuses([(profile, None)], 1e-9)
        assert (statuses.winners == UNDECIDED).all()
        assert (statuses.pairs == UNDECIDED).all()


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

    def test_veto_reads_the_callers_eps(self, alts3, space3):
        pet = rk(alts3, "a>b>c")
        nearly = mixed_state(space3, [(0.9995, pet), (0.0005, rk(alts3, "c>b>a"))])
        profile = ProfileState.product_of([nearly, basis_state(space3, rk(alts3, "b>a>c"))])
        assert veto_rule(pet).evaluate(profile).diagonal[0] == 0.0
        assert veto_rule(pet, eps=1e-3).evaluate(profile).diagonal[0] == 1.0

    @pytest.mark.parametrize("pet", ["d>c>b>a", "a>b>c>d"])
    def test_veto_refuses_a_profile_on_other_alternatives(self, alts3, pet):
        # The pet's index would read past an m=3 ballot, or the rule would return an m=4 society.
        rule = veto_rule(rk(AlternativeSet(tuple("abcd")), pet))
        profile = ProfileState.basis([rk(alts3, "a>b>c")] * 3)
        refused = "a profile on alternatives ('a', 'b', 'c') is not on the veto rule's alternatives ('a', 'b', 'c', 'd')"
        with pytest.raises(InvalidArgument, match=f"^{re.escape(refused)}$"):
            rule.evaluate(profile)

    def test_veto_needs_two_voters(self, alts3, space3):
        rule = veto_rule(rk(alts3, "a>b>c"))
        with pytest.raises(InvalidArgument):
            rule.evaluate(ProfileState.product_of([basis_state(space3, rk(alts3, "b>a>c"))]))
