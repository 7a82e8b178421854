import math
import random
import re
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsc import (
    AlternativeSet,
    DensityOperator,
    InvalidArgument,
    ProfileState,
    QcvParams,
    Ranking,
    RankingSpace,
    ResourceLimit,
    ZeroMassProjection,
    alternative_state,
    basis_state,
    mixed_state,
    pair_projector,
    pure_state,
    qcv_basis,
    support_probabilities,
    support_probability,
    validate_density,
    winner_projector,
)
from qsc import hilbert
from qsc.serde import parse_density, parse_profile, serialize_density

from oracles import lehmer_index, ranks_above
from stepwise import project_and_renormalize, uniform_subspace_state

ROOT2 = 2 ** -0.5


def rk(alts, text):
    return Ranking.from_string(alts, text)


def random_diagonal_state(space, rng):
    raw = np.array([rng.random() for _ in range(space.dim)])
    raw /= raw.sum()
    return mixed_state(space, list(zip(raw, space.rankings())))


def random_pure_state(space, rng):
    amps = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(space.dim)]
    return pure_state(space, list(zip(amps, space.rankings())))


def lehmer_key(rankings):
    return tuple(lehmer_index(r.order) for r in rankings)


def near_eps_ballot(space, rng, eps=1e-9):
    """Diagonal ballot on a few basis rankings, some weighted at, just above or just below eps."""
    chosen = rng.sample(range(space.dim), rng.randint(1, min(space.dim, 8)))
    diag = np.zeros(space.dim)
    for k in chosen[1:]:
        diag[k] = rng.choice([eps, np.nextafter(eps, 0.0), np.nextafter(eps, 1.0), 2 * eps, rng.random()])
    diag[chosen[1:]] /= max(1.0, diag.sum() * 1.25)
    diag[chosen[0]] = 1.0 - diag.sum()
    return hilbert.diagonal_state(space, diag)


def reference_support_tuples(per_voter):
    """Support listing by a stack, merged in a dict and sorted, from each voter's support entries."""
    combos = {}
    stack = [((), 1.0)]
    for entries in per_voter:
        stack = [(prefix + (k,), w * wk) for prefix, w in stack for k, wk in entries]
    for key, w in stack:
        combos[key] = combos.get(key, 0.0) + w
    total = sum(combos.values())
    return [(w / total, key) for key, w in sorted(combos.items())]


class TestConstruction:
    def test_point_mass(self, alts3, space3):
        state = pure_state(space3, [(1.0, rk(alts3, "a>b>c"))])
        assert state.diagonal[0] == pytest.approx(1.0)
        assert np.trace(state.matrix) == pytest.approx(1.0)

    def test_amplitude_scale_invariance(self, alts3, space3):
        one = pure_state(space3, [(1.0, rk(alts3, "a>b>c"))])
        two = pure_state(space3, [(2.0, rk(alts3, "a>b>c"))])
        assert np.allclose(one.matrix, two.matrix)

    def test_zero_amplitudes_rejected(self, alts3, space3):
        with pytest.raises(InvalidArgument):
            pure_state(space3, [(0.0, rk(alts3, "a>b>c"))])

    @pytest.mark.parametrize("m", [3, 4])
    def test_basis_state_is_the_unit_mixture(self, m):
        space = RankingSpace(AlternativeSet(tuple("abcd"[:m])))
        for ranking in space.rankings():
            state, want = basis_state(space, ranking), mixed_state(space, [(1.0, ranking)])
            assert state.diagonal.tobytes() == want.diagonal.tobytes()
            assert state.amplitudes is None and not state.diagonal.flags.writeable

    def test_mixed_normalizes(self, alts3, space3):
        state = mixed_state(space3, [(2.0, rk(alts3, "a>b>c")), (2.0, rk(alts3, "a>c>b"))])
        assert state.diagonal[0] == pytest.approx(0.5)
        assert state.diagonal[1] == pytest.approx(0.5)

    def test_uniform_mixture(self, alts3, space3):
        state = mixed_state(space3, [(1 / 6, r) for r in space3.rankings()])
        assert np.allclose(state.diagonal, 1 / 6)

    def test_negative_weight_rejected(self, alts3, space3):
        with pytest.raises(InvalidArgument):
            mixed_state(space3, [(-0.5, rk(alts3, "a>b>c"))])

    def test_ballots_normalize_at_any_finite_scale(self, alts3, space3):
        # Powers of two scale exactly, so the normalized weights and amplitudes keep their bits.
        weights = [(0.3, rk(alts3, "a>b>c")), (0.7, rk(alts3, "b>c>a"))]
        amplitudes = [(0.6, rk(alts3, "a>b>c")), (0.8j, rk(alts3, "c>a>b"))]
        mixed, pure = mixed_state(space3, weights), pure_state(space3, amplitudes)
        for k in range(-200, 201):
            scaled = mixed_state(space3, [(w * 2.0**k, r) for w, r in weights])
            assert scaled.diagonal.tobytes() == mixed.diagonal.tobytes()
            scaled = pure_state(space3, [(a * 2.0**k, r) for a, r in amplitudes])
            assert scaled.diagonal.tobytes() == pure.diagonal.tobytes()
            assert scaled.amplitudes.tobytes() == pure.amplitudes.tobytes()

    @pytest.mark.parametrize(
        "build, terms, outcome",
        [
            (mixed_state, [(0.0, "a>b>c"), (0.0, "b>a>c")], "mixture needs positive total weight"),
            (pure_state, [(0.0, "a>b>c"), (0j, "b>a>c")], "pure state needs at least one nonzero amplitude"),
            (pure_state, [(0.5j, "a>b>c"), (-0.5j, "a>b>c")], "pure state needs at least one nonzero amplitude"),
            # The total and the norm overflow, and the squares underflow, unless the terms are scaled first.
            (mixed_state, [(1e308, "a>b>c"), (1e308, "b>a>c")], [0.5, 0.5]),
            (pure_state, [(1e155 + 1e155j, "a>b>c"), (1e155, "b>a>c")], [2 / 3, 1 / 3]),
            (
                mixed_state,
                [(1.0, "a>b>c"), (-1e-300, "b>a>c")],
                "mixture weights must be finite and nonnegative, got -1e-300",
            ),
            (pure_state, [(1e-160, "a>b>c"), (1e-160, "b>a>c")], [0.5, 0.5]),
            (pure_state, [(1e-162, "a>b>c"), (1e-162, "b>a>c")], [0.5, 0.5]),
            (pure_state, [(1e200, "a>b>c"), (1e200, "b>a>c")], [0.5, 0.5]),
            (mixed_state, [(1e308, "a>b>c"), (1e308, "a>b>c")], [1.0, 1.0]),
            # An integer past the float range reads as the infinity of its sign. Past 4,300
            # digits str() of the integer itself raises, so no message may show it.
            (mixed_state, [(10**400, "a>b>c")], "mixture weights must be finite and nonnegative, got inf"),
            (mixed_state, [(-(10**400), "a>b>c")], "mixture weights must be finite and nonnegative, got -inf"),
            (pure_state, [(10**5000, "a>b>c")], "amplitudes must be finite, got inf"),
            (pure_state, [(-(10**400), "a>b>c")], "amplitudes must be finite, got -inf"),
        ],
        ids=[
            "zero-total", "zero-norm", "cancelling", "infinite-total", "infinite-norm", "negative", "underflowing",
            "underflowing-to-zero", "overflowing-squares", "overflowing-one-weight",
            "huge-weight", "huge-negative-weight", "huge-amplitude", "huge-negative-amplitude",
        ],
    )
    def test_unscalable_ballots_refused(self, alts3, space3, build, terms, outcome):
        # A ballot with no finite positive scale is refused with the message given; any
        # other normalizes, to the weights given on its terms' rankings.
        rankings = [rk(alts3, text) for _, text in terms]
        ballot = [(value, ranking) for (value, _), ranking in zip(terms, rankings)]
        if isinstance(outcome, str):
            with pytest.raises(InvalidArgument, match=f"^{re.escape(outcome)}"):
                build(space3, ballot)
        else:
            weights = build(space3, ballot).diagonal[[space3.basis_index(r) for r in rankings]]
            assert weights.tolist() == pytest.approx(outcome, rel=1e-15)

    def test_basis_and_mixed_states_take_no_eps(self, alts3, space3):
        with pytest.raises(TypeError):
            basis_state(space3, rk(alts3, "a>b>c"), 1e-9)
        with pytest.raises(TypeError):
            mixed_state(space3, [(1.0, rk(alts3, "a>b>c"))], 1e-9)

    def test_validation_catches_bad_matrices(self, space3):
        from qsc import validate_density

        with pytest.raises(InvalidArgument):
            validate_density(np.eye(6, dtype=complex), 6)  # trace 6
        skew = np.zeros((6, 6), dtype=complex)
        skew[0, 0] = 1.0
        skew[0, 1] = 0.5
        with pytest.raises(InvalidArgument):
            validate_density(skew, 6)  # not Hermitian


class TestSupportProbability:
    def test_split_ballot_winner_weight(self, xyz, xyz_space):
        rho1 = pure_state(
            xyz_space,
            [(ROOT2, rk(xyz, "x>y>z")), (ROOT2, rk(xyz, "y>x>z"))],
        )
        assert support_probability(rho1, winner_projector(xyz_space, "x")) == pytest.approx(0.5)

    def test_split_ballot_shared_pair(self, xyz, xyz_space):
        rho1 = pure_state(
            xyz_space,
            [(ROOT2, rk(xyz, "x>y>z")), (ROOT2, rk(xyz, "y>x>z"))],
        )
        assert support_probability(rho1, pair_projector(xyz_space, "x", "z")) == pytest.approx(1.0)

    def test_opposed_pair_is_zero(self, alts3, space3):
        state = basis_state(space3, rk(alts3, "a>b>c"))
        assert support_probability(state, pair_projector(space3, "b", "a")) == 0.0

    def test_dimension_mismatch_rejected(self, alts3, space3, xyz_space):
        state = basis_state(space3, rk(alts3, "a>b>c"))
        with pytest.raises(InvalidArgument):
            support_probability(state, winner_projector(xyz_space, "x"))

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_gathered_sums_are_the_per_subspace_sums(self, m):
        # One gather over an index matrix gives, bit for bit, what
        # support_probability gives subspace by subspace, clamps included:
        # weights are perturbed by up to 1e-9 either way, so some subspace
        # sums land just below 0 or just above 1.
        rng = np.random.default_rng(m)
        space = RankingSpace(AlternativeSet(tuple("abcdef")[:m]))
        pairs = [pair_projector(space, *pair) for pair in space.alternatives.ordered_pairs()]
        winners = [winner_projector(space, a) for a in space.alternatives.names]
        states = []
        for trial in range(600 // m):
            weights = rng.dirichlet(np.full(space.dim, rng.choice([0.05, 1.0])))
            if trial % 3 == 0:
                weights = np.zeros(space.dim)
                weights[rng.integers(space.dim)] = 1.0
            weights = weights + rng.uniform(-1e-9, 1e-9, space.dim) * (trial % 2)
            states.append(DensityOperator(space, weights))
        clamped = 0
        for subspaces in (pairs, winners):
            index = np.stack([subspace.indices for subspace in subspaces])
            for state in states:
                want = [support_probability(state, subspace) for subspace in subspaces]
                assert np.array_equal(support_probabilities(state.diagonal, index), want)
                raw = [float(state.diagonal[subspace.indices].sum()) for subspace in subspaces]
                clamped += sum(r != v for r, v in zip(raw, want))
        assert clamped > 0

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_diagonal_states_match_brute_force(self, seed):
        import random

        rng = random.Random(seed)
        m = rng.choice([3, 4])
        alts = AlternativeSet(tuple("abcd")[:m])
        space = RankingSpace(alts)
        state = random_diagonal_state(space, rng)
        diag = state.diagonal
        for x in alts.names:
            for y in alts.names:
                if x == y:
                    continue
                expected = sum(
                    float(diag[k])
                    for k, r in enumerate(space.rankings())
                    if ranks_above(r.labels, x, y)
                )
                got = support_probability(state, pair_projector(space, x, y))
                assert got == pytest.approx(expected, abs=1e-12)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_partition_and_complement(self, seed):
        import random

        rng = random.Random(seed)
        alts = AlternativeSet(("a", "b", "c"))
        space = RankingSpace(alts)
        state = random_pure_state(space, rng) if rng.random() < 0.5 else random_diagonal_state(space, rng)
        total = sum(
            support_probability(state, winner_projector(space, a)) for a in alts.names
        )
        assert total == pytest.approx(1.0, abs=1e-9)
        for x in alts.names:
            for y in alts.names:
                if x == y:
                    continue
                forward = support_probability(state, pair_projector(space, x, y))
                backward = support_probability(state, pair_projector(space, y, x))
                assert forward + backward == pytest.approx(1.0, abs=1e-9)


class TestProjectors:
    def test_sizes(self, space4):
        assert len(pair_projector(space4, "a", "b").indices) == 12  # 4!/2
        assert len(winner_projector(space4, "a").indices) == 6  # 3!

    def test_pair_and_reverse_disjoint(self, space3):
        forward = set(pair_projector(space3, "a", "b").indices)
        backward = set(pair_projector(space3, "b", "a").indices)
        assert not forward & backward
        assert forward | backward == set(range(6))

    def test_winner_is_pair_intersection(self, space4, alts4):
        for a in alts4.names:
            expected = set(range(24))
            for other in alts4.names:
                if other != a:
                    expected &= set(pair_projector(space4, a, other).indices)
            assert set(winner_projector(space4, a).indices) == expected

    def test_same_alternative_rejected(self, space3):
        with pytest.raises(InvalidArgument):
            pair_projector(space3, "a", "a")


class TestUniformSubspace:
    def test_membership_and_weights(self, alts3, space3):
        omega = uniform_subspace_state(space3, "a", "b")
        weights = {
            r.to_string(): w for r, w in zip(space3.rankings(), omega.diagonal) if w > 0
        }
        assert weights == pytest.approx(
            {"a>b>c": 1 / 3, "a>c>b": 1 / 3, "c>a>b": 1 / 3}
        )

    def test_unit_trace(self, space4):
        omega = uniform_subspace_state(space4, "c", "a")
        assert float(np.real(np.trace(omega.matrix))) == pytest.approx(1.0)

    def test_contained_in_own_subspace(self, space3):
        omega = uniform_subspace_state(space3, "a", "b")
        assert support_probability(omega, pair_projector(space3, "a", "b")) == pytest.approx(1.0)


class TestProjectAndRenormalize:
    def test_uniform_restriction(self, alts3, space3):
        uniform = mixed_state(space3, [(1.0, r) for r in space3.rankings()])
        projected = project_and_renormalize(uniform, pair_projector(space3, "a", "b"))
        inside = pair_projector(space3, "a", "b").indices
        assert all(projected.diagonal[k] == pytest.approx(1 / 3) for k in inside)

    def test_idempotent_inside_subspace(self, alts3, space3):
        state = pure_state(
            space3, [(ROOT2, rk(alts3, "a>b>c")), (ROOT2, rk(alts3, "a>c>b"))]
        )
        projected = project_and_renormalize(state, pair_projector(space3, "a", "b"))
        assert np.allclose(projected.matrix, state.matrix, atol=1e-12)

    def test_zero_mass_rejected(self, alts3, space3):
        state = basis_state(space3, rk(alts3, "a>b>c"))
        with pytest.raises(ZeroMassProjection):
            project_and_renormalize(state, pair_projector(space3, "b", "a"))


class TestProfileState:
    def test_product_marginal(self, xyz, xyz_space, split_top_profile):
        rho1 = split_top_profile.partial_ballot(1)
        assert np.allclose(rho1.matrix, split_top_profile.factors[0].matrix)

    def test_correlated_marginal(self, alts3, space3):
        profile = ProfileState.correlated(
            space3,
            [
                (0.5, (rk(alts3, "a>b>c"), rk(alts3, "a>b>c"))),
                (0.5, (rk(alts3, "b>a>c"), rk(alts3, "b>a>c"))),
            ],
        )
        marginal = profile.partial_ballot(2)
        weights = {
            r.to_string(): w for r, w in zip(space3.rankings(), marginal.diagonal) if w > 0
        }
        assert weights == pytest.approx({"a>b>c": 0.5, "b>a>c": 0.5})

    def test_party_line_marginals_agree(self, alts3, space3):
        profile = ProfileState.correlated(
            space3,
            [
                (0.25, (rk(alts3, "a>b>c"),) * 3),
                (0.75, (rk(alts3, "c>b>a"),) * 3),
            ],
        )
        first = profile.partial_ballot(1).diagonal
        for voter in (2, 3):
            assert np.allclose(profile.partial_ballot(voter).diagonal, first)

    @pytest.mark.parametrize("m", [3, 4])
    def test_correlated_marginal_adds_the_weights_in_term_order(self, m):
        # The reference is the per-term loop; the marginal must have its bits.
        space = RankingSpace(AlternativeSet(tuple("abcd")[:m]))
        rng = random.Random(m)
        for _ in range(20):
            raw = [rng.random() for _ in range(rng.randint(1, 40))]
            keys = [tuple(rng.randrange(space.dim) for _ in range(3)) for _ in raw]
            profile = ProfileState.correlated_indices(space, [(w / sum(raw), key) for w, key in zip(raw, keys)])
            for voter in (1, 2, 3):
                loop = np.zeros(space.dim)
                for weight, key in profile.joint:
                    loop[key[voter - 1]] += weight
                expected = loop / loop.sum()
                assert profile.partial_ballot(voter).diagonal.tobytes() == expected.tobytes()

    def test_bad_voter_index(self, split_top_profile):
        with pytest.raises(InvalidArgument):
            split_top_profile.partial_ballot(0)
        with pytest.raises(InvalidArgument):
            split_top_profile.partial_ballot(3)

    def test_support_tuples_product(self, alts3, space3):
        half = mixed_state(space3, [(0.5, rk(alts3, "a>b>c")), (0.5, rk(alts3, "b>a>c"))])
        point = basis_state(space3, rk(alts3, "a>b>c"))
        profile = ProfileState.product_of([half, point])
        tuples = profile.support_tuples()
        assert len(tuples) == 2
        assert sum(w for w, _ in tuples) == pytest.approx(1.0)
        assert all(w == pytest.approx(0.5) for w, _ in tuples)

    def test_support_cap(self, alts3, space3, monkeypatch):
        uniform = mixed_state(space3, [(1.0, r) for r in space3.rankings()])
        profile = ProfileState.product_of([uniform] * 3)
        monkeypatch.setattr(hilbert, "DEFAULT_SUPPORT_CAP", 100)
        with pytest.raises(ResourceLimit):
            profile.support_tuples()

    def test_support_cap_counts_distinct_correlated_keys(self, alts3, space3, monkeypatch):
        # 101 distinct kept keys pass a cap of 100; 101 terms on 100 distinct keys merge to 100 and pass it.
        keys = list(product(range(6), repeat=3))
        monkeypatch.setattr(hilbert, "DEFAULT_SUPPORT_CAP", 100)
        with pytest.raises(ResourceLimit, match="^profile support exceeds 100 ranking combinations$"):
            ProfileState.correlated_indices(space3, [(1.0, key) for key in keys[:101]]).support_tuples()
        merged = ProfileState.correlated_indices(space3, [(1.0, key) for key in keys[:100] + keys[:1]])
        support = merged.support_tuples()
        assert [key for _, key in support] == keys[:100]
        assert support[0][0] == 2 * support[1][0]

    def test_substitute_ballot_product(self, alts3, space3, split_top_profile):
        replacement = basis_state(space3, rk(alts3, "c>b>a"))
        profile = ProfileState.product_of(
            [basis_state(space3, rk(alts3, "a>b>c")), basis_state(space3, rk(alts3, "b>a>c"))]
        )
        swapped = profile.substitute_ballot(2, replacement)
        assert np.allclose(swapped.factors[0].matrix, profile.factors[0].matrix)
        assert np.allclose(swapped.factors[1].matrix, replacement.matrix)

    def test_substitute_ballot_correlated_keeps_others(self, alts3, space3):
        profile = ProfileState.correlated(
            space3,
            [
                (0.5, (rk(alts3, "a>b>c"), rk(alts3, "a>b>c"))),
                (0.5, (rk(alts3, "b>a>c"), rk(alts3, "b>a>c"))),
            ],
        )
        replacement = mixed_state(
            space3, [(0.5, rk(alts3, "c>a>b")), (0.5, rk(alts3, "c>b>a"))]
        )
        swapped = profile.substitute_ballot(2, replacement)
        # Voter 1's marginal is untouched, voter 2's becomes the replacement.
        one = swapped.partial_ballot(1).diagonal
        assert one[0] == pytest.approx(0.5) and one[2] == pytest.approx(0.5)
        assert np.allclose(swapped.partial_ballot(2).diagonal, replacement.diagonal)

    @pytest.mark.parametrize("m", [3, 4])
    def test_substitute_ballot_correlated_writes_one_column(self, m):
        # The substitution before it wrote one column: terms merged by key,
        # sorted, and renormalized. Its marginals and support still agree.
        def merged(profile, voter, ballot, eps=1e-9):
            terms = {}
            for weight, indices in profile.joint:
                for k, wk in ballot.diagonal_support(eps):
                    key = indices[: voter - 1] + (k,) + indices[voter:]
                    terms[key] = terms.get(key, 0.0) + weight * wk
            total = sum(terms.values())
            return ProfileState(profile.space, joint=tuple((w / total, key) for key, w in sorted(terms.items())))

        space = RankingSpace(AlternativeSet(tuple("abcd")[:m]))
        rankings = space.rankings()
        rng = random.Random(m)
        checked = 0
        for _ in range(20):
            raw = [rng.random() for _ in range(rng.randint(1, 6))]
            # Repeated tuples and shared rankings would make terms merge.
            pool = [tuple(rng.choice(rankings) for _ in range(3)) for _ in range(3)]
            profile = ProfileState.correlated(
                space, [(w / sum(raw), rng.choice(pool)) for w in raw]
            )
            if rng.random() < 0.5:
                ballot = random_diagonal_state(space, rng)
            else:
                ballot = mixed_state(space, [(rng.random(), rng.choice(rankings)) for _ in range(3)])
            support = ballot.diagonal_support(1e-9)
            total = 0.0
            for _, wk in support:
                total += wk
            for voter in (1, 2, 3):
                got = profile.substitute_ballot(voter, ballot)
                # Joint-major, then the ballot's support in basis order.
                want = [
                    (w * wk / total, key[: voter - 1] + (k,) + key[voter:])
                    for w, key in profile.joint
                    for k, wk in support
                ]
                assert [key for _, key in got.joint] == [key for _, key in want]
                assert [w for w, _ in got.joint] == [w for w, _ in want]  # bit for bit
                point = profile.substitute_ballot(voter, basis_state(space, rng.choice(rankings)))
                assert [w for w, _ in point.joint] == [w for w, _ in profile.joint]  # bit for bit
                reference = merged(profile, voter, ballot)
                for v in (1, 2, 3):
                    np.testing.assert_allclose(
                        got.partial_ballot(v).diagonal, reference.partial_ballot(v).diagonal, rtol=0.0, atol=1e-15
                    )
                tuples, reference_tuples = got.support_tuples(), reference.support_tuples()
                assert [key for _, key in tuples] == [key for _, key in reference_tuples]
                np.testing.assert_allclose(
                    [w for w, _ in tuples], [w for w, _ in reference_tuples], rtol=0.0, atol=1e-15
                )
                checked += len(got.joint)
        assert checked > 0

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_support_tuples_product_matches_the_merged_sort(self, m):
        space = RankingSpace(AlternativeSet(tuple("abcde")[:m]))
        rng = random.Random(m)
        for _ in range(30):
            ballots = [near_eps_ballot(space, rng) for _ in range(rng.randint(1, 4))]
            profile = ProfileState.product_of(ballots)
            got = profile.support_tuples()
            want = reference_support_tuples([b.diagonal_support(1e-9) for b in ballots])
            assert [key for _, key in got] == [key for _, key in want]
            assert [w for w, _ in got] == [w for w, _ in want]  # bit for bit

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_support_tuples_correlated_matches_the_merged_sort(self, m):
        space = RankingSpace(AlternativeSet(tuple("abcde")[:m]))
        rankings = space.rankings()
        rng = random.Random(10 + m)
        for _ in range(30):
            n = rng.randint(1, 4)
            # Repeated tuples merge; terms of weight at or below eps are dropped.
            pool = [tuple(rng.choice(rankings) for _ in range(n)) for _ in range(4)]
            light = [1e-9, 5e-10, np.nextafter(1e-9, 0.0), np.nextafter(1e-9, 1.0)][: rng.randint(0, 4)]
            raw = [rng.random() for _ in range(rng.randint(1, 8))]
            heavy = [w * (1.0 - sum(light)) / sum(raw) for w in raw]
            terms = [(float(w), rng.choice(pool)) for w in heavy + light]
            rng.shuffle(terms)
            profile = ProfileState.correlated(space, terms)
            got = profile.support_tuples()
            combos = {}
            for (weight, _), (_, rankings) in zip(profile.joint, terms):
                if weight > 1e-9:
                    key = lehmer_key(rankings)
                    combos[key] = combos.get(key, 0.0) + weight
            total = sum(combos.values())
            want = [(w / total, key) for key, w in sorted(combos.items())]
            assert [key for _, key in got] == [key for _, key in want]
            assert [w for w, _ in got] == [w for w, _ in want]  # bit for bit

    @pytest.mark.parametrize("form", ["product", "correlated"])
    def test_permuted_moves_each_voters_weights(self, form):
        space = RankingSpace(AlternativeSet(tuple("abcd")))
        rankings = space.rankings()
        rng = random.Random(5)
        for _ in range(10):
            if form == "product":
                profile = ProfileState.product_of(
                    [random_diagonal_state(space, rng), random_pure_state(space, rng)]
                )
            else:
                raw = [rng.random() for _ in range(5)]
                profile = ProfileState.correlated(
                    space, [(w / sum(raw), (rng.choice(rankings), rng.choice(rankings))) for w in raw]
                )
            perms = [rng.sample(range(space.dim), space.dim) for _ in range(2)]
            twin = profile.permuted(perms)
            assert (twin.factors is None) == (profile.factors is None)
            assert (twin.joint is None) == (profile.joint is None)
            for v, perm in enumerate(perms):
                before = profile.partial_ballot(v + 1).diagonal
                after = twin.partial_ballot(v + 1).diagonal
                np.testing.assert_allclose(after[perm], before, rtol=0.0, atol=1e-15)

    def test_permuted_pure_ballots_move_their_weights_bit_for_bit(self, space4):
        rankings = space4.rankings()
        rng = random.Random(40)
        for _ in range(200):
            terms = [(complex(rng.gauss(0, 1), rng.gauss(0, 1)), r) for r in rng.sample(rankings, 3)]
            ballot = pure_state(space4, terms)
            perm = rng.sample(range(space4.dim), space4.dim)
            for twin in (ballot.permuted(perm), ProfileState.product_of([ballot]).permuted([perm]).factors[0]):
                assert twin.diagonal[perm].tobytes() == ballot.diagonal.tobytes()
                # The amplitudes move under one global phase, which puts the first above eps on the positive reals.
                moved, top = twin.amplitudes[perm], int(np.argmax(np.abs(ballot.amplitudes)))
                np.testing.assert_allclose(moved, ballot.amplitudes * (moved[top] / ballot.amplitudes[top]), atol=1e-15)
                lead = twin.amplitudes[np.flatnonzero(np.abs(twin.amplitudes) > 1e-9)[0]]
                assert lead.imag == 0.0 and lead.real > 0.0

    def test_a_permuted_pure_ballot_stays_pure_at_a_small_eps(self, alts3, space3):
        ballot = pure_state(space3, [(1.0, rk(alts3, "a>b>c")), (1e-10, rk(alts3, "b>a>c"))], eps=1e-12)
        perm = [5, 4, 3, 2, 1, 0]
        twins = [ballot.permuted(perm), ProfileState.product_of([ballot]).permuted([perm]).factors[0]]
        for twin in twins:
            assert serialize_density(twin, 1e-12) == {"pure": [[1e-10, 0.0, "b>c>a"], [1.0, 0.0, "c>b>a"]]}
            assert twin.diagonal[perm].tobytes() == ballot.diagonal.tobytes()

    def test_support_queries_write_nothing_to_the_states(self, space3):
        ballot = DensityOperator(space3, np.full(6, 1 / 6))
        profile = ProfileState.product_of([ballot, ballot])
        ballot.diagonal_support(1e-9)
        profile.support_tuples(1e-9)
        profile.support_tuples(1e-6)
        assert vars(ballot).keys() == {"space", "diagonal", "amplitudes"}

    def test_totals_add_left_to_right(self, space4):
        # Python 3.12's sum() compensates: it totals ten 0.1 weights to 1.0,
        # left to right they make 0.9999999999999999. Reports keep the latter.
        left = 0.0
        for _ in range(10):
            left += 0.1
        assert left != math.fsum([0.1] * 10)
        tenths = np.zeros(space4.dim)
        tenths[:10] = 0.1
        ballot = DensityOperator(space4, tenths)
        correlated = ProfileState(space4, joint=tuple((0.1, (k,)) for k in range(10)))
        one = ProfileState(space4, joint=((1.0, (23,)),))
        for profile in (ProfileState.product_of([ballot]), correlated):
            assert [w for w, _ in profile.support_tuples()] == [0.1 / left] * 10
        assert [w for w, _ in one.substitute_ballot(1, ballot).joint] == [0.1 / left] * 10

    def test_correlated_refusals(self, alts3, space3):
        abc, bac = rk(alts3, "a>b>c"), rk(alts3, "b>a>c")
        other = Ranking.from_string(AlternativeSet(("x", "y", "z")), "x>y>z")
        with pytest.raises(InvalidArgument, match="ranking belongs to a different alternative set"):
            ProfileState.correlated(space3, [(0.5, (abc, abc)), (0.5, (abc, other))])
        with pytest.raises(InvalidArgument, match="all correlated terms must rank the same voters"):
            ProfileState.correlated(space3, [(0.5, (abc, abc)), (0.5, (bac,))])
        for weight in (0.0, -0.5):
            with pytest.raises(InvalidArgument, match="correlated weights must be positive"):
                ProfileState.correlated(space3, [(1.0 - weight, (abc,)), (weight, (bac,))])
        # Weights that do not sum to 1 normalize, to the document route's bits.
        document = {"alternatives": ["a", "b", "c"], "correlated": [[0.5, ["a>b>c"]], [0.4, ["b>a>c"]]]}
        joint = ProfileState.correlated(space3, [(0.5, (abc,)), (0.4, (bac,))]).joint
        assert [(w.hex(), key) for w, key in joint] == [(w.hex(), key) for w, key in parse_profile(document).joint]

    def test_forms_are_exclusive(self, space3, alts3):
        with pytest.raises(InvalidArgument):
            ProfileState(space3)

    def test_empty_basis_profile_rejected(self):
        with pytest.raises(InvalidArgument):
            ProfileState.basis([])


class TestAlternativeState:
    def test_validation(self, alts3):
        state = alternative_state(alts3, {"a": 0.5, "b": 0.5})
        assert state["c"] == 0.0
        with pytest.raises(InvalidArgument):
            alternative_state(alts3, {"a": 0.9})
        with pytest.raises(InvalidArgument):
            alternative_state(alts3, {"a": 1.5, "b": -0.5})

    @pytest.mark.parametrize("value", [10**400, -(10**400)])
    def test_a_probability_past_the_float_range_is_refused(self, alts3, value):
        # Read as the infinity of its sign, as a weight is (``_as_float``), not raised as an OverflowError.
        shown = "inf" if value > 0 else "-inf"
        with pytest.raises(InvalidArgument, match=f"^probability for 'a' out of \\[0, 1\\]: {shown}$"):
            alternative_state(alts3, {"a": value})

    @pytest.mark.parametrize("label", ["z", 0, ("a",)])
    def test_a_label_outside_the_set_is_refused(self, alts3, label):
        with pytest.raises(InvalidArgument, match=f"^unknown alternative {re.escape(repr(label))}$"):
            alternative_state(alts3, {"a": 1.0, label: 0.5})


class TestNanIsRefused:
    def test_diagonal_state(self, space3):
        weights = np.full(space3.dim, 1 / 6)
        weights[3] = np.nan
        with pytest.raises(InvalidArgument, match="nan"):
            hilbert.diagonal_state(space3, weights)

    def test_correlated_indices(self, space3):
        terms = [(0.5, (0, 1)), (math.nan, (1, 0)), (0.5, (2, 2))]
        with pytest.raises(InvalidArgument, match="^correlated weights must be positive, got nan$"):
            ProfileState.correlated_indices(space3, terms)

    def test_alternative_state(self, alts3):
        with pytest.raises(InvalidArgument, match="^probability for 'b' out of \\[0, 1\\]: nan$"):
            alternative_state(alts3, {"a": 0.5, "b": math.nan, "c": 0.5})


SECOND = Ranking.from_string(AlternativeSet(("a", "b", "c")), "b>a>c")


class TestTermsMustBeNumbers:
    """A weight, probability or amplitude given as a string or None is refused, not read as the number it spells."""

    BUILDERS = {
        "mixed_state": lambda alts, space, value: mixed_state(space, [(value, rk(alts, "a>b>c")), (0.5, SECOND)]),
        "pure_state": lambda alts, space, value: pure_state(space, [(1.0, rk(alts, "a>b>c")), (value, SECOND)]),
        "correlated_indices": lambda alts, space, value: ProfileState.correlated_indices(space, [(value, (0, 1))]),
        "alternative_state": lambda alts, space, value: alternative_state(alts, {"a": value}),
    }
    NAMES = {
        "mixed_state": "mixture weight",
        "pure_state": "amplitude",
        "correlated_indices": "correlated weight",
        "alternative_state": "probability for 'a'",
    }

    @pytest.mark.parametrize("value", ["0.5", "1", "1j", b"1", None])
    @pytest.mark.parametrize("builder", list(BUILDERS))
    def test_non_numbers_are_refused(self, alts3, space3, builder, value):
        message = f"^{re.escape(self.NAMES[builder])} must be a number, got {re.escape(repr(value))}$"
        with pytest.raises(InvalidArgument, match=message):
            self.BUILDERS[builder](alts3, space3, value)

    @pytest.mark.parametrize("builder", list(BUILDERS))
    def test_numpy_scalars_read_as_numbers(self, alts3, space3, builder):
        build = self.BUILDERS[builder]
        for scalar in (np.float64(1.0), np.int64(1), np.float32(1.0)):
            state, expected = build(alts3, space3, scalar), build(alts3, space3, 1.0)
            for field in ("diagonal", "amplitudes", "joint", "probabilities"):
                got, want = getattr(state, field, None), getattr(expected, field, None)
                assert np.array_equal(got, want) if isinstance(got, np.ndarray) else got == want


class TestBasisIndices:
    """A basis index must be an integer in 0..d-1 wherever a caller gives one."""

    @pytest.mark.parametrize("key", [(0, 99), (0, -1), (0.0, 1.7), (0.0, 1.0), (0, 10**30)])
    def test_correlated_indices(self, space3, key):
        with pytest.raises(InvalidArgument, match=re.escape(f"ranking indices must lie in 0..5, got {list(key)}")):
            ProfileState.correlated_indices(space3, [(0.5, (1, 2)), (0.5, key)])

    def test_numpy_integers_are_integers(self, space3):
        profile = ProfileState.correlated_indices(space3, [(1.0, (np.int64(4), 5))])
        assert profile.partial_ballot(1).diagonal[4] == 1.0

    def test_bools_read_as_0_and_1(self, space3):
        # As every other reader of a key does; numpy would read a bool scalar as a mask.
        profile = ProfileState.correlated_indices(space3, [(0.25, (True, 0)), (0.75, (False, 1))])
        assert profile.partial_ballot(1).diagonal.tolist() == [0.75, 0.25, 0, 0, 0, 0]
        assert profile.partial_ballot(2).diagonal.tolist() == [0.25, 0.75, 0, 0, 0, 0]

    def test_an_index_past_the_digit_limit_is_refused(self, alts3, space3):
        # str() of an integer past 4,300 digits raises, so the message does not show it.
        message = "^ranking indices must lie in 0..5, got an integer too long to print$"
        with pytest.raises(InvalidArgument, match=message):
            ProfileState.correlated_indices(space3, [(1.0, (10**5000, 0))])
        with pytest.raises(InvalidArgument, match=message):
            qcv_basis(alts3, [10**5000, 0], QcvParams.for_alternatives(3))

    def test_a_weight_past_the_float_range_is_refused(self, space3):
        with pytest.raises(InvalidArgument, match="^correlated weights must be finite, got inf$"):
            ProfileState.correlated_indices(space3, [(10**400, (0,))])
        with pytest.raises(InvalidArgument, match="^correlated weights must be positive, got -inf$"):
            ProfileState.correlated_indices(space3, [(-(10**400), (0,))])

    @pytest.mark.parametrize("key", [5, 10**5000, "01", None], ids=["int", "long-int", "str", "none"])
    def test_a_key_that_is_no_sequence_is_refused(self, space3, key):
        # Refused before its length is read: len() of an integer raises TypeError.
        message = f"^a correlated key must be a sequence of basis indices, got {type(key).__name__}$"
        with pytest.raises(InvalidArgument, match=message):
            ProfileState.correlated_indices(space3, [(1.0, key)])
        with pytest.raises(InvalidArgument, match=message):
            ProfileState.correlated_indices(space3, [(0.5, (0,)), (0.5, key)])


class TestValidate:
    """``DensityOperator.validate`` checks the weights every rule reads, and no dense matrix."""

    def test_amplitudes_must_give_the_weights(self, space3):
        e0 = np.eye(space3.dim)[0]
        state = DensityOperator(space3, [0.5, 0.5, 0, 0, 0, 0], amplitudes=e0)
        with pytest.raises(InvalidArgument, match="^amplitudes do not square to the basis weights"):
            state.validate()

    def test_nan_weight(self, space3):
        with pytest.raises(InvalidArgument, match="nan"):
            DensityOperator(space3, [math.nan, 1, 0, 0, 0, 0]).validate()

    def test_m6_builds_no_matrix(self, monkeypatch):
        space = RankingSpace(AlternativeSet(tuple("abcdef")))
        rng = random.Random(6)
        states = [random_diagonal_state(space, rng), random_pure_state(space, rng)]
        assert states[1].amplitudes is not None

        def refuse(*args, **kwargs):
            raise AssertionError("a dense matrix was built")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        monkeypatch.setattr(DensityOperator, "matrix", property(refuse))
        for state in states:
            state.validate()


class TestValidationClosure:
    def test_every_operation_output_validates(self, alts3, space3):
        outputs = [
            pure_state(space3, [(ROOT2, rk(alts3, "a>b>c")), (ROOT2 * 1j, rk(alts3, "c>a>b"))]),
            mixed_state(space3, [(0.3, rk(alts3, "a>b>c")), (0.7, rk(alts3, "b>c>a"))]),
            basis_state(space3, rk(alts3, "c>b>a")),
            uniform_subspace_state(space3, "b", "c"),
        ]
        uniform = mixed_state(space3, [(1.0, r) for r in space3.rankings()])
        outputs.append(project_and_renormalize(uniform, pair_projector(space3, "a", "c")))
        correlated = ProfileState.correlated(
            space3,
            [(0.5, (rk(alts3, "a>b>c"),) * 2), (0.5, (rk(alts3, "b>a>c"),) * 2)],
        )
        outputs.append(correlated.partial_ballot(1))
        for state in outputs:
            state.validate()


class TestDensityTerms:
    """A ballot's term-list form, written by ``serialize_density`` and read by ``parse_density``."""

    def test_mixed_roundtrip(self, alts3, space3):
        state = mixed_state(space3, [(0.25, rk(alts3, "a>b>c")), (0.75, rk(alts3, "c>b>a"))])
        document = serialize_density(state)
        assert document == {"mixed": [[0.25, "a>b>c"], [0.75, "c>b>a"]]}
        rebuilt = parse_density(space3, document)
        assert rebuilt.amplitudes is None
        assert np.allclose(rebuilt.matrix, state.matrix, atol=1e-12)

    def test_pure_roundtrip(self, alts3, space3):
        state = pure_state(
            space3,
            [(0.6, rk(alts3, "a>b>c")), (0.8j, rk(alts3, "b>c>a"))],
        )
        document = serialize_density(state)
        assert document == {"pure": [[0.6, 0.0, "a>b>c"], [0.0, 0.8, "b>c>a"]]}
        rebuilt = parse_density(space3, document)
        assert rebuilt.amplitudes is not None
        assert np.allclose(rebuilt.matrix, state.matrix, atol=1e-9)


class TestFromMatrix:
    def test_diagonal_matrix_stored_as_weights(self, alts3, space3):
        state = mixed_state(space3, [(0.25, rk(alts3, "a>b>c")), (0.75, rk(alts3, "c>b>a"))])
        rebuilt = DensityOperator.from_matrix(space3, state.matrix)
        assert rebuilt.amplitudes is None
        assert np.array_equal(rebuilt.diagonal, state.diagonal)

    def test_rank_one_matrix_keeps_amplitudes(self, alts3, space3):
        state = pure_state(space3, [(0.6j, rk(alts3, "b>a>c")), (0.8, rk(alts3, "c>a>b"))])
        rebuilt = DensityOperator.from_matrix(space3, state.matrix)
        assert np.allclose(rebuilt.matrix, state.matrix, atol=1e-12)
        assert rebuilt.amplitudes is not None
        assert rebuilt.amplitudes[np.flatnonzero(np.abs(rebuilt.amplitudes) > 1e-9)[0]].imag == 0.0

    def test_coherent_mixture_rejected(self, alts3, space3):
        half = pure_state(space3, [(ROOT2, rk(alts3, "a>b>c")), (ROOT2, rk(alts3, "a>c>b"))])
        point = basis_state(space3, rk(alts3, "b>a>c"))
        with pytest.raises(InvalidArgument, match="no term-list form"):
            DensityOperator.from_matrix(space3, 0.5 * half.matrix + 0.5 * point.matrix)

    def test_callers_arrays_are_copied(self, alts3, space3):
        # A complex128 matrix enters from_matrix without a cast; the state must
        # still own its weights, like a state built from a caller's vector.
        matrix = mixed_state(space3, [(0.25, rk(alts3, "a>b>c")), (0.75, rk(alts3, "c>b>a"))]).matrix
        weights = np.real(matrix.diagonal()).copy()
        from_matrix = DensityOperator.from_matrix(space3, matrix)
        direct = DensityOperator(space3, weights)
        matrix[0, 0] = weights[0] = 0.5
        for state in (from_matrix, direct):
            assert state.diagonal[0] == 0.25 and not state.diagonal.flags.writeable

    def test_one_decomposition_per_call(self, alts3, space3, monkeypatch):
        # A near-diagonal matrix is decomposed by eigvalsh, any other by one eigh, whose
        # values give the PSD check and the purity and whose last column the vector.
        calls = []

        def counted(name):
            decompose = getattr(np.linalg, name)

            def call(matrix):
                calls.append(name)
                return decompose(matrix)

            return call

        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, counted(name))
        half = pure_state(space3, [(ROOT2, rk(alts3, "a>b>c")), (ROOT2, rk(alts3, "a>c>b"))])
        point = basis_state(space3, rk(alts3, "b>a>c"))
        coherent_negative = half.matrix - 0.5 * point.matrix + 0.5 * basis_state(space3, rk(alts3, "c>b>a")).matrix
        cases = [
            (point.matrix, "eigvalsh", None),
            (half.matrix, "eigh", None),
            (0.5 * half.matrix + 0.5 * point.matrix, "eigh", "density has no term-list form"),
            (coherent_negative, "eigh", "density has negative eigenvalue -0.5"),
        ]
        for matrix, decomposition, refused in cases:
            calls.clear()
            if refused is None:
                DensityOperator.from_matrix(space3, matrix)
            else:
                with pytest.raises(InvalidArgument, match=refused):
                    DensityOperator.from_matrix(space3, matrix)
            assert calls == [decomposition]
        calls.clear()
        validate_density(half.matrix, 6)
        assert calls == ["eigvalsh"]

    def test_invalid_matrix_rejected(self, space3):
        with pytest.raises(InvalidArgument):
            DensityOperator.from_matrix(space3, np.eye(6))  # trace 6

    # np.allclose reads inf as close to inf, and eigh fails to converge on one; NaN was read as "not Hermitian".
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize(
        "check", [DensityOperator.from_matrix, lambda space, matrix: validate_density(matrix, space.dim)],
        ids=["from_matrix", "validate_density"],
    )
    def test_non_finite_entries_rejected(self, space3, check, value):
        matrix = np.eye(6, dtype=np.complex128) / 6
        matrix[0, 1] = matrix[1, 0] = value
        with pytest.raises(InvalidArgument, match="^density has a non-finite entry$"):
            check(space3, matrix)
        matrix = np.eye(6, dtype=np.complex128) / 6
        matrix[2, 2] = value
        with pytest.raises(InvalidArgument, match="^density has a non-finite entry$"):
            check(space3, matrix)

    def test_overflowing_inputs_rejected(self, alts3, space3):
        # Squares and sums of these terms overflow, but the builders scale the terms first:
        # each ballot normalizes, and its matrix round-trips.
        a, b = rk(alts3, "a>b>c"), rk(alts3, "b>a>c")
        for build in (pure_state, mixed_state):
            state = build(space3, [(1e308, a), (1e308, b)])
            assert state.diagonal[[space3.basis_index(a), space3.basis_index(b)]].tolist() == pytest.approx([0.5, 0.5])
            rebuilt = DensityOperator.from_matrix(space3, state.matrix)
            assert np.allclose(rebuilt.matrix, state.matrix, atol=1e-12)


def _negative_eigenvalue_matrix():
    """Hermitian with unit trace, but weight -0.5 on the second ranking."""
    matrix = np.zeros((6, 6))
    matrix[0, 0], matrix[1, 1] = 1.5, -0.5
    return matrix


def _first_basis(space):
    return basis_state(space, space.rankings()[0])


SPACE3 = RankingSpace(AlternativeSet(("a", "b", "c")))
SPACE4 = RankingSpace(AlternativeSet(("a", "b", "c", "d")))

# Each refusal on a three-alternative space, and the message it raises.
REFUSALS = {
    "matrix-shape": (
        lambda: DensityOperator.from_matrix(SPACE3, np.eye(4) / 4), "density must be 6x6, got (4, 4)"
    ),
    "negative-eigenvalue": (
        lambda: DensityOperator.from_matrix(SPACE3, _negative_eigenvalue_matrix()),
        "density has negative eigenvalue -0.5",
    ),
    "weights-length": (lambda: DensityOperator(SPACE3, [1.0, 0.0, 0.0]), "diagonal must have length 6, got (3,)"),
    "diagonal-state-length": (
        lambda: hilbert.diagonal_state(SPACE3, [1.0, 0.0, 0.0]), "diagonal must have length 6, got (3,)"
    ),
    "product-of-nothing": (lambda: ProfileState.product_of([]), "profile needs at least one voter"),
    "product-across-spaces": (
        lambda: ProfileState.product_of([_first_basis(SPACE3), _first_basis(SPACE4)]),
        "all ballots must share one ranking space",
    ),
    "correlated-no-terms": (
        lambda: ProfileState.correlated_indices(SPACE3, []), "correlated profile needs at least one term"
    ),
    "correlated-no-voters": (
        lambda: ProfileState.correlated_indices(SPACE3, [(1.0, ())]), "correlated profile needs at least one voter"
    ),
    "support-below-eps": (  # every weight 1/6, none above eps 0.2
        lambda: ProfileState.product_of([hilbert.diagonal_state(SPACE3, np.full(6, 1 / 6))]).support_tuples(0.2),
        "profile has no diagonal support",
    ),
    "substitute-across-spaces": (
        lambda: ProfileState.product_of([_first_basis(SPACE3)]).substitute_ballot(1, _first_basis(SPACE4)),
        "replacement ballot lives on a different space",
    ),
}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_refusal_names_its_fault(case):
    build, message = REFUSALS[case]
    with pytest.raises(InvalidArgument, match=f"^{re.escape(message)}$"):
        build()
