import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsc import (
    AlternativeSet,
    DensityOperator,
    InvalidArgument,
    ProfileState,
    Ranking,
    RankingSpace,
    ResourceLimit,
    ZeroMassProjection,
    alternative_state,
    basis_state,
    density_terms,
    mixed_state,
    pair_projector,
    project_and_renormalize,
    pure_state,
    support_probability,
    uniform_subspace_state,
    winner_projector,
)

from oracles import ranks_above

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

    def test_support_cap(self, alts3, space3):
        uniform = mixed_state(space3, [(1.0, r) for r in space3.rankings()])
        profile = ProfileState.product_of([uniform] * 3)
        with pytest.raises(ResourceLimit):
            profile.support_tuples(cap=100)

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
    def test_mixed_roundtrip(self, alts3, space3):
        state = mixed_state(space3, [(0.25, rk(alts3, "a>b>c")), (0.75, rk(alts3, "c>b>a"))])
        kind, terms = density_terms(state)
        assert kind == "mixed"
        rebuilt = mixed_state(space3, terms)
        assert np.allclose(rebuilt.matrix, state.matrix, atol=1e-12)

    def test_pure_roundtrip(self, alts3, space3):
        state = pure_state(
            space3,
            [(0.6, rk(alts3, "a>b>c")), (0.8j, rk(alts3, "b>c>a"))],
        )
        kind, terms = density_terms(state)
        assert kind == "pure"
        rebuilt = pure_state(space3, terms)
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
        assert density_terms(rebuilt)[0] == "pure"
        assert rebuilt.amplitudes[np.flatnonzero(np.abs(rebuilt.amplitudes) > 1e-9)[0]].imag == 0.0

    def test_coherent_mixture_rejected(self, alts3, space3):
        half = pure_state(space3, [(ROOT2, rk(alts3, "a>b>c")), (ROOT2, rk(alts3, "a>c>b"))])
        point = basis_state(space3, rk(alts3, "b>a>c"))
        with pytest.raises(InvalidArgument, match="no term-list form"):
            DensityOperator.from_matrix(space3, 0.5 * half.matrix + 0.5 * point.matrix)

    def test_invalid_matrix_rejected(self, space3):
        with pytest.raises(InvalidArgument):
            DensityOperator.from_matrix(space3, np.eye(6))  # trace 6

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_inputs_rejected(self, alts3, space3):
        with pytest.raises(InvalidArgument):
            pure_state(space3, [(1e308, rk(alts3, "a>b>c")), (1e308, rk(alts3, "b>a>c"))])
        with pytest.raises(InvalidArgument):
            mixed_state(space3, [(1e308, rk(alts3, "a>b>c")), (1e308, rk(alts3, "b>a>c"))])
