import dataclasses
import hashlib
import json
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsc import (
    AlternativeSet,
    CandidateBallotFamily,
    ChoiceRule,
    DensityOperator,
    InvalidArgument,
    PreferenceKind,
    ProfileState,
    QcvParams,
    Ranking,
    RankingSpace,
    basis_state,
    check_composition_preservation,
    check_dictatorship,
    check_iia,
    check_onto,
    check_qic,
    check_unanimity,
    compose,
    default_paired_sampler,
    default_profile_sampler,
    dictator_rule,
    manipulation_witness,
    mixed_state,
    natural_extension,
    pair_projector,
    pure_state,
    qcv_rule,
    qcvne_rule,
    qcvne,
    ResourceLimit,
    reverify_witness,
    run_arrow_suite,
    run_gs_suite,
    support_probability,
    veto_rule,
    WelfareRule,
)
from qsc.axioms import (
    FAMILY_CAP,
    FAMILY_WEIGHT_CAP,
    VERDICT_DICTATOR_CANDIDATE,
    VERDICT_FALSIFIED,
    VERDICT_HOLDS,
    VERDICT_NO_DICTATOR,
    classify_value,
)
from qsc import axioms, choice, hilbert, welfare
from qsc.hilbert import diagonal_state
from qsc.serde import canonical_json, parse_density, parse_profile

from controls import (
    batch_hook,
    borda_welfare_rule,
    constant_choice_rule,
    reverse_mix_rule,
    reverse_rule,
    split_top_rule,
)
from stepwise import per_basis_loop, read_statuses

ROOT2 = 2 ** -0.5
PARAMS = QcvParams(0.05)
FAMILY = CandidateBallotFamily()
BASIS_SUP2 = CandidateBallotFamily(triple_superpositions=False, mixture_grid_step=0.0)
# Each generator alone; grid steps 0.3 and 0.07 do not divide 1.
GENERATORS = [
    CandidateBallotFamily(pair_superpositions=False, triple_superpositions=False, mixture_grid_step=0.0),
    CandidateBallotFamily(basis=False, triple_superpositions=False, mixture_grid_step=0.0),
    CandidateBallotFamily(basis=False, pair_superpositions=False, mixture_grid_step=0.0),
    *(
        CandidateBallotFamily(
            basis=False, pair_superpositions=False, triple_superpositions=False,
            mixture_grid_step=step,
        )
        for step in (0.25, 0.1, 0.3, 0.07)
    ),
    CandidateBallotFamily(
        basis=False, pair_superpositions=False, triple_superpositions=False,
        mixture_grid_step=0.0, random_pure=4, random_seed=2,
    ),
]


# sha256 over every ballot's diagonal and amplitude bytes, in family order, at
# m = 2, 3, 4 and eps 1e-9, 0.4 each: the bits the family held as one array
# per block, which ``axioms.per_ballot_family`` now builds one ballot at a time.
FAMILY_DIGESTS = dict(zip(
    [FAMILY, *GENERATORS, CandidateBallotFamily(mixture_grid_step=0.07, random_pure=3, random_seed=5)],
    [
        "65883a21a58194a8c6af2f48f0ded873d2a77088a7ce35cefeae1d33c190e69f",
        "de5f5be97bd12518e269f4339d6232981967d082739a11d42f19609d1a97d67d",
        "803b418bfc13adb036ff7dfd2ec5ad72ff3fcfe8d5fc635ab2b6eb0458f490a4",
        "9f61bdeb0dfb91090fbc53e16fc625c8201a17a1fedabd028b32c639323e8663",
        "44330da0fd63494865daac06d92f46a1ed9b9a52e629e0f4ec703bdcc3036dcd",
        "0c788b3fc427735ab0b61bd2f363e498faf47901cb7ba616910c61d476701fc8",
        "b79a994e2e7995e90db96ba8c28c1c4d3311f6195c040992ad70358938feb653",
        "ad0eccd522872f42613dc63a4e8e004a34bf8a8d9627285ae65f93afdb6bf738",
        "2d2dceb018fb12e19c736af861b3ce266182ef4f6c7d2e8e0b52085fad2a339d",
        "f22a76852bdc1655c2f4fd480ff714e3ddd6e40628cb18f062460f3b8c76d4f1",
    ],
))


def refuse_to_build(*args):
    raise AssertionError("the family was built")


def space_of(m):
    return RankingSpace(AlternativeSet(tuple("abcdef")[:m]))


def rk(alts, text):
    return Ranking.from_string(alts, text)


@pytest.fixture(scope="module")
def veto_setup(alts3, space3):
    """Voter 1 honestly torn between two a-top orders, voter 2 backing b."""
    pet = rk(alts3, "a>b>c")
    rule = veto_rule(pet)
    truthful = pure_state(
        space3, [(ROOT2, rk(alts3, "a>b>c")), (ROOT2, rk(alts3, "a>c>b"))]
    )
    profile = ProfileState.product_of([truthful, basis_state(space3, rk(alts3, "b>a>c"))])
    return rule, profile


def classify_preference(ballot, x, y, eps=1e-9):
    """How a ballot reads on ranking x above y, as the manipulation scan classifies it."""
    return classify_value(support_probability(ballot, pair_projector(ballot.space, x, y), eps), eps)


class TestClassifyPreference:
    def test_shared_pair_is_strong_positive(self, xyz, split_top_profile):
        rho1 = split_top_profile.partial_ballot(1)
        assert classify_preference(rho1, "x", "z") is PreferenceKind.STRONG_POSITIVE

    def test_complement_is_strong_negative(self, xyz, split_top_profile):
        rho1 = split_top_profile.partial_ballot(1)
        assert classify_preference(rho1, "z", "x") is PreferenceKind.STRONG_NEGATIVE

    def test_split_pair_is_weak(self, xyz, split_top_profile):
        rho1 = split_top_profile.partial_ballot(1)
        assert classify_preference(rho1, "x", "y") is PreferenceKind.WEAK

    def test_boundary_prefers_strong_negative(self, alts3, space3):
        # Exactly eps of support classifies as strong negative, not weak.
        state = mixed_state(
            space3, [(1e-9, rk(alts3, "a>b>c")), (1 - 1e-9, rk(alts3, "b>a>c"))]
        )
        assert classify_preference(state, "a", "b", eps=1e-9) is PreferenceKind.STRONG_NEGATIVE


class TestPreferenceKind:
    """``PreferenceKind.holds`` defines certain, excluded and supported for every check."""

    @pytest.mark.parametrize("eps", [1e-9, 1e-3])
    def test_thresholds_one_ulp_either_side(self, eps):
        low = [np.nextafter(eps, 0.0), eps, np.nextafter(eps, 1.0)]
        high = [np.nextafter(1.0 - eps, 0.0), 1.0 - eps, np.nextafter(1.0 - eps, 1.0)]
        expected = {
            PreferenceKind.STRONG_NEGATIVE: [True, True, False, False, False, False],
            PreferenceKind.WEAK: [False, False, True, True, True, True],
            PreferenceKind.STRONG_POSITIVE: [False, False, False, False, True, True],
        }
        for kind, want in expected.items():
            assert [kind.holds(float(v), eps) for v in low + high] == want
            elementwise = kind.holds(np.array(low + high), eps)
            assert elementwise.dtype == bool and elementwise.tolist() == want

    def test_classify_value_lets_the_negative_kind_win(self):
        assert classify_value(1e-9, 1e-9) is PreferenceKind.STRONG_NEGATIVE
        assert classify_value(np.nextafter(1e-9, 1.0), 1e-9) is PreferenceKind.WEAK
        assert classify_value(1.0 - 1e-9, 1e-9) is PreferenceKind.STRONG_POSITIVE
        # Where excluded and certain overlap, the value is excluded.
        assert classify_value(0.5, 0.5) is PreferenceKind.STRONG_NEGATIVE


class TestFiredClauses:
    """A clause fires when the voter's value holds it and society's does not, in enum order."""

    @pytest.mark.parametrize("eps", [1e-12, 1e-9, 1e-3])
    def test_clauses_one_ulp_either_side_of_each_threshold(self, alts3, space3, eps):
        sp, sn, weak = PreferenceKind.STRONG_POSITIVE, PreferenceKind.STRONG_NEGATIVE, PreferenceKind.WEAK
        values = [eps, np.nextafter(eps, 1.0), 1.0 - eps, np.nextafter(1.0 - eps, 0.0)]
        # The clauses fired for each value against society at 0.5 (neither
        # certain nor excluded), then at 0 (excluded), for a welfare rule.
        fired = [([sn], []), ([], [weak]), ([sp], [sp, weak]), ([], [weak])]
        inside, outside = (space3.basis_index(rk(alts3, text)) for text in ("a>b>c", "b>a>c"))
        other = basis_state(space3, rk(alts3, "c>b>a"))
        for rule, target in ((qcv_rule(PARAMS), ("a", "b")), (qcvne_rule(PARAMS), "a")):
            adapter = axioms._Targets(rule, space3, eps)
            for value, want in zip(values, fired):
                # a>b>c lies inside both targets and b>a>c outside both, so the value is exact.
                weights = np.zeros(space3.dim)
                weights[inside], weights[outside] = value, 1.0 - value
                profile = ProfileState.product_of([DensityOperator(space3, weights), other])
                for society, clauses in zip((0.5, 0.0), want):
                    # A choice rule's strong-negative clause is not hunted.
                    clauses = [c for c in clauses if adapter.kind == "welfare" or c is not sn]
                    got = axioms._fired(adapter, profile, 1, [society] * len(adapter.targets))
                    position = adapter.targets.index(target)
                    got = [(j, c) for j, c in got if j == position]
                    assert got == [(position, c) for c in clauses], (adapter.kind, value, society)


class TestWelfareWitnessSearch:
    def test_veto_clause_one_witness(self, alts3, veto_setup):
        rule, profile = veto_setup
        witness = manipulation_witness(rule, profile, 1, ("a", "b"), FAMILY)
        assert witness is not None
        assert witness.clause.value == "strong-positive"
        assert witness.truthful_value < 1 - 1e-9
        assert witness.dishonest_value >= 1 - 1e-9
        assert reverify_witness(rule, witness)

    @pytest.mark.parametrize("field", ["truthful_value", "dishonest_value"])
    @pytest.mark.parametrize("offset, replays", [(5e-7, True), (2e-6, False)])
    def test_a_recorded_value_off_by_more_than_1e_6_does_not_replay(self, veto_setup, field, offset, replays):
        rule, profile = veto_setup
        witness = manipulation_witness(rule, profile, 1, ("a", "b"), FAMILY)
        moved = dataclasses.replace(witness, **{field: getattr(witness, field) - offset})
        assert reverify_witness(rule, moved) is replays

    def test_witness_replays_from_json_record(self, alts3, space3, veto_setup):
        rule, profile = veto_setup
        witness = manipulation_witness(rule, profile, 1, ("a", "b"), FAMILY)
        record = witness.to_jsonable()
        replayed_profile = parse_profile(record["profile"])
        replayed_ballot = parse_density(space3, record["dishonest_ballot"])
        truthful = rule.evaluate(replayed_profile)
        dishonest = rule.evaluate(replayed_profile.substitute_ballot(record["voter"], replayed_ballot))
        from qsc import pair_projector, support_probability

        projector = pair_projector(space3, *record["target"])
        assert support_probability(truthful, projector) == pytest.approx(
            record["truthful_value"], abs=1e-9
        )
        assert support_probability(dishonest, projector) == pytest.approx(
            record["dishonest_value"], abs=1e-9
        )

    def test_witness_at_a_small_eps_replays_from_its_record(self, alts3, space3):
        # Voter 1's weight of 1e-10 on c>b>a keeps the pet below certainty at
        # eps 1e-12; a record that dropped it would pin the pet and replay false.
        eps = 1e-12
        rule = veto_rule(rk(alts3, "a>b>c"), eps)
        torn = mixed_state(space3, [(1.0 - 1e-10, rk(alts3, "a>b>c")), (1e-10, rk(alts3, "c>b>a"))])
        profile = ProfileState.product_of([torn, basis_state(space3, rk(alts3, "b>a>c"))])
        witness = manipulation_witness(rule, profile, 1, ("a", "b"), FAMILY, eps)
        assert witness is not None and reverify_witness(rule, witness, eps)
        record = witness.to_jsonable()
        assert [term[1] for term in record["profile"]["voters"][0]["mixed"]] == ["a>b>c", "c>b>a"]
        replayed = dataclasses.replace(
            witness,
            profile=parse_profile(record["profile"], eps),
            dishonest_ballot=parse_density(space3, record["dishonest_ballot"], eps),
        )
        assert reverify_witness(rule, replayed, eps)

    def test_dictator_is_immune(self, alts3, space3, veto_setup):
        _, profile = veto_setup
        rule = dictator_rule(1)
        for x, y in alts3.ordered_pairs():
            assert manipulation_witness(rule, profile, 1, (x, y), FAMILY) is None

    def test_qcv_cycle_profile_immune(self, alts3, cycle_profile):
        rule = qcv_rule(PARAMS)
        profile = ProfileState.basis(cycle_profile)
        for voter in (1, 2, 3):
            for x, y in alts3.ordered_pairs():
                assert manipulation_witness(rule, profile, voter, (x, y), FAMILY) is None


class TestChoiceWitnessSearch:
    def test_veto_choice_witness(self, alts3, veto_setup):
        rule, profile = veto_setup
        choice = compose(rule)
        witness = manipulation_witness(choice, profile, 1, "a", FAMILY)
        assert witness is not None
        assert witness.target == "a"
        assert reverify_witness(choice, witness)

    def test_choice_witness_replays_from_json_record(self, alts3, space3, veto_setup):
        rule, profile = veto_setup
        choice = compose(rule)
        record = manipulation_witness(choice, profile, 1, "a", FAMILY).to_jsonable()
        replayed = parse_profile(record["profile"])
        ballot = parse_density(space3, record["dishonest_ballot"])
        truthful = choice.evaluate(replayed)[record["target"]]
        dishonest = choice.evaluate(
            replayed.substitute_ballot(record["voter"], ballot)
        )[record["target"]]
        assert truthful == pytest.approx(record["truthful_value"], abs=1e-9)
        assert dishonest == pytest.approx(record["dishonest_value"], abs=1e-9)

    def test_welfare_witness_replayed_on_the_composed_rule_is_refused(self, veto_setup):
        # The witness's target is a pair; the composed rule is scored on alternatives.
        rule, profile = veto_setup
        witness = manipulation_witness(rule, profile, 1, ("a", "b"), FAMILY)
        message = r"^a choice rule's target must be one of the alternatives a, b, c, got \('a', 'b'\)$"
        with pytest.raises(InvalidArgument, match=message):
            reverify_witness(compose(rule), witness)

    def test_dictator_choice_other_voters_inert(self, alts3, veto_setup):
        _, profile = veto_setup
        choice = compose(dictator_rule(1))
        for a in alts3.names:
            assert manipulation_witness(choice, profile, 2, a, FAMILY) is None

    def test_strong_negative_removal_is_achievable_not_hunted(self, alts3, space3):
        """A voter who never tops a CAN erase a's winner support entirely.

        Honest profile (b>a>c, c>a>b, b>c>a) leaves a with positive weight;
        switching voter 1 to b>c>a makes c-over-a unanimous and the final
        projection wipes every a-topped ranking. The hunt deliberately does
        not score this as manipulation, mirroring how the strong-negative
        bullet is stated for choice rules.
        """
        rule = qcvne_rule(PARAMS)
        profile = ProfileState.basis(
            (rk(alts3, "b>a>c"), rk(alts3, "c>a>b"), rk(alts3, "b>c>a"))
        )
        truthful = rule.evaluate(profile)["a"]
        assert truthful > 1e-9
        lied = profile.substitute_ballot(1, basis_state(space3, rk(alts3, "b>c>a")))
        assert rule.evaluate(lied)["a"] == pytest.approx(0.0, abs=1e-12)
        assert manipulation_witness(rule, profile, 1, "a", FAMILY) is None


@pytest.mark.parametrize(
    "rule_name, target",
    [
        ("qcv", "a"), ("qcv", "ab"), ("qcvne", ("a", "b")), ("qcv", ("a", "a")),
        ("qcv", ["a", "b"]), ("qcv", ("a", "z")), ("qcvne", "z"),
    ],
)
def test_witness_target_outside_the_rule_kind_is_refused(space3, cycle_profile, rule_name, target):
    # A welfare rule is scored on ordered pairs of distinct alternatives and a
    # choice rule on alternatives; anything else would read the wrong subspace.
    rule = qcv_rule(PARAMS) if rule_name == "qcv" else qcvne_rule(PARAMS)
    with pytest.raises(InvalidArgument, match="target"):
        manipulation_witness(rule, ProfileState.basis(cycle_profile), 1, target, FAMILY)


class TestCandidateBallotFamily:
    def test_default_size_and_order(self, space3):
        ballots = FAMILY.ballots(space3)
        # 6 basis + 15 pair + 20 triple superpositions + 45 grid mixtures.
        assert len(ballots) == 86

    def test_random_pure_states_reproducible(self, space3):
        import numpy as np

        one = CandidateBallotFamily(random_pure=5, random_seed=9).ballots(space3)
        two = CandidateBallotFamily(random_pure=5, random_seed=9).ballots(space3)
        assert len(one) == 86 + 5
        for left, right in zip(one[-5:], two[-5:]):
            assert np.array_equal(left.matrix, right.matrix)
        other = CandidateBallotFamily(random_pure=5, random_seed=10).ballots(space3)
        assert not np.allclose(one[-1].matrix, other[-1].matrix)

    @pytest.mark.parametrize(
        "family",
        [
            FAMILY,
            CandidateBallotFamily(basis=False),
            CandidateBallotFamily(mixture_grid_step=0.1),
            CandidateBallotFamily(mixture_grid_step=0.3, random_pure=4),
            CandidateBallotFamily(pair_superpositions=False, mixture_grid_step=0.0),
            BASIS_SUP2,
        ],
    )
    def test_size_is_the_ballot_count(self, family):
        # m=2 has no triples; at m=5 only basis,sup2 stays under the caps.
        for m in (2, 3, 4, 5):
            space = space_of(m)
            if m < 5 or family == BASIS_SUP2:
                assert family.size(space) == len(family.ballots(space))

    @pytest.mark.parametrize("family", list(FAMILY_DIGESTS))
    def test_ballots_match_the_per_ballot_builders(self, family):
        # At eps 0.4, pure_state stores a triple superposition (weights 1/3) as diagonal.
        digest = hashlib.sha256()
        for m in (2, 3, 4):
            for eps in (1e-9, 0.4):
                space = space_of(m)
                if not family.size(space):  # triples alone at m=2
                    with pytest.raises(InvalidArgument, match="no ballots"):
                        family.ballots(space, eps)
                    continue
                ballots = family.ballots(space, eps)
                assert len(ballots) == family.size(space)
                for ballot in ballots:
                    digest.update(ballot.diagonal.tobytes())
                    digest.update(b"-" if ballot.amplitudes is None else ballot.amplitudes.tobytes())
        assert digest.hexdigest() == FAMILY_DIGESTS[family]

    def test_ballots_are_built_on_first_read(self, space4, monkeypatch):
        calls = []

        def counted(name):
            builder = getattr(axioms, name)

            def count(*args, **kwargs):
                calls.append(name)
                return builder(*args, **kwargs)

            return count

        for name in ("basis_state", "pure_state", "mixed_state"):
            monkeypatch.setattr(axioms, name, counted(name))
        axioms._family_ballots.cache_clear()
        family = CandidateBallotFamily(mixture_grid_step=0.3, random_pure=2, random_seed=4)
        ballots = family.ballots(space4, 1e-9)
        assert calls == []
        assert len(ballots) == family.size(space4) == 24 + 276 + 2024 + 3 * 276 + 2
        # The first and last ballot of each block: basis, pairs, triples, grid, random.
        for k in (0, 23, 24, 299, 300, 2323, 2324, 3151, 3152, 3153):
            ballots[k]
            assert len(calls) == k + 1
        ballots[5]
        assert len(calls) == len(ballots)
        assert calls.count("basis_state") == 24 and calls.count("mixed_state") == 3 * 276
        assert family.ballots(space4, 1e-9) is ballots
        assert list(ballots) == [ballots[k] for k in range(len(ballots))]
        assert ballots[-1] is ballots[len(ballots) - 1] and ballots[1:3] == [ballots[1], ballots[2]]
        with pytest.raises(IndexError):
            ballots[len(ballots)]

    def test_empty_family_rejected(self, space3):
        with pytest.raises(InvalidArgument):
            CandidateBallotFamily(
                basis=False, pair_superpositions=False, triple_superpositions=False,
                mixture_grid_step=0.0,
            )
        grid_of_nothing = CandidateBallotFamily(
            basis=False, pair_superpositions=False, triple_superpositions=False,
            mixture_grid_step=1.0,
        )
        with pytest.raises(InvalidArgument):
            grid_of_nothing.ballots(space3)

    def test_size_cap(self, space3, monkeypatch):
        monkeypatch.setattr(axioms, "_family_ballots", refuse_to_build)
        space5 = space_of(5)
        assert FAMILY.size(space5) == 309_520
        with pytest.raises(ResourceLimit):
            FAMILY.ballots(space5)
        with pytest.raises(ResourceLimit):
            CandidateBallotFamily(mixture_grid_step=1e-9).ballots(space3)

    def test_default_family_size(self, space4):
        assert len(FAMILY.ballots(space4)) == 3_152

    def test_weight_cap(self, monkeypatch):
        # Under the ballot cap, but ballots x m! basis weights is what gets stored.
        monkeypatch.setattr(axioms, "_family_ballots", refuse_to_build)
        space6 = RankingSpace(AlternativeSet(tuple("abcdef")))
        family = CandidateBallotFamily(
            pair_superpositions=False, triple_superpositions=False, mixture_grid_step=0.0,
            random_pure=99_000,
        )
        assert family.size(space6) < FAMILY_CAP
        assert family.size(space6) * space6.dim > FAMILY_WEIGHT_CAP
        with pytest.raises(ResourceLimit, match="basis weights"):
            family.ballots(space6)
        space5 = RankingSpace(AlternativeSet(tuple("abcde")))
        small = CandidateBallotFamily(triple_superpositions=False, mixture_grid_step=0.0)
        assert small.size(space5) * space5.dim <= FAMILY_WEIGHT_CAP
        with pytest.raises(AssertionError, match="built"):
            small.ballots(space5)


class TestCheckQic:
    def test_qcv_holds_on_sample(self, space3):
        sampler = default_profile_sampler(space3, 3)
        report = check_qic(qcv_rule(PARAMS), sampler, FAMILY, trials=60, seed=0)
        assert report.verdict == VERDICT_HOLDS
        assert report.witnesses == []

    def test_qcvne_holds_on_sample(self, space3):
        sampler = default_profile_sampler(space3, 3)
        report = check_qic(qcvne_rule(PARAMS), sampler, FAMILY, trials=60, seed=0)
        assert report.verdict == VERDICT_HOLDS

    def test_veto_fails_with_reverifiable_witness(self, alts3, space3):
        rule = veto_rule(rk(alts3, "a>b>c"))
        sampler = default_profile_sampler(space3, 3)
        report = check_qic(rule, sampler, FAMILY, trials=80, seed=1)
        assert report.verdict == VERDICT_FALSIFIED
        record = report.witnesses[0]
        replayed = parse_profile(record["profile"])
        ballot = parse_density(space3, record["dishonest_ballot"])
        from qsc import pair_projector, support_probability

        projector = pair_projector(space3, *record["target"])
        truthful = support_probability(rule.evaluate(replayed), projector)
        dishonest = support_probability(
            rule.evaluate(replayed.substitute_ballot(record["voter"], ballot)), projector
        )
        assert truthful == pytest.approx(record["truthful_value"], abs=1e-9)
        assert dishonest == pytest.approx(record["dishonest_value"], abs=1e-9)

    def test_dictator_holds(self, space3):
        sampler = default_profile_sampler(space3, 3)
        report = check_qic(dictator_rule(1), sampler, FAMILY, trials=40, seed=2)
        assert report.verdict == VERDICT_HOLDS


class TestDictatorshipChecks:
    def test_dictator_rule_candidate_survives(self, space3):
        sampler = default_profile_sampler(space3, 3)
        report = check_dictatorship(dictator_rule(1), space3, sampler, 60, seed=3)
        assert report.axiom == "dictatorship-welfare"
        assert report.verdict == VERDICT_DICTATOR_CANDIDATE
        survivors = {(s["voter"], s["variant"]) for s in report.details["survivors"]}
        assert (1, "sharp") in survivors and (1, "unsharp") in survivors

    def test_qcv_eliminates_every_voter(self, space3):
        sampler = default_profile_sampler(space3, 3)
        report = check_dictatorship(qcv_rule(PARAMS), space3, sampler, 200, seed=4)
        assert report.axiom == "dictatorship-welfare"
        assert report.verdict == VERDICT_NO_DICTATOR
        assert report.details["survivors"] == []
        # Both directions are recorded somewhere across the counterexamples.
        assert {w["variant"] for w in report.witnesses} == {"sharp", "unsharp"}

    def test_choice_dictator_detected(self, space3):
        sampler = default_profile_sampler(space3, 3)
        choice = compose(dictator_rule(1))
        report = check_dictatorship(choice, space3, sampler, 60, seed=5)
        assert report.axiom == "dictatorship-choice" and report.rule == "natural-extension(dictator:1)"
        assert report.verdict == VERDICT_DICTATOR_CANDIDATE
        survivors = {(s["voter"], s["variant"]) for s in report.details["survivors"]}
        assert (1, "sharp") in survivors and (1, "unsharp") in survivors

    def test_qcvne_not_sharp_not_unsharp(self, space3):
        sampler = default_profile_sampler(space3, 3)
        report = check_dictatorship(qcvne_rule(PARAMS), space3, sampler, 200, seed=6)
        assert report.axiom == "dictatorship-choice"
        assert report.verdict == VERDICT_NO_DICTATOR
        assert report.details["survivors"] == []

    def test_minority_shot_eliminates_unsharp(self, alts3, space3):
        # Opposed basis ballots: society picks up support the other voter
        # alone injected, which no dictator story survives.
        profile = ProfileState.basis((rk(alts3, "a>b>c"), rk(alts3, "c>b>a")))
        report = check_dictatorship(
            qcv_rule(PARAMS), space3, lambda rng: profile, 1, seed=0
        )
        eliminated = {(w["voter"], w["variant"]) for w in report.witnesses}
        assert (1, "unsharp") in eliminated and (2, "unsharp") in eliminated

    @pytest.mark.parametrize("seed", [0, 2])
    def test_a_change_of_electorate_is_refused(self, space3, seed):
        # Draws alternate 2 and 5 voters; on these seeds the scan reaches the
        # second draw, whose voters would be read against the first draw's 2.
        samplers = [default_profile_sampler(space3, n) for n in (2, 5)]
        drawn = []

        def alternating(rng):
            drawn.append(None)
            return samplers[len(drawn) % 2 == 0](rng)

        with pytest.raises(InvalidArgument, match="^a profile of 5 voters is not of the first draw's 2$"):
            check_dictatorship(qcv_rule(PARAMS), space3, alternating, 200, seed)

    def test_welfare_elimination_carries_to_choice(self, space3):
        """Voters with welfare counterexamples also fall for the composed rule."""
        sampler_w = default_profile_sampler(space3, 3)
        sampler_c = default_profile_sampler(space3, 3)
        welfare = check_dictatorship(qcv_rule(PARAMS), space3, sampler_w, 200, seed=7)
        choice = check_dictatorship(qcvne_rule(PARAMS), space3, sampler_c, 200, seed=7)
        welfare_sharp = {w["voter"] for w in welfare.witnesses if w["variant"] == "sharp"}
        choice_sharp = {w["voter"] for w in choice.witnesses if w["variant"] == "sharp"}
        assert welfare_sharp <= choice_sharp


class TestOnto:
    def test_qcvne_three_alternatives(self, alts3):
        report = check_onto(qcvne_rule(PARAMS), alts3, n_voters=3)
        assert report.verdict == VERDICT_HOLDS
        assert report.details["reached"] == 3

    def test_qcvne_four_alternatives_two_voters(self, alts4):
        report = check_onto(qcvne_rule(QcvParams(1 / 32)), alts4, n_voters=2)
        assert report.verdict == VERDICT_HOLDS
        assert report.details["reached"] == 4

    def test_constant_rule_fails(self, alts3):
        report = check_onto(constant_choice_rule(alts3, "a"), alts3, n_voters=3)
        assert report.verdict == VERDICT_FALSIFIED
        assert {w["alternative"] for w in report.witnesses} == {"b", "c"}


class TestUnanimity:
    def test_qcv_holds_and_hypotheses_fire(self, space3):
        sampler = default_profile_sampler(space3, 3)
        report = check_unanimity(qcv_rule(PARAMS), space3, sampler, 150, seed=8)
        assert report.verdict == VERDICT_HOLDS
        assert report.details["sharp"]["instances"] > 0
        assert report.details["unsharp"]["instances"] > 0

    def test_dictator_holds(self, space3):
        sampler = default_profile_sampler(space3, 3)
        report = check_unanimity(dictator_rule(1), space3, sampler, 100, seed=9)
        assert report.verdict == VERDICT_HOLDS

    def test_reverse_control_falsified(self, space3):
        sampler = default_profile_sampler(space3, 3)
        report = check_unanimity(reverse_rule(), space3, sampler, 100, seed=10)
        assert report.verdict == VERDICT_FALSIFIED
        assert report.witnesses


class TestIia:
    def test_qcv_holds_with_instances(self, space3):
        paired = default_paired_sampler(space3, 3)
        report = check_iia(qcv_rule(PARAMS), space3, paired, 120, seed=11)
        assert report.verdict == VERDICT_HOLDS
        assert report.details["sharp"]["instances"] > 0

    def test_third_alternative_move_transfers_status(self, alts3, space3):
        # Same a-vs-b stance per voter, c moved around: status must transfer.
        profile = ProfileState.basis((rk(alts3, "a>b>c"), rk(alts3, "a>b>c")))
        twin = ProfileState.basis((rk(alts3, "a>c>b"), rk(alts3, "a>b>c")))
        paired = lambda rng: (profile, twin, ("a", "b"))
        report = check_iia(qcv_rule(PARAMS), space3, paired, 1, seed=0)
        assert report.verdict == VERDICT_HOLDS

    def test_borda_control_falsified(self, alts3, space3):
        # Frozen classical independence failure lifted to basis profiles:
        # same per-voter b-vs-a stances, but the moved third alternative
        # flips the positional totals from b-first to a-first.
        profile = ProfileState.basis((rk(alts3, "a>b>c"), rk(alts3, "b>c>a")))
        twin = ProfileState.basis((rk(alts3, "a>c>b"), rk(alts3, "b>c>a")))
        paired = lambda rng: (profile, twin, ("b", "a"))
        report = check_iia(borda_welfare_rule(), space3, paired, 1, seed=0)
        assert report.verdict == VERDICT_FALSIFIED
        assert report.witnesses[0]["variant"] == "sharp"


class TestSuites:
    def test_gs_suite_on_composed_dictator_not_bypassed(self, alts3):
        from qsc.axioms import VERDICT_NOT_BYPASSED

        report = run_gs_suite(compose(dictator_rule(1)), alts3, n_voters=3, trials=60, seed=21)
        assert report.verdict == VERDICT_NOT_BYPASSED
        by_name = {c["name"]: c for c in report.components}
        assert by_name["non-dictatorship"]["ok"] is False
        assert by_name["onto"]["ok"] is True

    # Each suite gets a rule of the wrong kind, so a refusal that came after the
    # rule-kind check would name the rule instead; no sampler may be built.
    def test_suites_require_three_alternatives(self, monkeypatch):
        monkeypatch.setattr(axioms, "default_profile_sampler", refuse_to_hunt)
        two = AlternativeSet(("a", "b"))
        for suite, wrong_kind in ((run_gs_suite, qcv_rule(PARAMS)), (run_arrow_suite, qcvne_rule(PARAMS))):
            with pytest.raises(InvalidArgument, match="^suites need at least 3 alternatives$"):
                suite(wrong_kind, two)

    def test_suites_require_a_voter_and_a_trial(self, alts3, monkeypatch):
        monkeypatch.setattr(axioms, "default_profile_sampler", refuse_to_hunt)
        for suite, wrong_kind in ((run_gs_suite, qcv_rule(PARAMS)), (run_arrow_suite, qcvne_rule(PARAMS))):
            for size in ({"n_voters": 0}, {"trials": 0}):
                with pytest.raises(InvalidArgument, match="^need at least one voter and one trial$"):
                    suite(wrong_kind, alts3, **size)

    def test_a_sampler_needs_a_voter(self, space3):
        with pytest.raises(InvalidArgument, match="^need at least one voter$"):
            default_profile_sampler(space3, 0)


def refuse_to_hunt(*args):
    raise AssertionError("the hunt ran")


class TestRuleKind:
    """A check for one kind of rule refuses the other kind by name, before any work."""

    def test_choice_checks_refuse_a_welfare_rule(self, alts3, monkeypatch):
        monkeypatch.setattr(axioms, "check_qic", refuse_to_hunt)
        refused = "expected a choice rule, got the welfare rule 'qcv'"
        with pytest.raises(InvalidArgument, match=refused):
            check_onto(qcv_rule(PARAMS), alts3, n_voters=3)
        with pytest.raises(InvalidArgument, match=refused):
            run_gs_suite(qcv_rule(PARAMS), alts3)

    def test_welfare_checks_refuse_a_choice_rule(self, alts3, space3):
        rule = qcvne_rule(PARAMS)
        refused = "expected a welfare rule, got the choice rule 'qcvne'"
        sampler = default_profile_sampler(space3, 3)
        with pytest.raises(InvalidArgument, match=refused):
            check_unanimity(rule, space3, sampler, 5, seed=0)
        with pytest.raises(InvalidArgument, match=refused):
            check_iia(rule, space3, default_paired_sampler(space3, 3), 5, seed=0)
        with pytest.raises(InvalidArgument, match=refused):
            run_arrow_suite(rule, alts3)
        with pytest.raises(InvalidArgument, match=refused):
            check_composition_preservation(rule, sampler, FAMILY, trials=5, seed=0)

    def test_the_kind_is_refused_before_the_trials(self, space3):
        # Dictatorship, unanimity and iia read the rule's kind before the trial count.
        sampler = default_profile_sampler(space3, 3)
        with pytest.raises(InvalidArgument, match="not a welfare or choice rule"):
            check_dictatorship(object(), space3, sampler, 0, seed=0)
        refused = "expected a welfare rule, got the choice rule 'qcvne'"
        with pytest.raises(InvalidArgument, match=refused):
            check_unanimity(qcvne_rule(PARAMS), space3, sampler, 0, seed=0)
        with pytest.raises(InvalidArgument, match=refused):
            check_iia(qcvne_rule(PARAMS), space3, default_paired_sampler(space3, 3), 0, seed=0)

    @pytest.mark.parametrize("trials", [5, 0])
    def test_composition_refuses_a_choice_rule_before_drawing(self, trials):
        refused = "expected a welfare rule, got the choice rule 'qcvne'"
        with pytest.raises(InvalidArgument, match=refused):
            check_composition_preservation(qcvne_rule(PARAMS), refuse_to_draw, FAMILY, trials, 0)


def refuse_to_draw(rng):
    raise AssertionError("the sampler drew")


class TestDrawSpace:
    """A check refuses draws on another ranking space than its own before it reads their values."""

    REFUSED = r"^a profile on alternatives \('a', 'b', 'c', 'd'\) is not on the check's alternatives \('a', 'b', 'c'\)$"

    def test_sampled_checks_refuse_draws_on_another_space(self, space3, space4):
        rule = qcv_rule(QcvParams.for_alternatives(4))
        with pytest.raises(InvalidArgument, match=self.REFUSED):
            check_dictatorship(rule, space3, default_profile_sampler(space4, 3), 20, 1)
        with pytest.raises(InvalidArgument, match=self.REFUSED):
            check_unanimity(rule, space3, default_profile_sampler(space4, 3), 20, 1)
        with pytest.raises(InvalidArgument, match=self.REFUSED):
            check_iia(rule, space3, default_paired_sampler(space4, 3), 20, 1)

    def test_a_hooked_hunt_refuses_a_batch_mixing_spaces(self, space3, space4):
        samplers = [default_profile_sampler(space, 2) for space in (space3, space4)]

        def mixing(rng):
            return samplers[rng.random() < 0.5](rng)

        with pytest.raises(InvalidArgument, match="is not on the check's alternatives"):
            check_qic(dictator_rule(1), mixing, FAMILY, 20, 1)

    def test_hunts_refuse_draws_off_the_first_draws_space(self, space3, space4):
        # A hookless hunt whose first batch mixes spaces, and a hooked one whose
        # sampler switches space after the first batch.
        samplers = [default_profile_sampler(space, 2) for space in (space3, space4)]
        drawn = []

        def mixing(rng):
            return samplers[rng.random() < 0.5](rng)

        def switching(rng):
            drawn.append(None)
            return samplers[len(drawn) > axioms._BATCH_DRAWS](rng)

        for rule, sampler in ((reverse_mix_rule(hooked=False), mixing), (dictator_rule(1), switching)):
            for check in (check_qic, check_composition_preservation):
                drawn.clear()
                with pytest.raises(InvalidArgument, match="is not on the check's alternatives"):
                    check(rule, sampler, FAMILY, 100, 1)

    @pytest.mark.parametrize("pet", ["d>c>b>a", "a>b>c>d"])
    def test_a_veto_rule_on_other_alternatives_is_refused(self, alts3, space3, pet):
        # The hookless hunt evaluates the m=4 rule on m=3 draws; the rule names both sets.
        rule = veto_rule(Ranking.from_string(AlternativeSet(tuple("abcd")), pet))
        refused = r"^a profile on alternatives \('a', 'b', 'c'\) is not on the veto rule's alternatives \('a', 'b', 'c', 'd'\)$"
        for check in (check_qic, check_composition_preservation):
            with pytest.raises(InvalidArgument, match=refused):
                check(rule, default_profile_sampler(space3, 3), FAMILY, 5, 1)


class TestSocietyIsChecked:
    def test_a_hookless_output_that_is_no_distribution_is_refused(self, space3):
        # The engine checks what it evaluates itself at the check's eps, for
        # welfare rules as for their compositions.
        doubled = WelfareRule(
            "doubled", lambda profile: DensityOperator(space3, 2 * profile.partial_ballot(1).diagonal)
        )
        sampler = default_profile_sampler(space3, 3)
        refused = "diagonal weights sum to 2"
        for rule in (doubled, compose(doubled)):
            with pytest.raises(InvalidArgument, match=refused):
                check_qic(rule, sampler, FAMILY, trials=5, seed=0)
            with pytest.raises(InvalidArgument, match=refused):
                check_dictatorship(rule, space3, sampler, 5, seed=0)
        with pytest.raises(InvalidArgument, match=refused):
            check_unanimity(doubled, space3, sampler, 5, seed=0)
        with pytest.raises(InvalidArgument, match=refused):
            check_onto(compose(doubled), space3.alternatives, n_voters=3)

    def test_a_hookless_output_with_nan_weights_is_refused(self, space3):
        def with_nan(profile):
            weights = profile.partial_ballot(1).diagonal.copy()
            weights[-1] = np.nan
            return DensityOperator(space3, weights)

        rule = WelfareRule("nan", with_nan)
        sampler = default_profile_sampler(space3, 3)
        with pytest.raises(InvalidArgument, match="nan"):
            check_qic(rule, sampler, FAMILY, trials=5, seed=0)
        with pytest.raises(InvalidArgument, match="nan"):
            check_dictatorship(rule, space3, sampler, 5, seed=0)
        with pytest.raises(InvalidArgument, match="nan"):
            check_unanimity(rule, space3, sampler, 5, seed=0)


class TestTrials:
    @pytest.mark.parametrize("trials", [0, -1])
    @pytest.mark.parametrize(
        "check",
        [
            lambda space, trials: check_qic(qcv_rule(PARAMS), refuse_to_draw, FAMILY, trials, 0),
            lambda space, trials: check_dictatorship(qcv_rule(PARAMS), space, refuse_to_draw, trials, 0),
            lambda space, trials: check_unanimity(qcv_rule(PARAMS), space, refuse_to_draw, trials, 0),
            lambda space, trials: check_iia(qcv_rule(PARAMS), space, refuse_to_draw, trials, 0),
            lambda space, trials: check_composition_preservation(
                qcv_rule(PARAMS), refuse_to_draw, FAMILY, trials, 0
            ),
        ],
        ids=["qic", "dictatorship", "unanimity", "iia", "composition-preservation"],
    )
    def test_every_sampled_check_refuses_before_drawing(self, space3, check, trials):
        with pytest.raises(InvalidArgument, match="trials must be at least 1"):
            check(space3, trials)

    # A bool is refused as check_voter_index refuses it: True would run one trial, and be reported as true.
    @pytest.mark.parametrize("trials", [2.0, 1.5, "3", True])
    @pytest.mark.parametrize(
        "check",
        [
            lambda alts, space, trials: check_qic(qcv_rule(PARAMS), refuse_to_draw, FAMILY, trials, 0),
            lambda alts, space, trials: check_dictatorship(qcv_rule(PARAMS), space, refuse_to_draw, trials, 0),
            lambda alts, space, trials: check_unanimity(qcv_rule(PARAMS), space, refuse_to_draw, trials, 0),
            lambda alts, space, trials: check_iia(qcv_rule(PARAMS), space, refuse_to_draw, trials, 0),
            lambda alts, space, trials: check_composition_preservation(
                qcv_rule(PARAMS), refuse_to_draw, FAMILY, trials, 0
            ),
            lambda alts, space, trials: run_arrow_suite(qcv_rule(PARAMS), alts, trials=trials),
            lambda alts, space, trials: run_gs_suite(qcvne_rule(PARAMS), alts, trials=trials),
        ],
        ids=["qic", "dictatorship", "unanimity", "iia", "composition-preservation", "arrow-suite", "gs-suite"],
    )
    def test_trials_must_be_an_integer(self, alts3, space3, check, trials, monkeypatch):
        monkeypatch.setattr(axioms, "default_profile_sampler", refuse_to_hunt)
        with pytest.raises(InvalidArgument, match=f"^trials must be an integer, got {re.escape(repr(trials))}$"):
            check(alts3, space3, trials)

    @pytest.mark.parametrize("n_voters", [2.0, 1.5, "3", True])
    @pytest.mark.parametrize(
        "build",
        [
            lambda alts, space, n: default_profile_sampler(space, n),
            lambda alts, space, n: default_paired_sampler(space, n),
            lambda alts, space, n: check_onto(qcvne_rule(PARAMS), alts, n),
            lambda alts, space, n: run_arrow_suite(qcv_rule(PARAMS), alts, n_voters=n),
            lambda alts, space, n: run_gs_suite(qcvne_rule(PARAMS), alts, n_voters=n),
        ],
        ids=["sampler", "paired-sampler", "onto", "arrow-suite", "gs-suite"],
    )
    def test_n_voters_must_be_an_integer(self, alts3, space3, build, n_voters):
        with pytest.raises(InvalidArgument, match=f"^n_voters must be an integer, got {re.escape(repr(n_voters))}$"):
            build(alts3, space3, n_voters)

    # A report records its seed for replay: None would hunt unreplayably, and True be written as true.
    @pytest.mark.parametrize("seed", [None, True, 1.0, "1"])
    @pytest.mark.parametrize(
        "check",
        [
            lambda alts, space, seed: check_qic(qcv_rule(PARAMS), refuse_to_draw, FAMILY, 5, seed),
            lambda alts, space, seed: check_dictatorship(qcv_rule(PARAMS), space, refuse_to_draw, 5, seed),
            lambda alts, space, seed: check_unanimity(qcv_rule(PARAMS), space, refuse_to_draw, 5, seed),
            lambda alts, space, seed: check_iia(qcv_rule(PARAMS), space, refuse_to_draw, 5, seed),
            lambda alts, space, seed: check_composition_preservation(
                qcv_rule(PARAMS), refuse_to_draw, FAMILY, 5, seed
            ),
            # A suite refuses the seed before it reads the rule.
            lambda alts, space, seed: run_arrow_suite(object(), alts, seed=seed),
            lambda alts, space, seed: run_gs_suite(object(), alts, seed=seed),
        ],
        ids=["qic", "dictatorship", "unanimity", "iia", "composition-preservation", "arrow-suite", "gs-suite"],
    )
    def test_seed_must_be_an_integer(self, alts3, space3, check, seed):
        with pytest.raises(InvalidArgument, match=f"^seed must be an integer, got {re.escape(repr(seed))}$"):
            check(alts3, space3, seed)

    # A numpy integer is the int it holds: the RNG is seeded with it and the report records it as an int.
    @pytest.mark.parametrize(
        "check",
        [
            lambda alts, space, i: check_qic(
                qcv_rule(PARAMS), default_profile_sampler(space, i(2)), FAMILY, i(3), i(3)
            ),
            lambda alts, space, i: check_dictatorship(
                qcv_rule(PARAMS), space, default_profile_sampler(space, i(2)), i(3), i(3)
            ),
            lambda alts, space, i: check_unanimity(
                qcv_rule(PARAMS), space, default_profile_sampler(space, i(2)), i(3), i(3)
            ),
            lambda alts, space, i: check_iia(qcv_rule(PARAMS), space, default_paired_sampler(space, i(2)), i(3), i(3)),
            lambda alts, space, i: check_composition_preservation(
                qcv_rule(PARAMS), default_profile_sampler(space, i(2)), FAMILY, i(3), i(3)
            ),
            lambda alts, space, i: check_onto(qcvne_rule(PARAMS), alts, i(3)),
            lambda alts, space, i: run_arrow_suite(qcv_rule(PARAMS), alts, i(2), i(3), i(3)),
            lambda alts, space, i: run_gs_suite(qcvne_rule(PARAMS), alts, i(2), i(3), i(3)),
        ],
        ids=[
            "qic", "dictatorship", "unanimity", "iia", "composition-preservation", "onto", "arrow-suite", "gs-suite"
        ],
    )
    def test_numpy_integers_give_the_report_bytes_of_ints(self, alts3, space3, check):
        assert check(alts3, space3, np.int64).to_json() == check(alts3, space3, int).to_json()

    def test_a_numpy_voter_is_recorded_as_an_int(self, veto_setup):
        rule, profile = veto_setup
        record = manipulation_witness(rule, profile, np.int64(1), ("a", "b"), FAMILY).to_jsonable()
        assert type(record["voter"]) is int
        expected = manipulation_witness(rule, profile, 1, ("a", "b"), FAMILY).to_jsonable()
        assert canonical_json(record) == canonical_json(expected)


class TestEngineEps:
    """The engine reads values at an eps in [MIN_EPS, MAX_EPS], the range ``QcvParams`` accepts."""

    @pytest.mark.parametrize("eps", [float("nan"), 0.0, 0.7, -1.0])
    @pytest.mark.parametrize(
        "check",
        [
            lambda alts, space, eps: check_qic(qcv_rule(PARAMS), refuse_to_draw, FAMILY, 5, 0, eps),
            lambda alts, space, eps: check_qic(
                veto_rule(rk(alts, "a>b>c")), refuse_to_draw, FAMILY, 5, 0, eps
            ),
            lambda alts, space, eps: check_dictatorship(qcv_rule(PARAMS), space, refuse_to_draw, 5, 0, eps),
            lambda alts, space, eps: check_onto(qcvne_rule(PARAMS), alts, 3, eps),
            lambda alts, space, eps: check_unanimity(qcv_rule(PARAMS), space, refuse_to_draw, 5, 0, eps),
            lambda alts, space, eps: check_iia(qcv_rule(PARAMS), space, refuse_to_draw, 5, 0, eps),
            lambda alts, space, eps: check_composition_preservation(
                qcv_rule(PARAMS), refuse_to_draw, FAMILY, 5, 0, eps
            ),
            lambda alts, space, eps: manipulation_witness(
                qcv_rule(PARAMS), ProfileState.basis([rk(alts, "a>b>c")] * 3), 1, ("a", "b"), FAMILY, eps
            ),
            lambda alts, space, eps: run_gs_suite(qcvne_rule(PARAMS), alts, eps=eps),
            lambda alts, space, eps: run_arrow_suite(qcv_rule(PARAMS), alts, eps=eps),
        ],
        ids=[
            "qic", "qic-hookless", "dictatorship", "onto", "unanimity", "iia",
            "composition-preservation", "manipulation-witness", "gs-suite", "arrow-suite",
        ],
    )
    def test_every_check_refuses_before_drawing(self, alts3, space3, check, eps):
        with pytest.raises(InvalidArgument, match=r"^eps must lie in \[1e-12, 0\.001\], got "):
            check(alts3, space3, eps)

    @pytest.mark.parametrize("eps", ["x", "1e-9", None])
    @pytest.mark.parametrize(
        "check",
        [
            lambda alts, space, eps: check_qic(qcv_rule(PARAMS), refuse_to_draw, FAMILY, 5, 0, eps),
            lambda alts, space, eps: check_onto(qcvne_rule(PARAMS), alts, 3, eps),
            lambda alts, space, eps: run_arrow_suite(qcv_rule(PARAMS), alts, eps=eps),
            lambda alts, space, eps: veto_rule(rk(alts, "a>b>c"), eps),
        ],
        ids=["qic", "onto", "arrow-suite", "veto-rule"],
    )
    def test_an_eps_that_is_not_a_number_is_refused(self, alts3, space3, check, eps):
        with pytest.raises(InvalidArgument, match=f"^eps must be a number, got {re.escape(repr(eps))}$"):
            check(alts3, space3, eps)

    def test_the_range_ends_are_accepted(self, space3):
        sampler = default_profile_sampler(space3, 3)
        for eps in (1e-12, 1e-3):
            report = check_qic(qcvne_rule(QcvParams(0.05, eps)), sampler, FAMILY, 5, 0, eps)
            assert report.verdict == VERDICT_HOLDS


class TestEpsWindow:
    """Where qcv's status claim meets the engine's eps: the window (eps, eps/gamma].

    On one fold term, society's value on a pair is 1 or 0 when the pair or
    its reverse is unanimous, and otherwise lies in [gamma_3, 1 - gamma_3],
    gamma_3 = 1/18 (``tests/test_status.py``). So society's value on (a, b)
    is at least gamma_3, and at most 1, times the mass of the terms on which
    some voter places a above b. A clause reads the voter's value and
    society's against one eps. A voter whose value lies in (eps,
    eps/gamma_3] = (1e-9, 1.8e-8] can then back (a, b) while society's value
    is eps or less, and the engine prints ``falsified``, as its definitions
    say. Above the window both read as support. Voter 1 below puts w on
    each of a>b>c, a>c>b and c>a>b, so 3w on (a, b), and 1 - 3w on b>a>c;
    voters 2 and 3 cast b>a>c. At w = 6e-10 qcv's filter drops voter 1's
    three light weights, so society's value is 0. The default sampler draws
    no such ballot, so no golden shows the window.
    """

    @staticmethod
    def voter_1(space, w):
        weights = np.zeros(space.dim)
        weights[[0, 1, 4]] = w  # a>b>c, a>c>b, c>a>b
        weights[2] = 1.0 - 3 * w  # b>a>c
        return diagonal_state(space, weights)

    @pytest.mark.parametrize("w, verdict", [(6e-10, VERDICT_FALSIFIED), (6e-8, VERDICT_HOLDS)])
    @pytest.mark.parametrize("rule", [qcv_rule(PARAMS), qcvne_rule(PARAMS)], ids=["qcv", "qcvne"])
    def test_qic(self, alts3, space3, rule, w, verdict):
        bac = basis_state(space3, rk(alts3, "b>a>c"))
        profile = ProfileState.product_of([self.voter_1(space3, w), bac, bac])
        report = check_qic(rule, lambda rng: profile, FAMILY, trials=1, seed=0)
        assert report.verdict == verdict
        if verdict == VERDICT_FALSIFIED:
            (witness,) = report.witnesses
            assert (witness["voter"], witness["clause"], witness["truthful_value"]) == (1, "weak", 0.0)
            # The first basis ballot that backs (a, b); society then gives it gamma_3 = 1/18.
            assert witness["dishonest_ballot"] == {"mixed": [[1.0, "a>b>c"]]}
            assert witness["dishonest_value"] == pytest.approx(1 / 18, abs=1e-15)
            target = tuple(witness["target"]) if isinstance(witness["target"], list) else witness["target"]
            found = manipulation_witness(rule, profile, 1, target, FAMILY)
            assert found.to_jsonable() == witness and reverify_witness(rule, found)
        # Read from statuses or from values against eps, the records are the same bytes.
        scanned = check_qic(without_hook(rule), lambda rng: profile, FAMILY, trials=1, seed=0)
        assert report_bytes(report, "vertices") == report_bytes(scanned, "family")

    @pytest.mark.parametrize("w, verdict, violations", [(6e-10, VERDICT_FALSIFIED, 2), (6e-8, VERDICT_HOLDS, 0)])
    def test_unanimity(self, space3, w, verdict, violations):
        profile = ProfileState.product_of([self.voter_1(space3, w)] * 2)
        report = check_unanimity(qcv_rule(PARAMS), space3, lambda rng: profile, 1, seed=0)
        assert report.verdict == verdict
        assert report.details["unsharp"]["violations"] == violations
        assert report.details["sharp"]["violations"] == 0

    @pytest.mark.parametrize("eps", [1e-3, 1e-4])
    @pytest.mark.parametrize("choice", [False, True], ids=["qcv", "qcvne"])
    def test_m6_basis_profile_holds_at_every_accepted_eps(self, eps, choice):
        # Voters 1 and 2 cast b>a>c>d>e>f and voter 3 a>b>c>d>e>f. Society's
        # value on (a, b) is gamma_6 = 1/1346, below eps 1e-3 (tests/test_status.py),
        # and its value on a winning is smaller still. Read against eps, both
        # would be excluded, and voter 3's weak clause would fire; society's
        # status is undecided on both, so no clause fires on society's side.
        space = space_of(6)
        alternatives = space.alternatives
        profile = ProfileState.basis([rk(alternatives, text) for text in ("b>a>c>d>e>f",) * 2 + ("a>b>c>d>e>f",)])
        params = QcvParams.for_alternatives(6, eps)
        rule = qcvne_rule(params) if choice else qcv_rule(params)
        target = "a" if choice else ("a", "b")
        value = axioms._Targets(rule, space, eps).society(profile).values[0]
        assert 0.0 < value <= (7.5e-4 if choice else 1e-3)
        assert check_qic(rule, lambda rng: profile, FAMILY, trials=1, seed=0, eps=eps).verdict == VERDICT_HOLDS
        assert manipulation_witness(rule, profile, 3, target, FAMILY, eps) is None
        if not choice:
            assert check_unanimity(rule, space, lambda rng: profile, 1, seed=0, eps=eps).verdict == VERDICT_HOLDS


class TestStatusesAgainstValues:
    """The statuses hook decides society's side as its values read against eps, wherever no value lies in the window."""

    @pytest.mark.parametrize("m, draws", [(3, 60), (4, 40), (5, 20), (6, 8)])
    def test_default_sampler_draws(self, m, draws):
        eps, space, params = 1e-9, space_of(m), QcvParams.for_alternatives(m)
        sampler, rng = default_profile_sampler(space, 3), random.Random(m)
        compared = 0
        for _ in range(draws):
            profile = sampler(rng)
            # The welfare weights with each voter's ballot replaced by each basis ballot.
            loops = {voter: per_basis_loop(profile, voter, params) for voter in (1, 2, 3)}
            for rule in (qcv_rule(params), qcvne_rule(params)):
                exact, read = (axioms._Targets(r, space, eps) for r in (rule, without_hook(rule)))
                society, values = exact.society(profile), read.society(profile)
                # Only a value that is not 0 or 1 yet within eps of one lies in the window.
                window = [0.0 < v <= eps or 1.0 - eps <= v < 1.0 - 1e-12 for v in values.values]
                assert not any(window), "the default sampler drew a value in the window"
                assert society.statuses == values.statuses
                for voter in (1, 2, 3):
                    fired = axioms._fired(exact, profile, voter, society.statuses)
                    assert fired == axioms._fired(read, profile, voter, values.statuses)
                    (rows,) = rule.statuses([(profile, voter)])
                    vertex = exact.vertex_values(loops[voter], list(range(len(exact.targets))))
                    assert not ((0.0 < vertex) & (vertex <= eps) | (1.0 - eps <= vertex) & (vertex < 1.0 - 1e-12)).any()
                    readings = np.vectorize(lambda v: axioms._status_of(v, eps))(vertex)
                    assert (exact.target_statuses(rows) == readings).all()
                    compared += 1
        assert compared == 6 * draws


def per_index_bijection(space, pair, rng):
    """The IIA sampler's bijection as first written: the inside set is rebuilt per index."""
    inside = pair_projector(space, *pair).indices.tolist()
    outside = [k for k in range(space.dim) if k not in set(inside)]
    shuffled_in = inside[:]
    shuffled_out = outside[:]
    rng.shuffle(shuffled_in)
    rng.shuffle(shuffled_out)
    perm = [0] * space.dim
    for src, dst in zip(inside, shuffled_in):
        perm[src] = dst
    for src, dst in zip(outside, shuffled_out):
        perm[src] = dst
    return perm


class TestPairedSampler:
    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_bijection_matches_the_per_index_reference(self, m):
        space = space_of(m)
        for pair in space.alternatives.ordered_pairs():
            for seed in (0, 1, 7):
                ours, reference = random.Random(seed), random.Random(seed)
                perm = axioms._orientation_bijection(space, pair, ours)
                assert perm == per_index_bijection(space, pair, reference)
                assert ours.getstate() == reference.getstate()

    def test_twin_preserves_designated_pair_traces(self, space3):
        import random

        from qsc import pair_projector, support_probability

        paired = default_paired_sampler(space3, 3)
        rng = random.Random(31)
        for _ in range(30):
            profile, twin, pair = paired(rng)
            projector = pair_projector(space3, *pair)
            for voter in range(1, 4):
                mine = support_probability(profile.partial_ballot(voter), projector)
                theirs = support_probability(twin.partial_ballot(voter), projector)
                assert mine == pytest.approx(theirs, abs=1e-12)

    def test_iia_guard_rejects_contract_breaking_sampler(self, alts3, space3):
        from qsc import InvalidArgument, check_iia

        profile = ProfileState.basis((rk(alts3, "a>b>c"),))
        twin = ProfileState.basis((rk(alts3, "b>a>c"),))
        bad = lambda rng: (profile, twin, ("a", "b"))
        with pytest.raises(InvalidArgument):
            check_iia(qcv_rule(PARAMS), space3, bad, 1, seed=0)

    def test_iia_refuses_a_pair_that_is_not_a_target(self, space3):
        sampler = default_paired_sampler(space3, 2)
        same = lambda rng: (*sampler(rng)[:2], ("a", "a"))
        message = r"^a welfare rule's target must be an ordered pair of distinct alternatives a, b, c, got \('a', 'a'\)$"
        with pytest.raises(InvalidArgument, match=message):
            check_iia(qcv_rule(PARAMS), space3, same, 1, seed=0)

    def test_iia_guard_tolerance_is_eps(self, alts3, space3):
        def ballot(w):
            return mixed_state(space3, [(w, rk(alts3, "a>b>c")), (1 - w, rk(alts3, "b>a>c"))])

        profile = ProfileState.product_of([ballot(0.5)])
        twin = ProfileState.product_of([ballot(0.5 + 1e-6)])
        near = lambda rng: (profile, twin, ("a", "b"))
        loose = QcvParams(0.05, eps=1e-5)
        check_iia(qcv_rule(loose), space3, near, 1, seed=0, eps=1e-5)
        with pytest.raises(InvalidArgument):
            check_iia(qcv_rule(PARAMS), space3, near, 1, seed=0)


class TestCompositionPreservation:
    def test_qcv_with_natural_extension(self, space3):
        sampler = default_profile_sampler(space3, 3)
        report = check_composition_preservation(
            qcv_rule(PARAMS), sampler, FAMILY, trials=25, seed=12
        )
        assert report.verdict == VERDICT_HOLDS
        assert report.details["welfare_witnesses"] == 0
        assert report.details["choice_witnesses"] == 0
        assert report.details["search"] == "vertices"

    @pytest.mark.parametrize("trials", [0, -5])
    def test_needs_a_trial(self, space3, trials):
        sampler = default_profile_sampler(space3, 3)
        with pytest.raises(InvalidArgument, match="trials"):
            check_composition_preservation(
                qcv_rule(PARAMS), sampler, FAMILY, trials=trials, seed=0
            )

    def test_family_caps_refuse_before_any_voter_is_scanned(self, monkeypatch):
        # A unanimous basis profile fires no clause, yet the over-cap family is refused.
        monkeypatch.setattr(axioms, "_family_ballots", refuse_to_build)
        space5 = space_of(5)
        rankings = space5.rankings()
        unanimous = ProfileState.product_of([basis_state(space5, rankings[0])] * 2)
        veto = veto_rule(rankings[0])
        with pytest.raises(ResourceLimit, match="309520 ballots"):
            check_composition_preservation(
                veto, lambda rng: unanimous, FAMILY, trials=1, seed=0
            )
        # A hooked rule never reads the family, so it is not refused.
        report = check_composition_preservation(
            dictator_rule(1), lambda rng: unanimous, FAMILY, trials=1, seed=0
        )
        assert report.verdict == VERDICT_HOLDS and report.details["search"] == "vertices"

    def test_a_hookless_rule_is_evaluated_once_per_draw(self, space3):
        # The welfare rule and its composition read society from one evaluation.
        calls = []
        rule = counted_evaluations(without_hook(dictator_rule(1)), calls)
        sampler = default_profile_sampler(space3, 1)
        report = check_composition_preservation(rule, sampler, FAMILY, trials=10, seed=0)
        assert report.details["search"] == "family"
        assert len(calls) == 10

    def test_eps_reaches_the_extension(self, alts3, space3):
        # Society's weights on a>b>c and c>b>a are off by 5e-7: inside eps = 1e-6,
        # outside the default eps.
        weights = np.array([1 + 5e-7, 0, 0, 0, 0, -5e-7])
        off = WelfareRule("off", lambda profile: diagonal_state(space3, weights, 1e-6))
        society = off.evaluate(None)
        assert natural_extension(society, 1e-6).as_dict() == {"a": 1.0, "b": 0.0, "c": 0.0}
        with pytest.raises(InvalidArgument, match="out of"):
            natural_extension(society)
        assert compose(off, 1e-6).evaluate(None).as_dict() == {"a": 1.0, "b": 0.0, "c": 0.0}
        unanimous = ProfileState.product_of([basis_state(space3, rk(alts3, "a>b>c"))] * 3)
        report = check_composition_preservation(
            off, lambda rng: unanimous, FAMILY, trials=1, seed=0, eps=1e-6
        )
        assert report.verdict == VERDICT_HOLDS and report.rule == "natural-extension(off)"


class TestDeterminism:
    def test_qic_reports_are_byte_identical(self, space3):
        def run():
            sampler = default_profile_sampler(space3, 3)
            return check_qic(qcv_rule(PARAMS), sampler, FAMILY, trials=30, seed=13).to_json()

        assert run() == run()

    def test_dictatorship_reports_are_byte_identical(self, space3):
        def run():
            sampler = default_profile_sampler(space3, 3)
            return check_dictatorship(
                qcv_rule(PARAMS), space3, sampler, 60, seed=14
            ).to_json()

        assert run() == run()


AXIOM_REPORT_KEYS = {"axiom", "rule", "verdict", "trials", "seed", "witnesses", "details"}
SUITE_REPORT_KEYS = {"suite", "rule", "verdict", "trials", "seed", "components", "reports"}


class TestReportShapes:
    """A report's JSON keys, and its timing only on request, on a suite and on each of its reports."""

    @pytest.mark.parametrize(
        "run",
        [
            lambda alts, space: check_qic(qcv_rule(PARAMS), default_profile_sampler(space, 3), FAMILY, 5, 0),
            lambda alts, space: check_dictatorship(qcv_rule(PARAMS), space, default_profile_sampler(space, 3), 5, 0),
            lambda alts, space: check_onto(qcvne_rule(PARAMS), alts, 3),
            lambda alts, space: check_unanimity(qcv_rule(PARAMS), space, default_profile_sampler(space, 3), 5, 0),
            lambda alts, space: check_iia(qcv_rule(PARAMS), space, default_paired_sampler(space, 3), 5, 0),
            lambda alts, space: check_composition_preservation(
                qcv_rule(PARAMS), default_profile_sampler(space, 3), FAMILY, 5, 0
            ),
            lambda alts, space: run_gs_suite(qcvne_rule(PARAMS), alts, trials=5, seed=0),
            lambda alts, space: run_arrow_suite(qcv_rule(PARAMS), alts, trials=5, seed=0),
        ],
        ids=["qic", "dictatorship", "onto", "unanimity", "iia", "composition-preservation", "gs-suite", "arrow-suite"],
    )
    def test_keys_timing_and_bytes(self, alts3, space3, run):
        report = run(alts3, space3)
        nested = getattr(report, "reports", [])
        keys = SUITE_REPORT_KEYS if hasattr(report, "suite") else AXIOM_REPORT_KEYS
        data, timed = report.to_jsonable(), report.to_jsonable(include_elapsed=True)
        assert set(data) == keys
        assert set(timed) == keys | {"elapsed_ms"}
        assert timed["elapsed_ms"] == round(report.elapsed_ms, 3)
        assert [set(part) for part in data.get("reports", [])] == [AXIOM_REPORT_KEYS] * len(nested)
        assert [part.pop("elapsed_ms") for part in timed.get("reports", [])] == [
            round(part.elapsed_ms, 3) for part in nested
        ]
        assert "elapsed_ms" not in report.to_json()
        assert report.to_json(include_elapsed=True).count('"elapsed_ms"') == 1 + len(nested)
        assert json.loads(report.to_json()) == report.to_jsonable()
        assert json.loads(report.to_json(include_elapsed=True)) == report.to_jsonable(include_elapsed=True)


# Each record kind's control, run at m=3 with two voters (20 trials, seed 0
# where sampled), and the sha256 of the canonical JSON of its first record.
RECORD_CONTROLS = {
    "manipulation": lambda alts, space, sampler: check_qic(reverse_mix_rule(hooked=True), sampler, FAMILY, 20, 0),
    "dictatorship-counterexample": lambda alts, space, sampler: check_dictatorship(
        qcv_rule(PARAMS), space, sampler, 20, 0
    ),
    "onto-failure": lambda alts, space, sampler: check_onto(constant_choice_rule(alts, "a"), alts, 2),
    "unanimity-violation": lambda alts, space, sampler: check_unanimity(reverse_rule(), space, sampler, 20, 0),
    "iia-violation": lambda alts, space, sampler: check_iia(
        borda_welfare_rule(), space, default_paired_sampler(space, 2), 20, 0
    ),
    "composition-violation": lambda alts, space, sampler: check_composition_preservation(
        split_top_rule(), sampler, FAMILY, 20, 0
    ),
}
RECORD_DIGESTS = {
    "manipulation": "9c6cee8511eaeb8d2a68b2e2149f90d64fe58e444cf5ca125ec8b6e86e288ae5",
    "dictatorship-counterexample": "b3e2c9940f6fbf0f010a40171688a460db47b4fc7150656e7446005d790cb1db",
    "onto-failure": "5b903ee13dfe53b1d617f8b62c1769b91987fd75bfa816dacd30a5ac79283127",
    "unanimity-violation": "6884b27d33a4edb2bac36058ddddd87f31570d34834af64a2ba0e71bce4a279b",
    "iia-violation": "be61bef720047c675cda2381ff5f620c075cbef1ecc9a5ed39eb5c431dcf9b67",
    "composition-violation": "437f01ad97e517eeefc32fd4cfbab59a75bfc6ef80c3a1f09930e6d1ac4fe1b1",
}


@pytest.mark.parametrize("kind", list(RECORD_DIGESTS))
def test_each_record_kind_is_pinned(alts3, space3, kind):
    report = RECORD_CONTROLS[kind](alts3, space3, default_profile_sampler(space3, 2))
    record = report.witnesses[0]
    assert record["kind"] == kind
    assert hashlib.sha256(canonical_json(record).encode()).hexdigest() == RECORD_DIGESTS[kind]


HOOKED_RULES = {
    "qcv": qcv_rule(PARAMS),
    "qcvne": qcvne_rule(PARAMS),
    "dictator:1": dictator_rule(1),
    "dictator:2": dictator_rule(2),
    "natural-extension(dictator:2)": compose(dictator_rule(2)),
    "reverse-mix": reverse_mix_rule(hooked=True),
}


def _output_weights(rule, profile) -> np.ndarray:
    out = rule.evaluate(profile)
    if isinstance(rule, ChoiceRule):
        return np.array(list(out.as_dict().values()))
    return out.diagonal


class TestLinearity:
    @given(
        name=st.sampled_from(sorted(HOOKED_RULES)),
        seed=st.integers(0, 10**6),
        correlated=st.booleans(),
        voter=st.integers(1, 3),
        percent=st.integers(1, 99),
    )
    @settings(max_examples=80, deadline=None)
    def test_mixing_a_ballot_mixes_the_outputs(
        self, space3, name, seed, correlated, voter, percent
    ):
        # A statuses or responses hook declares linearity in each voter's basis weights.
        rule = HOOKED_RULES[name]
        assert axioms._vertex_hook(rule) is not None
        rng = random.Random(seed)
        rankings = space3.rankings()

        def ballot():
            # Small integer weights keep every positive weight far above eps.
            weights = [rng.randrange(4) for _ in rankings]
            weights[rng.randrange(len(rankings))] += 1
            if rng.random() < 0.5:
                return mixed_state(space3, list(zip(weights, rankings)))
            phases = [complex(np.exp(2j * np.pi * rng.random())) for _ in rankings]
            return pure_state(
                space3, [(p * w ** 0.5, r) for p, w, r in zip(phases, weights, rankings)]
            )

        if correlated:
            raw = [(rng.randint(1, 3), [rng.choice(rankings) for _ in range(3)])
                   for _ in range(rng.randint(1, 4))]
            total = sum(w for w, _ in raw)
            profile = ProfileState.correlated(space3, [(w / total, rs) for w, rs in raw])
        else:
            profile = ProfileState.product_of([ballot() for _ in range(3)])
        one, two = ballot(), ballot()
        t = percent / 100
        mix = DensityOperator(space3, t * one.diagonal + (1 - t) * two.diagonal)
        got = _output_weights(rule, profile.substitute_ballot(voter, mix))
        want = t * _output_weights(rule, profile.substitute_ballot(voter, one)) + (
            1 - t
        ) * _output_weights(rule, profile.substitute_ballot(voter, two))
        assert np.allclose(got, want, rtol=0.0, atol=1e-12)

    def test_hook_needs_every_part_linear(self, alts3):
        veto = veto_rule(rk(alts3, "a>b>c"))
        assert axioms._vertex_hook(veto) is None
        assert axioms._vertex_hook(compose(veto)) is None
        assert axioms._vertex_hook(compose(qcv_rule(PARAMS))) is not None
        assert axioms._vertex_hook(reverse_mix_rule(hooked=False)) is None

    @pytest.mark.parametrize("m", [3, 4])
    def test_dictator_hook_matches_per_basis_evaluation(self, m):
        space = space_of(m)
        samplers = [default_profile_sampler(space, 3), correlated_sampler(space, 3)]
        rng = random.Random(m)
        for trial in range(12):
            profile = samplers[trial % 2](rng)
            for dictator in (1, 2, 3):
                rule = dictator_rule(dictator)
                for voter in (1, 2, 3):
                    want = [
                        rule.evaluate(profile.substitute_ballot(voter, basis_state(space, r))).diagonal
                        for r in space.rankings()
                    ]
                    (got,) = rule.responses([(profile, voter)])
                    assert got.shape == (space.dim, space.dim)
                    assert np.allclose(got, want, rtol=0.0, atol=1e-12)


def correlated_sampler(space, n_voters):
    """Correlated profiles over distinct tuples, half of them with a 1e-4 joint term."""
    rankings = space.rankings()

    def sample(rng):
        raw = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
        terms = [(w / sum(raw), [rng.choice(rankings) for _ in range(n_voters)]) for w in raw]
        if rng.random() < 0.5:
            terms = [(w * (1 - 1e-4), rs) for w, rs in terms]
            terms.append((1e-4, [rng.choice(rankings) for _ in range(n_voters)]))
        return ProfileState.correlated(space, terms)

    return sample


def without_hook(rule):
    if isinstance(rule, ChoiceRule):
        return dataclasses.replace(rule, welfare=without_hook(rule.welfare))
    return dataclasses.replace(rule, responses=None, statuses=None)


def report_bytes(report, search):
    """A report's canonical bytes without ``details.search``, which must read ``search``."""
    data = report.to_jsonable()
    for part in data.get("reports", [data]):
        if part["axiom"] in ("qic", "composition-preservation"):
            assert part["details"].pop("search") == search
    return json.dumps(data, sort_keys=True, indent=2)


def counted_evaluations(rule, calls):
    """The rule, recording each profile it evaluates in ``calls``."""
    if isinstance(rule, ChoiceRule):
        return dataclasses.replace(rule, welfare=counted_evaluations(rule.welfare, calls))

    def counted(profile):
        calls.append(profile)
        return rule.evaluate(profile)

    return dataclasses.replace(rule, fn=counted)


def search_voter(adapter, profile, voter, family, society=None):
    """One voter's search as the hunt runs it: its fired clauses, its hook's vertex rows, ``_first_witness``."""
    if society is None:
        society = adapter.society(profile)
    fired = axioms._fired(adapter, profile, voter, society.statuses)
    if not fired:
        return None
    hook = axioms._vertex_hook(adapter.rule)
    rows = None if hook is None else next(iter(hook([(profile, voter)])))
    return axioms._first_witness(adapter, profile, voter, fired, society, family, rows)


class TestBatchedSearch:
    """The vertex search of rules with a ``statuses`` or ``responses`` hook against the family scan."""

    @pytest.mark.parametrize(
        "family",
        [FAMILY, CandidateBallotFamily(basis=False), CandidateBallotFamily(random_pure=8, random_seed=4)],
        ids=["default", "no-basis", "random"],
    )
    def test_reports_match_the_generic_scan(self, space3, family):
        # The default family starts with the basis ballots, so the vertex search
        # finds the family scan's witness. Other families need not contain the
        # vertices, but wherever the family holds a witness, some vertex does.
        hooked, generic = reverse_mix_rule(hooked=True), reverse_mix_rule(hooked=False)
        samplers = [default_profile_sampler(space3, 3), correlated_sampler(space3, 3)]
        if family == FAMILY:
            for sampler in samplers:
                reports = [
                    [report_bytes(check_qic(rule, sampler, family, trials=10, seed=seed), search)
                     for seed in range(5)]
                    for rule, search in ((hooked, "vertices"), (generic, "family"))
                ]
                assert reports[0] == reports[1]
                assert any('"kind": "manipulation"' in r for r in reports[0])
                composition = [
                    check_composition_preservation(
                        rule, sampler, family, trials=10, seed=3
                    )
                    for rule in (hooked, generic)
                ]
                assert composition[0].details["welfare_witnesses"] > 0
                assert report_bytes(composition[0], "vertices") == report_bytes(composition[1], "family")
            return
        rng = random.Random(11)
        found = 0
        for trial in range(16):
            profile = samplers[trial % 2](rng)
            for name in ("qcvne", "dictator:2", "reverse-mix"):
                rule = HOOKED_RULES[name]
                adapters = [axioms._Targets(r, space3, 1e-9) for r in (rule, without_hook(rule))]
                for voter in (1, 2, 3):
                    vertex, scanned = (search_voter(adapter, profile, voter, family) for adapter in adapters)
                    if scanned is not None:
                        found += 1
                        assert vertex is not None, (name, voter)
                        assert reverify_witness(rule, vertex)
        assert found > 0

    def test_scan_evaluates_only_basis_responses(self, alts3, space3, cycle_profile, monkeypatch):
        monkeypatch.setattr(axioms, "_family_ballots", refuse_to_build)
        calls = []
        rule = counted_evaluations(qcv_rule(PARAMS), calls)
        profile = ProfileState.basis(cycle_profile)
        assert manipulation_witness(rule, profile, 1, ("a", "b"), FAMILY) is None
        # Statuses decide both sides of the search, and no record is written: nothing is evaluated.
        assert calls == []

    @pytest.mark.parametrize("shortfall, found", [(5e-12, True), (1e-10, False)])
    def test_vertices_near_a_threshold_are_evaluated_exactly(self, alts3, space3, shortfall, found):
        # Society gets voter 1's ballot upside down, so every ballot ranking b
        # above a achieves the strong-negative clause on (b, a) with value 0.
        # The hook reads those vertices as eps + shortfall instead: within
        # _VERTEX_MARGIN of the threshold they are evaluated exactly, beyond it not.
        base = reverse_rule()
        inside = pair_projector(space3, "b", "a").indices
        eps = 1e-9  # the check's eps: manipulation_witness's default

        def responses(profile, voter):
            rows = np.array([
                base.evaluate(profile.substitute_ballot(voter, basis_state(space3, r))).diagonal
                for r in space3.rankings()
            ])
            off = rows[:, inside].sum(axis=1) == 0.0
            rows[off] *= 1.0 - (eps + shortfall)
            rows[np.flatnonzero(off), inside[0]] += eps + shortfall
            return rows

        rule = dataclasses.replace(base, responses=batch_hook(base.evaluate, responses))
        profile = ProfileState.product_of([basis_state(space3, rk(alts3, "a>b>c"))] * 2)
        witness = manipulation_witness(rule, profile, 1, ("b", "a"), FAMILY)
        assert (witness is not None) == found
        if found:
            assert witness.dishonest_value == 0.0
            assert witness.clause.value == "strong-negative"

    def test_scanned_voter_never_builds_the_family(self, monkeypatch):
        # A light joint term (1e-4) must not widen the search: the vertices
        # stand for the family there too.
        monkeypatch.setattr(axioms, "_family_ballots", refuse_to_build)
        space = space_of(4)
        params = QcvParams.for_alternatives(4)
        rules = [qcv_rule(params), qcvne_rule(params), dictator_rule(2),
                 compose(dictator_rule(2)), reverse_mix_rule(hooked=True)]
        rankings = space.rankings()
        light = ProfileState.correlated(space, [
            ((1 - 1e-4) / 2, (rankings[0], rankings[9], rankings[17])),
            ((1 - 1e-4) / 2, (rankings[5], rankings[14], rankings[20])),
            (1e-4, (rankings[23], rankings[23], rankings[23])),
        ])
        profiles = [light]
        rng = random.Random(5)
        for sampler in (default_profile_sampler(space, 3), correlated_sampler(space, 3)):
            profiles += [sampler(rng) for _ in range(6)]
        hooked = 0
        for rule in rules:
            calls = []
            counted = counted_evaluations(rule, calls)
            for profile in profiles:
                adapter = axioms._Targets(counted, space, 1e-9)
                society = adapter.society(profile)
                for voter in (1, 2, 3):
                    calls.clear()
                    search_voter(adapter, profile, voter, FAMILY, society)
                    assert len(calls) <= 1
                    hooked += len(calls)
        assert hooked > 0  # reverse-mix has witnesses here, each from one exact evaluation
        qcvne_calls = []
        rule = counted_evaluations(qcvne_rule(params), qcvne_calls)
        for alternative in space.alternatives.names:
            manipulation_witness(rule, light, 1, alternative, FAMILY)
        # Statuses decide the truthful profile and the search, and no witness is found: nothing is evaluated.
        assert qcvne_calls == []

    @pytest.mark.parametrize("sampler", [default_profile_sampler, correlated_sampler],
                             ids=["product", "correlated"])
    @pytest.mark.parametrize("m", [3, 4])
    def test_reports_match_the_per_basis_loop(self, m, sampler):
        # Hooked rules against the same rules without the hook, which scan the
        # default family ballot by ballot. At m=4 that scan costs up to 3,152
        # evaluations per voter, so there only qic runs: on the controls, which
        # stop at their first witness, and on product profiles one qcvne trial.
        space = space_of(m)
        params = QcvParams.for_alternatives(m)
        mix = reverse_mix_rule(hooked=True)

        def same(run):
            hooked = run(lambda r: r, "vertices")
            assert hooked == run(without_hook, "family")
            return hooked

        def qic(rule, trials, seeds):
            return lambda variant, search: [
                report_bytes(check_qic(variant(rule), sampler(space, 3), FAMILY, trials, seed), search)
                for seed in seeds
            ]

        if m == 4:
            for control in (mix, compose(mix)):
                assert any('"kind": "manipulation"' in r for r in same(qic(control, 3, (1, 2))))
            if sampler is default_profile_sampler:
                same(qic(qcvne_rule(params), 1, (1,)))
            return
        dictator = dictator_rule(2)
        welfare_rules = [qcv_rule(params), dictator, mix]
        choice_rules = [qcvne_rule(params), compose(dictator)]
        trials = 4

        for rule in welfare_rules + choice_rules:
            assert axioms._vertex_hook(rule) is not None
            same(qic(rule, trials, (1, 2)))
        for rule in welfare_rules:
            same(lambda variant, search: report_bytes(check_composition_preservation(
                variant(rule), sampler(space, 3), FAMILY, trials, seed=5
            ), search))
        if sampler is default_profile_sampler:
            for rule in choice_rules:
                same(lambda variant, search: report_bytes(
                    run_gs_suite(variant(rule), space.alternatives, trials=trials, seed=7), search
                ))

    def test_composition_shares_the_welfare_rules_hook(self, alts3):
        for rule in (qcv_rule(PARAMS), dictator_rule(1), veto_rule(rk(alts3, "a>b>c"))):
            assert compose(rule).responses is rule.responses

    def test_no_substitution_and_no_extension_per_scanned_voter(self, space3, cycle_profile, monkeypatch):
        rule = qcvne_rule(PARAMS)
        profile = ProfileState.basis(cycle_profile)
        adapter = axioms._Targets(rule, space3, 1e-9)
        society = adapter.society(profile)
        joint = ProfileState.correlated(space3, [(1.0, cycle_profile)])
        joint_society = adapter.society(joint)
        counts = {"substitute_ballot": 0, "natural_extension": 0}
        substitute, extension = ProfileState.substitute_ballot, choice.natural_extension

        def counted_substitute(*args, **kwargs):
            counts["substitute_ballot"] += 1
            return substitute(*args, **kwargs)

        def counted_extension(*args, **kwargs):
            counts["natural_extension"] += 1
            return extension(*args, **kwargs)

        monkeypatch.setattr(ProfileState, "substitute_ballot", counted_substitute)
        monkeypatch.setattr(choice, "natural_extension", counted_extension)
        # Voter 1 is certain that a wins and society is not: the clause fires.
        assert society.values[adapter.targets.index("a")] < 1.0 - 1e-9
        assert search_voter(adapter, profile, 1, FAMILY, society) is None
        # A product profile folds the other voters' factors, and a correlated
        # one its joint terms without the voter's column: neither substitutes.
        assert counts == {"substitute_ballot": 0, "natural_extension": 0}
        assert search_voter(adapter, joint, 1, FAMILY, joint_society) is None
        assert counts == {"substitute_ballot": 0, "natural_extension": 0}

    def test_support_cap_through_the_hook(self, space3, monkeypatch):
        rankings = space3.rankings()
        triple = mixed_state(space3, [(1.0, r) for r in rankings[:3]])
        profile = ProfileState.product_of([triple] * 3)
        rule, off = qcv_rule(PARAMS), ~np.eye(3, dtype=bool)
        pairs, winners = read_statuses(space3.alternatives, per_basis_loop(profile, 1, PARAMS))
        monkeypatch.setattr(hilbert, "DEFAULT_SUPPORT_CAP", 5)
        # With a basis ballot substituted, the other two voters reach 6 distinct tallies, past the cap of 5.
        with pytest.raises(ResourceLimit, match="^profile support exceeds 5 distinct tallies$"):
            rule.evaluate(profile.substitute_ballot(1, basis_state(space3, rankings[0]), 1e-9))

        def refuse(*args):
            raise AssertionError("the hook folded or scored")

        # The vertex hook folds nothing, so the cap does not reach it: the voter's vertices are decided
        # as the per-basis loop read them under the default cap.
        monkeypatch.setattr(welfare, "_folded", refuse)
        monkeypatch.setattr(welfare, "_qcv_rows", refuse)
        (got,) = axioms._vertex_hook(rule)([(profile, 1)])
        assert (got.pairs[:, off] == pairs[:, off]).all() and (got.winners == winners).all()


def streaming(monkeypatch):
    """One draw a batch, and one term a kernel call, from here on."""
    monkeypatch.setattr(axioms, "_BATCH_DRAWS", 1)
    monkeypatch.setattr(welfare, "_KERNEL_CELLS", 1)


def failing_at(rule, draw, sampler):
    """The rule and the sampler, the rule refusing the sampler's profile of the given draw (counted from 1).

    A rule with a hook refuses it in the hook, and any other rule in ``evaluate``.
    """
    drawn = []

    def recording(rng):
        drawn.append(sampler(rng))
        return drawn[-1]

    def refuse(profile):
        if len(drawn) >= draw and profile is drawn[draw - 1]:
            raise InvalidArgument("the rule refused")

    if rule.responses is None:
        def evaluate(profile):
            refuse(profile)
            return rule.evaluate(profile)

        return dataclasses.replace(rule, fn=evaluate), recording
    inner = rule.responses

    def hook(requests):
        requests = list(requests)
        for (profile, voter), result in zip(requests, inner(requests)):
            if voter is None:
                refuse(profile)
            yield result

    return dataclasses.replace(rule, responses=hook), recording


class TestDrawBatches:
    """Hunts take a batch of draws at a time, with or without a hook, with the reports of a draw-by-draw check."""

    def test_batches_hold_a_fixed_number_of_draws(self, monkeypatch):
        # At every m: the hook, not the batch, bounds what a hook call holds.
        assert [len(batch) for batch in axioms._batches(iter(range(150)))] == [64, 64, 22]
        # From a first size, batches double up to _BATCH_DRAWS.
        assert [len(batch) for batch in axioms._batches(iter(range(150)), 1)] == [1, 2, 4, 8, 16, 32, 64, 23]
        streaming(monkeypatch)
        assert [len(batch) for batch in axioms._batches(iter(range(3)))] == [1, 1, 1]
        assert [len(batch) for batch in axioms._batches(iter(range(3)), 1)] == [1, 1, 1]

    def test_dictatorship_draws_at_most_twice_what_it_reads(self, space3, space4):
        # Its batches start at one draw and double, so every batch it scores but
        # one is read whole, and the last is read at least in its first draw.
        stopped = 0
        for space, rule in ((space3, qcv_rule(PARAMS)), (space4, qcvne_rule(QcvParams.for_alternatives(4)))):
            sampler = default_profile_sampler(space, 3)
            for seed in range(12):
                drawn = []

                def counting(rng):
                    drawn.append(seed)
                    return sampler(rng)

                report = check_dictatorship(rule, space, counting, 100, seed)
                assert len(drawn) <= 2 * report.details["trials_run"] - 1
                stopped += report.details["trials_run"] < 100
        assert stopped == 24
        # A dictator survives every draw, and every draw is read.
        drawn = []
        sampler = default_profile_sampler(space3, 3)
        report = check_dictatorship(dictator_rule(2), space3, lambda rng: drawn.append(0) or sampler(rng), 100, 1)
        assert report.details["trials_run"] == len(drawn) == 100

    def test_witness_in_the_middle_of_a_batch(self, space3, monkeypatch):
        # Ten draws make one batch at m=3; the witness comes from a draw inside
        # it, and the report is the one a draw-by-draw hunt and the family scan give.
        hooked, generic = reverse_mix_rule(hooked=True), reverse_mix_rule(hooked=False)
        sampler = default_profile_sampler(space3, 3)
        inside = {}
        for seed in range(30):
            report = check_qic(hooked, sampler, FAMILY, trials=10, seed=seed)
            if report.witnesses and 1 < report.details["trials_run"] < 10:
                inside[seed] = report_bytes(report, "vertices")
        assert len(inside) >= 3
        for seed, want in inside.items():
            assert report_bytes(check_qic(generic, sampler, FAMILY, 10, seed), "family") == want
        streaming(monkeypatch)
        for seed, want in inside.items():
            assert report_bytes(check_qic(hooked, sampler, FAMILY, 10, seed), "vertices") == want

    def test_reports_do_not_depend_on_the_batch_size(self, alts3, space3, monkeypatch):
        sampler = default_profile_sampler(space3, 3)
        mix, generic = reverse_mix_rule(hooked=True), reverse_mix_rule(hooked=False)

        def reports():
            return [
                run_gs_suite(qcvne_rule(PARAMS), alts3, trials=40, seed=3).to_json(),
                run_arrow_suite(qcv_rule(PARAMS), alts3, trials=40, seed=3).to_json(),
                check_composition_preservation(qcv_rule(PARAMS), sampler, FAMILY, 40, 5).to_json(),
                check_composition_preservation(mix, sampler, FAMILY, 20, 5).to_json(),
                check_dictatorship(dictator_rule(2), space3, sampler, 40, 1).to_json(),
                check_qic(compose(mix), sampler, FAMILY, 40, 2).to_json(),
                # Rules without a hook, which search the family.
                check_qic(veto_rule(rk(alts3, "a>b>c")), sampler, FAMILY, 40, 2).to_json(),
                check_qic(generic, sampler, FAMILY, 40, 2).to_json(),
                check_composition_preservation(generic, sampler, FAMILY, 20, 5).to_json(),
            ]

        batched = reports()
        # The dictatorship scan stopped early, before its 40 draws were read.
        assert json.loads(batched[0])["reports"][2]["details"]["trials_run"] < 40
        streaming(monkeypatch)
        assert reports() == batched

    @pytest.mark.parametrize("draw", [1, 2, 3, 5, 10])
    def test_an_error_is_raised_where_a_draw_by_draw_check_raises_it(self, space3, monkeypatch, draw):
        # On this seed the witness comes from draw 2: an error on a later draw
        # of the batch is never raised, an error on draw 2 or before is. A rule
        # without a hook is hunted in the same batches, with the same reports.
        sampler = default_profile_sampler(space3, 3)
        rules = [reverse_mix_rule(hooked=True), reverse_mix_rule(hooked=False)]
        wants = [check_qic(rule, sampler, FAMILY, 10, 11) for rule in rules]
        assert [want.details["trials_run"] for want in wants] == [2, 2]
        for split in (False, True):
            if split:
                streaming(monkeypatch)
            for rule, want in zip(rules, wants):
                failing, recording = failing_at(rule, draw, sampler)
                if draw <= 2:
                    with pytest.raises(InvalidArgument, match="the rule refused"):
                        check_qic(failing, recording, FAMILY, 10, 11)
                else:
                    assert check_qic(failing, recording, FAMILY, 10, 11).to_json() == want.to_json()

    def test_gs_suite_at_m4_kernel_calls_by_stage(self, alts4, monkeypatch):
        # Statuses decide the hunt's truthful profiles, the scanned voters'
        # vertices and the onto profiles, so none runs the kernel. The
        # dictatorship scan reads 2 draws and writes counterexamples on both:
        # one kernel call each, from the fold of its records.
        calls = []
        kernel = welfare._qcv_rows

        def counted(alternatives, signatures, params):
            calls.append(len(signatures))
            return kernel(alternatives, signatures, params)

        monkeypatch.setattr(welfare, "_qcv_rows", counted)
        report = run_gs_suite(qcvne_rule(QcvParams.for_alternatives(4)), alts4, trials=10, seed=117406795)
        assert report.reports[0].details["trials_run"] == 10
        assert report.reports[2].details["trials_run"] == 2
        # Rows a call: the distinct majority signatures it scores.
        assert calls == [2, 1], calls
