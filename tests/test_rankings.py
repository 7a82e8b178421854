import math
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsc import (
    AlternativeSet,
    InvalidArgument,
    QcvParams,
    Ranking,
    RankingSpace,
    all_rankings,
    pair_projector,
    qcv_basis,
    ranking_index,
    winner_projector,
)
from qsc.rankings import basis_table

from oracles import lehmer_index, lehmer_order, oracle_condorcet_scores
from stepwise import (
    ClassicalProfile,
    WeakOrder,
    linear_extensions,
    voters_preferring,
    weak_order_from_scores,
)


def rk(alts, text):
    return Ranking.from_string(alts, text)


def condorcet_scores(rankings):
    """The scores ``qcv_basis`` reads from the kernel's wins."""
    alts = rankings[0].alternatives
    params = QcvParams.for_alternatives(alts.m)
    return qcv_basis(alts, [ranking_index(r) for r in rankings], params).scores


class TestPrefers:
    def test_top_beats_bottom(self, alts3):
        assert rk(alts3, "a>b>c").prefers("a", "c") is True

    def test_complement(self, alts3):
        assert rk(alts3, "a>b>c").prefers("c", "a") is False

    def test_read_off_positions(self, alts3):
        assert rk(alts3, "c>a>b").prefers("a", "b") is True

    def test_same_alternative_rejected(self, alts3):
        with pytest.raises(InvalidArgument):
            rk(alts3, "a>b>c").prefers("a", "a")

    def test_unknown_alternative_rejected(self, alts3):
        with pytest.raises(InvalidArgument):
            rk(alts3, "a>b>c").prefers("a", "q")


class TestVotersPreferring:
    def test_cycle_profile(self, alts3, cycle_profile):
        profile = ClassicalProfile(cycle_profile)
        assert voters_preferring(profile, "a", "b") == {1, 3}

    def test_unanimous(self, alts3, unanimous_profile):
        profile = ClassicalProfile(unanimous_profile)
        assert voters_preferring(profile, "a", "b") == {1, 2, 3}
        assert voters_preferring(profile, "b", "a") == frozenset()

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_partition_of_voters(self, data):
        labels = tuple("abcd")[: data.draw(st.integers(2, 4))]
        alts = AlternativeSet(labels)
        n = data.draw(st.integers(1, 5))
        orders = data.draw(
            st.lists(st.permutations(range(len(labels))), min_size=n, max_size=n)
        )
        profile = ClassicalProfile(tuple(Ranking(alts, tuple(o)) for o in orders))
        for x in labels:
            for y in labels:
                if x == y:
                    continue
                forward = voters_preferring(profile, x, y)
                backward = voters_preferring(profile, y, x)
                assert len(forward) + len(backward) == n
                assert not forward & backward


class TestCondorcetScores:
    def test_cycle_gives_all_ones(self, alts3, cycle_profile):
        assert condorcet_scores(cycle_profile) == {"a": 1, "b": 1, "c": 1}

    def test_unanimous(self, alts3, unanimous_profile):
        assert condorcet_scores(unanimous_profile) == {"a": 2, "b": 1, "c": 0}

    def test_tie_credits_both_sides(self, alts3, two_voter_profile):
        assert condorcet_scores(two_voter_profile) == {"a": 2, "b": 1, "c": 1}

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force(self, data):
        labels = tuple("abcd")[: data.draw(st.integers(2, 4))]
        alts = AlternativeSet(labels)
        n = data.draw(st.integers(1, 5))
        orders = data.draw(
            st.lists(st.permutations(range(len(labels))), min_size=n, max_size=n)
        )
        rankings = tuple(Ranking(alts, tuple(o)) for o in orders)
        got = condorcet_scores(rankings)
        assert got == oracle_condorcet_scores(labels, [r.labels for r in rankings])

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_relabelling_equivariance(self, data):
        labels = ("a", "b", "c")
        alts = AlternativeSet(labels)
        n = data.draw(st.integers(1, 4))
        orders = data.draw(st.lists(st.permutations(range(3)), min_size=n, max_size=n))
        perm = data.draw(st.permutations(range(3)))
        rankings = tuple(Ranking(alts, tuple(o)) for o in orders)
        base = condorcet_scores(rankings)
        relabelled = condorcet_scores(tuple(r.relabelled(perm) for r in rankings))
        for i, name in enumerate(labels):
            assert relabelled[labels[perm[i]]] == base[name]


class TestWeakOrder:
    def test_two_tiers(self, alts3):
        order = weak_order_from_scores(alts3, {"a": 2, "b": 1, "c": 1})
        assert order.tier_labels() == [["a"], ["b", "c"]]

    def test_total_tie(self, alts3):
        order = weak_order_from_scores(alts3, {"a": 1, "b": 1, "c": 1})
        assert order.tier_labels() == [["a", "b", "c"]]

    def test_strict(self, alts3):
        order = weak_order_from_scores(alts3, {"a": 2, "b": 1, "c": 0})
        assert order.tier_labels() == [["a"], ["b"], ["c"]]

    def test_missing_alternative_rejected(self, alts3):
        with pytest.raises(InvalidArgument):
            weak_order_from_scores(alts3, {"a": 2, "b": 1})

    def test_malformed_tiers_rejected(self, alts3):
        with pytest.raises(InvalidArgument):
            WeakOrder(alts3, (frozenset({0, 1}),))
        with pytest.raises(InvalidArgument):
            WeakOrder(alts3, (frozenset({0, 1}), frozenset({1, 2})))


class TestLinearExtensions:
    def test_full_tie_yields_all_orders(self, alts3):
        order = WeakOrder(alts3, (frozenset({0, 1, 2}),))
        assert len(linear_extensions(order)) == 6

    def test_single_binary_tie(self, alts3):
        order = WeakOrder(alts3, (frozenset({0}), frozenset({1, 2})))
        assert [r.to_string() for r in linear_extensions(order)] == ["a>b>c", "a>c>b"]

    def test_already_linear(self, alts3):
        order = WeakOrder(alts3, (frozenset({0}), frozenset({1}), frozenset({2})))
        assert [r.to_string() for r in linear_extensions(order)] == ["a>b>c"]

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force_filter(self, data):
        m = data.draw(st.integers(2, 5))
        labels = tuple("abcde")[:m]
        alts = AlternativeSet(labels)
        cuts = data.draw(st.sets(st.integers(1, m - 1)))
        bounds = [0, *sorted(cuts), m]
        tiers = tuple(
            frozenset(range(bounds[i], bounds[i + 1])) for i in range(len(bounds) - 1)
        )
        order = WeakOrder(alts, tiers)
        got = linear_extensions(order)
        expected_count = math.prod(math.factorial(len(t)) for t in tiers)
        assert len(got) == expected_count
        tier_of = {i: t for t, tier in enumerate(tiers) for i in tier}
        brute = {
            p
            for p in permutations(range(m))
            if all(tier_of[p[i]] <= tier_of[p[j]] for i in range(m) for j in range(i + 1, m))
        }
        assert {r.order for r in got} == brute

    def test_output_is_lexicographic(self, alts4):
        order = WeakOrder(alts4, (frozenset({0, 2}), frozenset({1, 3})))
        got = [r.order for r in linear_extensions(order)]
        assert got == sorted(got)


class TestRankingIndex:
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_bijection_roundtrip(self, m):
        alts = AlternativeSet(tuple("abcdef")[:m])
        seen = set()
        for i in range(math.factorial(m)):
            r = all_rankings(alts)[i]
            assert ranking_index(r) == i
            seen.add(r.order)
        assert len(seen) == math.factorial(m)

    def test_identity_is_index_zero(self, alts3):
        assert all_rankings(alts3)[0].to_string() == "a>b>c"

    def test_index_range(self, alts3):
        # The one public reader of raw basis indices refuses those outside 0..m!-1, and non-integers.
        params = QcvParams.for_alternatives(3)
        for indices in ([6], [0, -1], [], [0.5, 1], [0, 2.0]):
            with pytest.raises(InvalidArgument):
                qcv_basis(alts3, indices, params)

    def test_all_rankings_sorted_by_index(self, alts3):
        rankings = all_rankings(alts3)
        assert [ranking_index(r) for r in rankings] == list(range(6))
        assert [r.order for r in rankings] == sorted(r.order for r in rankings)


class TestBasisTable:
    """Every structure read from the basis table against its per-ranking definition."""

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_matches_per_ranking_definitions(self, m):
        alts = AlternativeSet(tuple("uvwxyz")[:m])
        space = RankingSpace(alts)
        rankings = all_rankings(alts)
        assert len(rankings) == math.factorial(m)
        for k, r in enumerate(rankings):
            assert r.order == lehmer_order(k, m)
            assert ranking_index(r) == k == lehmer_index(r.order)
            assert space.basis_index(Ranking(alts, r.order)) == lehmer_index(r.order)
            assert r.to_string() == ">".join(r.labels)
            assert Ranking.from_string(alts, ">".join(r.labels)).to_string() == ">".join(r.labels)
        table = basis_table(alts)
        for x in alts.names:
            tops = [k for k, r in enumerate(rankings) if r.top() == x]
            assert winner_projector(space, x).indices.tolist() == tops
            for y in alts.names:
                if x == y:
                    continue
                inside = [k for k, r in enumerate(rankings) if r.prefers(x, y)]
                assert pair_projector(space, x, y).indices.tolist() == inside
                column = table.above[:, alts.index(x), alts.index(y)]
                assert np.flatnonzero(column).tolist() == inside
                assert table.pair_rows[alts.index(x), alts.index(y)].tolist() == inside
        assert not table.above[:, range(m), range(m)].any()
        assert len(table.pair_rows) == m * (m - 1)

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_winner_rows_are_lehmer_blocks(self, m):
        table = basis_table(AlternativeSet(tuple("uvwxyz")[:m]))
        block = math.factorial(m - 1)
        assert table.winner_rows.shape == (m, block)
        for a in range(m):
            assert table.winner_rows[a].tolist() == [k for k, r in enumerate(table.rankings) if r.order[0] == a]
            assert table.winner_rows[a].tolist() == list(range(a * block, (a + 1) * block))

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_strings_are_looked_up_not_parsed(self, m):
        alts = AlternativeSet(tuple("uvwxyz")[:m])
        table = basis_table(alts)
        assert len(table.string_index) == len(table.strings)
        for k, text in enumerate(table.strings):
            assert table.string_index[text] == k
            assert Ranking.from_string(alts, text) is table.rankings[k]
            assert Ranking.from_string(alts, f" {text.replace('>', ' > ')}\t") is table.rankings[k]

    def test_one_table_per_alternative_set(self, alts3):
        assert basis_table(AlternativeSet(("a", "b", "c"))) is basis_table(alts3)
        table = basis_table(alts3)
        for array in (table.above, table.orients, table.pairs, table.winner_rows, *table.upper,
                      *table.pair_rows.values()):
            assert not array.flags.writeable
        d, m, _ = table.above.shape
        assert table.orients.dtype == np.float32
        assert np.array_equal(table.orients, table.above.reshape(d, m * m).T.astype(np.float32))


class TestAlternativeSet:
    def test_needs_two_alternatives(self):
        with pytest.raises(InvalidArgument):
            AlternativeSet(("a",))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(InvalidArgument):
            AlternativeSet(("a", "a"))

    def test_dimension_cap(self):
        with pytest.raises(InvalidArgument, match="5040 > cap 720"):
            AlternativeSet(tuple("abcdefg"))

    def test_not_a_permutation_rejected(self, alts3):
        with pytest.raises(InvalidArgument):
            Ranking(alts3, (0, 0, 2))
