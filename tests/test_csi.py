from __future__ import annotations

import random
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from conftest import cohort_actions, counts_from_mapping, oracle_tables, random_actions
from syncindex.csi import (
    NORMALIZATIONS,
    PAIR_FORMULAS,
    CsiConfig,
    UndefinedNetworkError,
    compute_tables,
    csi_network,
    read_pair_scores_csv,
    read_user_scores_csv,
    write_pair_scores_csv,
    write_user_scores_csv,
)
from syncindex.events import ACTION_TYPES
from syncindex.synchrony import detect

USERS = [f"u{i}" for i in range(10)]
# Random tables: pairs over few users so users share pairs, 1-3 action types a pair.
count_tables = st.dictionaries(
    st.tuples(st.sampled_from(USERS), st.sampled_from(USERS)).filter(lambda p: p[0] != p[1]),
    st.dictionaries(st.sampled_from(ACTION_TYPES), st.integers(1, 60), min_size=1, max_size=3),
    min_size=1,
    max_size=25,
)


def pair_scores(counts, **config):
    return compute_tables(counts, CsiConfig(**config)).pair_scores


class TestNormalize:
    """One action type per pair: the anchored pair score is the normalized count."""

    def test_none_is_identity(self):
        counts = counts_from_mapping({("u", "v"): {"hashtag": 4}})
        assert pair_scores(counts, normalization="none") == {("u", "v"): 4.0}

    def test_per_action_max(self):
        counts = counts_from_mapping(
            {("u", "v"): {"hashtag": 2}, ("w", "x"): {"hashtag": 4}}
        )
        scores = pair_scores(counts, normalization="per_action_max")
        assert scores[("u", "v")] == 0.5
        assert scores[("w", "x")] == 1.0

    def test_single_pair_is_its_own_max(self):
        counts = counts_from_mapping({("u", "v"): {"url": 7}})
        assert pair_scores(counts, normalization="per_action_max") == {("u", "v"): 1.0}


class TestPairFormulas:
    def test_anchored_single_action_one_point(self):
        counts = counts_from_mapping({("u", "v"): {"hashtag": 1}})
        assert pair_scores(counts)[("u", "v")] == pytest.approx(1.0, abs=1e-12)

    def test_anchored_two_actions(self):
        counts = counts_from_mapping({("u", "v"): {"hashtag": 2, "url": 3}})
        assert pair_scores(counts)[("u", "v")] == pytest.approx(8.0, abs=1e-12)

    def test_anchored_three_actions(self):
        counts = counts_from_mapping({("u", "v"): {"hashtag": 1, "url": 1, "mention": 1}})
        assert pair_scores(counts)[("u", "v")] == pytest.approx(3.0, abs=1e-12)

    @pytest.mark.parametrize(
        "actions,prose,literal",
        [
            ({"hashtag": 1}, 0.0, 0.0),
            ({"hashtag": 2, "url": 3}, 6.0, 1.0),
            ({"hashtag": 1, "url": 1, "mention": 1}, 0.0, -6.0),
        ],
    )
    def test_prose_and_literal_closed_forms(self, actions, prose, literal):
        counts = counts_from_mapping({("u", "v"): actions})
        assert pair_scores(counts, pair_formula="prose")[("u", "v")] == pytest.approx(prose, abs=1e-12)
        assert pair_scores(counts, pair_formula="literal")[("u", "v")] == pytest.approx(literal, abs=1e-12)

    def test_symmetry_of_unordered_pair(self):
        counts = counts_from_mapping({("b", "a"): {"url": 2}})
        scores = pair_scores(counts)
        assert set(scores) == {("a", "b")}


class TestUserAndNetwork:
    def test_user_score_weighted_sum(self):
        counts = counts_from_mapping(
            {("u", "v"): {"hashtag": 2}, ("u", "w"): {"hashtag": 1}}
        )
        tables = compute_tables(counts)
        scores = tables.pair_scores
        assert scores[("u", "v")] == 2.0
        assert scores[("u", "w")] == 1.0
        users = tables.user_scores
        assert users["u"] == pytest.approx(2 * 2 + 1 * 1, abs=1e-12)

    def test_symmetric_contribution(self):
        counts = counts_from_mapping({("u", "v"): {"hashtag": 2}})
        users = compute_tables(counts).user_scores
        assert users["v"] == pytest.approx(4.0, abs=1e-12)
        assert users["u"] == users["v"]

    def test_single_pair_minimal_score(self):
        counts = counts_from_mapping({("u", "v"): {"mention": 1}})
        users = compute_tables(counts).user_scores
        assert users["u"] == 1.0

    def test_network_mean(self):
        assert csi_network({"a": 5.0, "b": 4.0, "c": 1.0}) == pytest.approx(10 / 3, abs=1e-12)

    def test_network_single_user(self):
        assert csi_network({"a": 7.0}) == 7.0

    def test_network_of_constants(self):
        assert csi_network({"a": 3.5, "b": 3.5, "c": 3.5, "d": 3.5}) == pytest.approx(3.5)

    def test_network_undefined_when_empty(self):
        with pytest.raises(UndefinedNetworkError):
            csi_network({})


class TestSingleAction:
    def test_restriction_is_identity_for_single_action_data(self):
        counts = counts_from_mapping(
            {("u", "v"): {"hashtag": 2}, ("w", "x"): {"hashtag": 5}}
        )
        tables = compute_tables(counts)
        assert tables.per_action_network["hashtag"] == pytest.approx(tables.network_score, abs=1e-12)

    def test_hand_pipeline(self):
        counts = counts_from_mapping(
            {("a", "b"): {"hashtag": 1}, ("c", "d"): {"hashtag": 3}}
        )
        # pair scores {1, 3}; user scores {1, 1, 9, 9}; mean 5
        assert compute_tables(counts).per_action_network["hashtag"] == pytest.approx(5.0, abs=1e-12)

    def test_absent_action_type_has_no_network(self):
        counts = counts_from_mapping({("u", "v"): {"hashtag": 1}})
        assert list(compute_tables(counts).per_action_network) == ["hashtag"]


class TestInvariantsAndProperties:
    def test_default_config_scores_at_least_num_actions(self):
        rng = random.Random(17)
        for _ in range(20):
            counts = detect(random_actions(rng, max_users=12, max_records=120))
            if not counts:
                continue
            scores = pair_scores(counts)
            for pair, score in scores.items():
                assert score >= len(counts[pair]) >= 1

    def test_network_between_min_and_max_user_score(self):
        rng = random.Random(19)
        for _ in range(20):
            counts = detect(random_actions(rng, max_users=12, max_records=150))
            if not counts:
                continue
            tables = compute_tables(counts)
            values = tables.user_scores.values()
            assert min(values) - 1e-12 <= tables.network_score <= max(values) + 1e-12

    def test_monotone_in_each_count(self):
        base = counts_from_mapping({("u", "v"): {"hashtag": 2, "url": 1}})
        bumped = counts_from_mapping({("u", "v"): {"hashtag": 3, "url": 1}})
        assert pair_scores(bumped)[("u", "v")] > pair_scores(base)[("u", "v")]

    def test_formula_variants_agree_on_order_for_fixed_k(self):
        low = counts_from_mapping({("u", "v"): {"hashtag": 1, "url": 2}})
        high = counts_from_mapping({("u", "v"): {"hashtag": 4, "url": 2}})
        for formula in ("anchored", "prose", "literal"):
            assert (
                pair_scores(high, pair_formula=formula)[("u", "v")]
                > pair_scores(low, pair_formula=formula)[("u", "v")]
            )

    def test_user_set_matches_pairs(self):
        rng = random.Random(29)
        counts = detect(random_actions(rng, max_users=20, max_records=200))
        if not counts:
            pytest.skip("random instance had no synchrony")
        tables = compute_tables(counts)
        assert set(tables.user_scores) == {user for pair in counts for user in pair}

    def test_network_is_mean_of_users(self):
        rng = random.Random(31)
        counts = detect(random_actions(rng, max_users=20, max_records=200))
        if not counts:
            pytest.skip("random instance had no synchrony")
        tables = compute_tables(counts)
        mean = sum(tables.user_scores.values()) / len(tables.user_scores)
        assert tables.network_score == pytest.approx(mean, abs=1e-9)


def hexed(scores: dict) -> list:
    return [(key, value.hex()) for key, value in scores.items()]


class TestOnePassMatchesOracle:
    """compute_tables against the multi-pass definition, float for float and key for key."""

    @staticmethod
    def assert_bit_identical(counts, config):
        got, want = compute_tables(counts, config), oracle_tables(counts, config)
        assert hexed(got.pair_scores) == hexed(want.pair_scores)
        assert hexed(got.user_scores) == hexed(want.user_scores)
        assert got.network_score.hex() == want.network_score.hex()
        assert hexed(got.per_action_network) == hexed(want.per_action_network)

    @pytest.mark.parametrize("normalization", NORMALIZATIONS)
    @pytest.mark.parametrize("formula", PAIR_FORMULAS)
    @settings(max_examples=60, deadline=None)
    @given(table=count_tables)
    def test_bit_identical(self, formula, normalization, table):
        config = CsiConfig(pair_formula=formula, normalization=normalization)
        self.assert_bit_identical(counts_from_mapping(table), config)

    @pytest.mark.parametrize("normalization", NORMALIZATIONS)
    @pytest.mark.parametrize("formula", PAIR_FORMULAS)
    def test_bit_identical_on_repeated_count_vectors(self, formula, normalization):
        """Cohort pairs share count vectors, each scored once per call; under
        per_action_max its values depend on the table's scale."""
        config = CsiConfig(pair_formula=formula, normalization=normalization)
        rng = random.Random(43)
        for _ in range(15):
            self.assert_bit_identical(detect(cohort_actions(rng)), config)

    def test_empty_table_is_undefined(self):
        with pytest.raises(UndefinedNetworkError):
            compute_tables(counts_from_mapping({}))


class TestConfigAndIo:
    def test_bad_formula_rejected(self):
        with pytest.raises(ValueError):
            CsiConfig(pair_formula="quadratic")

    def test_bad_normalization_rejected(self):
        with pytest.raises(ValueError):
            CsiConfig(normalization="softmax")

    def test_score_csv_round_trip(self, tmp_path):
        counts = counts_from_mapping(
            {("u", "v"): {"hashtag": 2, "url": 3}, ("a", "b"): {"mention": 1}}
        )
        tables = compute_tables(counts)
        pair_path = write_pair_scores_csv(tables, counts, tmp_path / "pairs.csv")
        user_path = write_user_scores_csv(tables, tmp_path / "users.csv")
        assert read_pair_scores_csv(pair_path) == tables.pair_scores
        assert read_user_scores_csv(user_path) == tables.user_scores

    def test_xml_forbidden_ids_rejected_with_line(self, tmp_path):
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("user_u,user_v,num_action_types,s_total,csi_userpair\na\x01b,c,1,1,1.0\n")
        with pytest.raises(ValueError, match=r"pairs.csv: line 2: user_u holds a character XML 1.0 forbids"):
            read_pair_scores_csv(pairs)
        users = tmp_path / "users.csv"
        users.write_text("user_id,csi_user\na,1.0\nb\x1f,1.0\n")
        with pytest.raises(ValueError, match=r"users.csv: line 3: user_id holds a character XML 1.0 forbids"):
            read_user_scores_csv(users)

    def test_nul_byte_in_id_rejected_with_line(self, tmp_path):
        # Python 3.10's csv module cannot read the row; later ones read it,
        # and the id then holds a character XML 1.0 forbids.
        path = tmp_path / "pairs.csv"
        path.write_text("user_u,user_v,num_action_types,s_total,csi_userpair\na\x00b,c,1,1,1.0\n")
        reason = "line contains NUL" if sys.version_info < (3, 11) else "user_u holds a character XML 1.0 forbids"
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 2: {reason}")):
            read_pair_scores_csv(path)

    @pytest.mark.parametrize(
        ("rows", "message"),
        [
            ("a,a,1,1,1.0\n", "line 2: self-pair 'a'"),
            ("a,b,1,1,1.0\nb,c,1,1,2.0\nb,a,1,1,5.0\n", "line 4: pair ('b', 'a') listed twice"),
            ("a,b,1,1,1.0\na,b,1,1,1.0\n", "line 3: pair ('a', 'b') listed twice"),
        ],
        ids=["self-pair", "reversed-repeat", "exact-repeat"],
    )
    def test_pair_scores_reject_self_and_repeated_pairs(self, tmp_path, rows, message):
        path = tmp_path / "pairs.csv"
        path.write_text("user_u,user_v,num_action_types,s_total,csi_userpair\n" + rows)
        with pytest.raises(ValueError, match=rf"pairs.csv: {re.escape(message)}"):
            read_pair_scores_csv(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_user_scores_reject_non_finite(self, tmp_path, value):
        path = tmp_path / "users.csv"
        path.write_text(f"user_id,csi_user\na,1.0\nb,{value}\n")
        with pytest.raises(ValueError, match="line 3"):
            read_user_scores_csv(path)

    def test_user_scores_reject_repeated_user(self, tmp_path):
        path = tmp_path / "users.csv"
        path.write_text("user_id,csi_user\na,1.0\nb,2.0\na,9.0\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 4: user 'a' listed twice")):
            read_user_scores_csv(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_pair_scores_reject_non_finite(self, tmp_path, value):
        path = tmp_path / "pairs.csv"
        path.write_text(
            "user_u,user_v,num_action_types,s_total,csi_userpair\n"
            f"a,b,1,1,{value}\nb,c,1,1,1.0\n"
        )
        with pytest.raises(ValueError, match="line 2"):
            read_pair_scores_csv(path)
