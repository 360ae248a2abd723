from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import counts_from_mapping, random_actions
from syncindex.events import ActionRecord
from syncindex.synchrony import (
    PairSyncCounts,
    SyncWindowConfig,
    action_type_participation,
    brute_force_detect,
    detect,
    pair_key,
    read_pair_counts_csv,
    user_action_type_counts,
    write_pair_counts_csv,
)


def rec(user, t, action="hashtag", artifact="x"):
    return ActionRecord(user_id=user, timestamp=t, action_type=action, artifact_id=artifact)


class TestConfig:
    def test_bucketing(self):
        config = SyncWindowConfig()
        assert config.bucket(0) == 0
        assert config.bucket(299) == 0
        assert config.bucket(300) == 1

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            SyncWindowConfig(window_seconds=0)


class TestDetect:
    def test_same_bucket_pairs(self):
        counts = detect([rec("u", 100), rec("v", 250)])
        assert counts.get("u", "v", "hashtag") == 1

    def test_bucket_boundary_no_pair(self):
        counts = detect([rec("u", 299), rec("v", 301)])
        assert not counts

    def test_no_self_synchrony(self):
        counts = detect([rec("u", t) for t in (0, 50, 100, 150, 200)])
        assert not counts

    def test_three_users_make_three_pairs(self):
        counts = detect([rec("u", 10), rec("v", 20), rec("w", 30)])
        assert len(counts) == 3
        for _, actions in counts.items():
            assert actions == {"hashtag": 1}

    def test_repeat_user_counts_once_per_group(self):
        counts = detect([rec("u", 10), rec("u", 20), rec("v", 30)])
        assert counts.get("u", "v", "hashtag") == 1

    def test_action_types_independent(self):
        counts = detect([rec("u", 10), rec("v", 20), rec("u", 30, action="url"), rec("v", 40, action="url")])
        assert counts.items() == [(pair_key("u", "v"), {"hashtag": 1, "url": 1})]

    def test_empty_input(self):
        assert not detect([])

    def test_permutation_invariance(self):
        rng = random.Random(3)
        actions = random_actions(rng, max_users=10, max_records=80)
        base = detect(actions)
        for _ in range(5):
            shuffled = actions[:]
            rng.shuffle(shuffled)
            assert detect(shuffled) == base

    def test_group_pair_count_is_k_choose_2(self):
        k = 7
        counts = detect([rec(f"u{i}", 10 * i) for i in range(k)])
        assert len(counts) == k * (k - 1) // 2

    def test_monotone_under_append(self):
        rng = random.Random(5)
        actions = random_actions(rng, max_users=12, max_records=60)
        before = detect(actions)
        anchor = rng.choice(actions)
        extra = ActionRecord("zz_new", anchor.timestamp, anchor.action_type, anchor.artifact_id)
        after = detect(actions + [extra])
        for pair, actions in before.items():
            for action, count in actions.items():
                assert after.get(pair[0], pair[1], action) >= count


class TestBruteForce:
    def test_matches_detect_on_random_instances(self):
        rng = random.Random(23)
        for _ in range(25):
            actions = random_actions(rng, max_users=15, max_records=120)
            assert brute_force_detect(actions) == detect(actions)

    def test_three_user_enumeration(self):
        counts = brute_force_detect([rec("a", 0), rec("b", 10), rec("c", 20)])
        assert len(counts) == 3

    def test_empty(self):
        assert not brute_force_detect([])

    def test_size_limit(self):
        actions = [rec("u", 0)] * 10_001
        with pytest.raises(ValueError):
            brute_force_detect(actions)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_oracle_equality_property(self, data):
        entries = data.draw(
            st.lists(
                st.tuples(
                    st.integers(0, 7),        # user
                    st.integers(0, 1200),     # timestamp
                    st.sampled_from(["hashtag", "url", "mention"]),
                    st.integers(0, 4),        # artifact
                ),
                max_size=60,
            )
        )
        actions = [rec(f"u{u}", t, action, f"a{a}") for u, t, action, a in entries]
        assert detect(actions) == brute_force_detect(actions)


class TestParticipation:
    def test_mixed_levels(self):
        counts = counts_from_mapping(
            {("u", "v"): {"hashtag": 1, "url": 1}, ("u", "w"): {"hashtag": 1}}
        )
        dist = action_type_participation(counts)
        assert dist == {1: pytest.approx(1 / 3), 2: pytest.approx(2 / 3), 3: 0.0}

    def test_single_pair_single_action(self):
        counts = counts_from_mapping({("u", "v"): {"url": 2}})
        assert action_type_participation(counts) == {1: 1.0, 2: 0.0, 3: 0.0}

    def test_all_three_actions(self):
        counts = counts_from_mapping({("u", "v"): {"hashtag": 1, "url": 1, "mention": 1}})
        assert action_type_participation(counts) == {1: 0.0, 2: 0.0, 3: 1.0}

    def test_empty(self):
        assert action_type_participation(PairSyncCounts()) == {}

    def test_fractions_sum_to_one(self):
        rng = random.Random(2)
        counts = detect(random_actions(rng, max_users=25, max_records=300))
        dist = action_type_participation(counts)
        if dist:
            assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)

    def test_user_action_type_counts(self):
        counts = counts_from_mapping(
            {("u", "v"): {"hashtag": 1, "url": 1}, ("u", "w"): {"mention": 2}}
        )
        assert user_action_type_counts(counts) == {"u": 3, "v": 2, "w": 1}


class TestCsv:
    def test_round_trip(self, tmp_path):
        rng = random.Random(8)
        counts = detect(random_actions(rng, max_users=10, max_records=100))
        path = write_pair_counts_csv(counts, tmp_path / "pair_counts.csv")
        assert read_pair_counts_csv(path) == counts

    def test_rows_sorted(self, tmp_path):
        counts = counts_from_mapping({("b", "c"): {"url": 1}, ("a", "z"): {"hashtag": 2}})
        path = write_pair_counts_csv(counts, tmp_path / "pair_counts.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "user_u,user_v,action_type,count"
        assert lines[1].startswith("a,z")

    @pytest.mark.parametrize("user", ["a\x01b", "a\x0bb", "a\ufffeb"])
    def test_xml_forbidden_id_rejected_with_line(self, tmp_path, user):
        path = tmp_path / "pair_counts.csv"
        path.write_text(f"user_u,user_v,action_type,count\nc,d,url,1\nc,{user},hashtag,2\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"pair_counts.csv: line 3: user_v holds a character XML 1.0 forbids"):
            read_pair_counts_csv(path)

    @pytest.mark.parametrize(
        ("row", "message"),
        [
            ("c,d,Hashtag,2", "unknown action_type 'Hashtag'"),
            ("c,d,bogus,3", "unknown action_type 'bogus'"),
            ("c,d,url,0", "count '0' is not an integer in 1..2**53"),
            ("c,d,url,-1", "count '-1' is not an integer in 1..2**53"),
            ("c,d,url,2.5", "count '2.5' is not an integer in 1..2**53"),
            ("c,d,url,", "count '' is not an integer in 1..2**53"),
            (f"c,d,url,{2**53 + 1}", f"count '{2**53 + 1}' is not an integer in 1..2**53"),
            ("c,c,url,1", "self-pair 'c'"),
        ],
    )
    def test_bad_row_rejected_with_line(self, tmp_path, row, message):
        path = tmp_path / "pair_counts.csv"
        path.write_text(f"user_u,user_v,action_type,count\na,b,hashtag,1\n{row}\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            read_pair_counts_csv(path)
        assert str(err.value) == f"{path}: line 3: {message}"

    def test_largest_count_is_read(self, tmp_path):
        path = tmp_path / "pair_counts.csv"
        path.write_text(f"user_u,user_v,action_type,count\na,b,url,{2**53}\n", encoding="utf-8")
        assert read_pair_counts_csv(path).get("a", "b", "url") == 2**53


class TestPairKey:
    def test_orders_lexicographically(self):
        assert pair_key("zeta", "alpha") == ("alpha", "zeta")

    def test_rejects_self_pair(self):
        with pytest.raises(ValueError):
            pair_key("u", "u")
