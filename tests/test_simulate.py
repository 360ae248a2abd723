from __future__ import annotations

import dataclasses
import json
import math
import random
import re
import statistics
from pathlib import Path

import pytest

from conftest import count_of
from syncindex.csi import compute_tables
from syncindex.events import (
    MAX_TIMESTAMP,
    dataset_lines,
    extract_actions,
    filter_originals,
    read_events_file,
    write_events_jsonl,
)
from syncindex.simulate import (
    CohortSpec,
    GroundTruth,
    SimConfig,
    SimConfigError,
    bot_scores_from_truth,
    config_from_json,
    _poisson,
    generate,
    write_ground_truth_csv,
)
from syncindex.synchrony import detect


def small_config(seed=7, **overrides):
    settings = dict(
        seed=seed,
        duration_seconds=2 * 3600,
        window_seconds=300,
        background_users=20,
        background_rate_per_hour=2.0,
        cohorts=(CohortSpec(member_count=4, user_class="bot", windows_active=3),),
    )
    settings.update(overrides)
    return SimConfig(**settings)


class TestConfig:
    def test_zero_users_rejected(self):
        with pytest.raises(SimConfigError):
            SimConfig(background_users=0, cohorts=())

    def test_zero_duration_rejected(self):
        with pytest.raises(SimConfigError):
            SimConfig(duration_seconds=0, background_users=5)

    def test_too_many_windows_rejected(self):
        with pytest.raises(SimConfigError):
            SimConfig(
                duration_seconds=600,
                window_seconds=300,
                cohorts=(CohortSpec(member_count=2, windows_active=5),),
            )

    def test_cohort_needs_two_members(self):
        with pytest.raises(SimConfigError):
            CohortSpec(member_count=1)

    def test_unknown_action_type_rejected(self):
        with pytest.raises(SimConfigError):
            CohortSpec(member_count=2, action_types=("emoji",))

    @pytest.mark.parametrize("rate", [math.nan, math.inf, -1.0])
    def test_background_rate_must_be_finite_and_non_negative(self, rate):
        with pytest.raises(SimConfigError, match="finite and non-negative"):
            SimConfig(background_users=5, background_rate_per_hour=rate)

    def test_background_rate_bounded_by_expected_posts(self):
        with pytest.raises(SimConfigError, match="must be <= 10000 expected posts per user, not 1000000000.0"):
            SimConfig(background_users=1, background_rate_per_hour=1e9, duration_seconds=3600)
        at_bound = SimConfig(background_users=1, background_rate_per_hour=1e4, duration_seconds=3600)
        assert at_bound.background_rate_per_hour == 1e4
        # Without background users the rate is never drawn.
        cohorts = (CohortSpec(member_count=2),)
        assert SimConfig(background_users=0, background_rate_per_hour=1e9, cohorts=cohorts).cohorts == cohorts

    @pytest.mark.parametrize("size", [0, -3])
    def test_vocabulary_size_below_one_rejected(self, size):
        with pytest.raises(SimConfigError, match=r"vocabulary_sizes\['url'\] must be >= 1"):
            SimConfig(background_users=5, vocabulary_sizes={"hashtag": 5, "url": size})

    def test_duration_past_the_last_timestamp_rejected(self, tmp_path):
        cohorts = (CohortSpec(member_count=3, windows_active=2),)
        with pytest.raises(SimConfigError, match=f"duration_seconds must be <= {MAX_TIMESTAMP + 1}"):
            SimConfig(duration_seconds=MAX_TIMESTAMP + 2, background_users=2, cohorts=cohorts)
        # At the bound every post's timestamp is one a report reads.
        config = SimConfig(
            duration_seconds=MAX_TIMESTAMP + 1, background_users=2, background_rate_per_hour=1e-7, cohorts=cohorts
        )
        dataset, _ = generate(config)
        path = write_events_jsonl(dataset, tmp_path / "events.jsonl")
        assert max(post.timestamp for post in dataset.posts) <= MAX_TIMESTAMP
        assert read_events_file(path) == dataset

    def test_readme_lists_the_config_defaults(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        listed = {key: json.loads(text) for key, text in re.findall(r"^\| `(\w+)` \| `([^`]*)` \|", readme, re.M)}
        defaults = {
            f.name: f.default if f.default_factory is dataclasses.MISSING else f.default_factory()
            for f in dataclasses.fields(SimConfig)
        }
        assert listed == {key: list(value) if isinstance(value, tuple) else value for key, value in defaults.items()}

    @pytest.mark.parametrize(
        "artifacts, action_types",
        [(["#"], ["hashtag"]), (["a\u0001b"], ["hashtag"]), (["ok", "@"], ["hashtag", "mention"]), ([" "], ["url"])],
        ids=["marker-only", "xml-forbidden", "empty-for-one-type", "whitespace-url"],
    )
    def test_artifact_the_pipeline_rejects_is_config_error(self, tmp_path, artifacts, action_types):
        """Else the ground truth would plant pairs that report can never find."""
        path = tmp_path / "sim.json"
        cohort = {"member_count": 3, "action_types": action_types, "artifacts": artifacts}
        path.write_text(json.dumps({"cohorts": [cohort]}))
        with pytest.raises(SimConfigError, match=re.escape(f"{path}: artifact ")):
            config_from_json(path)

    def test_missing_config_keys_take_the_dataclass_defaults(self, tmp_path):
        path = tmp_path / "sim.json"
        path.write_text(json.dumps({"cohorts": [{"member_count": 2}]}))
        assert config_from_json(path) == SimConfig(cohorts=(CohortSpec(member_count=2),))


class TestGenerate:
    def test_same_seed_identical_output(self):
        first_data, first_truth = generate(small_config())
        second_data, second_truth = generate(small_config())
        assert first_data == second_data
        assert first_truth == second_truth
        assert list(dataset_lines(first_data)) == list(dataset_lines(second_data))

    def test_different_seed_differs(self):
        a, _ = generate(small_config(seed=1))
        b, _ = generate(small_config(seed=2))
        assert a != b

    def test_zero_cohorts_empty_truth(self):
        _, truth = generate(small_config(cohorts=()))
        assert truth.pairs == ()

    def test_planted_pair_count(self):
        _, truth = generate(small_config())
        assert len(truth.pairs) == 6  # C(4,2) pairs, one action type

    def test_posts_are_original_english(self):
        dataset, _ = generate(small_config())
        assert all(p.post_type == "original" for p in dataset.posts)
        assert all(p.lang == "en" for p in dataset.posts)

    def test_detect_recovers_planted_pairs(self):
        config = small_config()
        dataset, truth = generate(config)
        actions = extract_actions(filter_originals(dataset))
        counts = detect(actions, config.window_seconds)
        for planted in truth.pairs:
            observed = count_of(counts, planted.user_u, planted.user_v, planted.action_type)
            assert observed >= planted.min_count

    def test_posts_per_window_weakly_increases_network_score(self):
        def network(posts_per_window):
            config = small_config(
                cohorts=(
                    CohortSpec(
                        member_count=4,
                        windows_active=3,
                        posts_per_window=posts_per_window,
                    ),
                )
            )
            dataset, _ = generate(config)
            counts = detect(extract_actions(filter_originals(dataset)))
            return compute_tables(counts).network_score

        assert network(3) >= network(1)

    def test_more_windows_strictly_increases_network_score(self):
        def network(windows):
            config = small_config(
                background_users=0,
                cohorts=(CohortSpec(member_count=4, windows_active=windows),),
            )
            dataset, _ = generate(config)
            counts = detect(extract_actions(filter_originals(dataset)))
            return compute_tables(counts).network_score

        assert network(6) > network(2)

    def test_multi_action_cohort(self):
        config = small_config(
            cohorts=(
                CohortSpec(member_count=3, action_types=("hashtag", "url"), windows_active=2),
            )
        )
        dataset, truth = generate(config)
        assert len(truth.pairs) == 6  # 3 pairs x 2 action types
        counts = detect(extract_actions(filter_originals(dataset)))
        assert len(counts[("c0_u000", "c0_u001")]) >= 2

    def test_cohort_artifacts_cycle_over_its_windows(self):
        config = small_config(
            background_users=0, cohorts=(CohortSpec(member_count=3, artifacts=("#a", "#b"), windows_active=3),)
        )
        dataset, truth = generate(config)
        by_bucket = {}
        for post in dataset.posts:
            by_bucket.setdefault(post.timestamp // config.window_seconds, set()).update(post.hashtags)
        assert [by_bucket[bucket] for bucket in sorted(by_bucket)] == [{"#a"}, {"#b"}, {"#a"}]
        counts = detect(extract_actions(filter_originals(dataset)), config.window_seconds)
        assert len(truth.pairs) == 3
        for planted in truth.pairs:
            assert count_of(counts, planted.user_u, planted.user_v, planted.action_type) == 3

    def test_background_rate_zero_posts_only_the_cohort(self):
        dataset, truth = generate(small_config(background_rate_per_hour=0.0))
        assert sum(cls == "human" for cls in truth.user_classes.values()) == 20
        assert {post.user_id for post in dataset.posts} == {f"c0_u{j:03d}" for j in range(4)}
        assert len(dataset.posts) == 4 * 3
        rng = random.Random(5)
        state = rng.getstate()
        assert _poisson(rng, 0.0) == 0
        assert rng.getstate() == state

    def test_posts_share_one_set_per_artifact(self):
        dataset, _ = generate(small_config(vocabulary_sizes={"hashtag": 3, "url": 3, "mention": 3}))
        sets = [artifacts for post in dataset.posts for artifacts in (post.hashtags, post.urls, post.mentions)]
        assert len({id(artifacts) for artifacts in sets if not artifacts}) == 1
        distinct = {artifact for artifacts in sets for artifact in artifacts}
        # the cohort's artifact and all 3 of each type's vocabulary
        assert len({id(artifacts) for artifacts in sets if artifacts}) == len(distinct) == 1 + 9

    def test_planted_pairs_ordered_past_999_members(self):
        """c0_u1000 sorts between c0_u100 and c0_u101, as every pair table sorts it."""
        config = small_config(background_users=0, cohorts=(CohortSpec(member_count=1_001),))
        _, truth = generate(config)
        assert len(truth.pairs) == 1_001 * 1_000 // 2
        assert all(pair.user_u < pair.user_v for pair in truth.pairs)


class TestOutputs:
    def test_bot_scores_cover_every_user(self):
        dataset, truth = generate(small_config())
        scores = bot_scores_from_truth(truth)
        users = {p.user_id for p in dataset.posts}
        assert users <= set(scores)
        assert all(scores[u] > 0.70 for u, c in truth.user_classes.items() if c == "bot")

    def test_ground_truth_csv(self, tmp_path):
        # url before hashtag, so the pairs are not generated in row order
        cohorts = (CohortSpec(member_count=4, action_types=("url", "hashtag"), windows_active=3),)
        _, truth = generate(small_config(cohorts=cohorts))
        path = write_ground_truth_csv(truth, tmp_path / "gt.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "user_u,user_v,action_type,min_count"
        rows = sorted((p.user_u, p.user_v, p.action_type, p.min_count) for p in truth.pairs)
        assert lines[1:] == [f"{u},{v},{action},{count}" for u, v, action, count in rows]

    def test_config_json_loading(self, tmp_path):
        payload = {
            "seed": 3,
            "duration_seconds": 7200,
            "background_users": 5,
            "cohorts": [
                {"member_count": 3, "user_class": "human", "windows_active": 2}
            ],
        }
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(payload))
        config = config_from_json(path)
        assert config.seed == 3
        assert config.cohorts[0].user_class == "human"
        dataset, truth = generate(config)
        assert len(truth.pairs) == 3

    @pytest.mark.parametrize(
        "payload",
        [
            [{"member_count": 3}],
            {"background_users": 5, "cohorts": [{"windows_active": 2}]},
            {"background_users": 5, "cohorts": [{"member_count": None}]},
        ],
        ids=["top-level-list", "cohort-without-member-count", "null-member-count"],
    )
    def test_malformed_config_is_config_error(self, tmp_path, payload):
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(SimConfigError, match="sim.json: not a simulation config"):
            config_from_json(path)

    def test_ground_truth_is_frozen_mapping(self):
        truth = GroundTruth(pairs=(), user_classes={"a": "bot"})
        assert truth.user_classes["a"] == "bot"


@pytest.mark.parametrize("lam", [800, 2_000, 9_000])
def test_poisson_mean_and_variance_above_the_underflow(lam):
    # exp(-lam) is 0.0 from about 745 on; a plain Knuth draw then stops near 745
    rng = random.Random(lam)
    draws = [_poisson(rng, lam) for _ in range(200)]
    assert abs(statistics.fmean(draws) - lam) < 4 * math.sqrt(lam / len(draws))
    assert abs(statistics.variance(draws) / lam - 1) < 0.3


def test_poisson_up_to_500_is_one_knuth_draw():
    # the random numbers a seeded simulation consumed before sums of parts
    def knuth(rng, lam):
        limit, count, product = math.exp(-lam), 0, rng.random()
        while product > limit:
            count += 1
            product *= rng.random()
        return count

    for lam in (0.5, 8.0, 120.0, 500.0):
        ours, theirs = random.Random(7), random.Random(7)
        assert [_poisson(ours, lam) for _ in range(50)] == [knuth(theirs, lam) for _ in range(50)]
        assert ours.random() == theirs.random()
