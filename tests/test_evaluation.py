"""Ranking metrics, PR curves, label splitting, the ablation, and report/score CSV I/O."""

import dataclasses
import itertools
import logging
import math
import multiprocessing
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clevercatch import evaluation, nn
from clevercatch.alignment import AlignmentConfig
from clevercatch.detector import DetectorConfig
from clevercatch.encoders import PretrainConfig
from clevercatch.errors import (
    ParseError,
    ShapeError,
    UndefinedMetricError,
    ValidationError,
)
from clevercatch.evaluation import (
    ABLATION_GROUPS,
    EvalResult,
    MetricsRow,
    PrCurve,
    R_AT_K_NOTE,
    ablation_run,
    ablation_subset,
    configs_for_groups,
    evaluate_scores,
    pr_auc,
    pr_curve,
    prf_at_threshold,
    read_scores_csv,
    recall_at_k,
    split_labels,
    write_pr_curve_csv,
    write_report_csv,
    write_scores_csv,
)
from clevercatch.features import build_feature_matrix
from clevercatch.ingest import LabelTable
from clevercatch.rules import Rule, RuleSet
from clevercatch.vocab import Vocabulary

import oracles
from conftest import random_claims, random_ruleset


def brute_force_pr_auc(labels, scores) -> float:
    """Per-positive counting definition, O(n^2).

    Each positive row contributes (# positives scoring >= it) / (# rows
    scoring >= it); the average over positives is taken with exact summation.
    """
    y = list(labels)
    s = list(scores)
    contributions = []
    for i, y_i in enumerate(y):
        if y_i != 1:
            continue
        at_or_above = [j for j in range(len(s)) if s[j] >= s[i]]
        pos_at_or_above = sum(1 for j in at_or_above if y[j] == 1)
        contributions.append(pos_at_or_above / len(at_or_above))
    return math.fsum(contributions) / sum(y)


def brute_force_recall_at_k(labels, scores, k: int) -> float:
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    hits = sum(1 for i in order[:k] if labels[i] == 1)
    return hits / sum(labels)


class TestPrAuc:
    def test_matches_brute_force_on_all_small_label_patterns(self):
        rng = np.random.default_rng(20260814)
        score_vectors = [rng.uniform(-1.0, 1.0, size=5) for _ in range(3)]
        # Include tied scores so block handling is exercised too.
        score_vectors.append(np.array([0.3, 0.7, 0.3, 0.1, 0.7]))
        checked = 0
        for labels in itertools.product((0, 1), repeat=5):
            if sum(labels) == 0:
                continue
            for scores in score_vectors:
                expected = brute_force_pr_auc(labels, scores)
                assert pr_auc(np.array(labels), scores) == expected
                checked += 1
        assert checked == 31 * 4

    def test_hand_example(self):
        # Descending order: 0.9(+), 0.8(-), 0.7(+) -> (1/1 + 2/3) / 2
        labels = [1, 0, 1, 0]
        scores = [0.9, 0.8, 0.7, 0.1]
        assert pr_auc(labels, scores) == (1.0 + 2.0 / 3.0) / 2.0

    def test_all_tied_scores_give_prevalence(self):
        labels = np.array([1, 0, 0, 1, 0, 0, 0, 1])
        scores = np.full(8, 0.25)
        assert pr_auc(labels, scores) == 3.0 / 8.0

    def test_perfect_and_inverted_rankings(self):
        labels = np.array([1, 1, 0, 0, 0])
        assert pr_auc(labels, [5.0, 4.0, 3.0, 2.0, 1.0]) == 1.0
        # Positives ranked last: (1/4 + 2/5) / 2
        assert pr_auc(labels, [1.0, 2.0, 3.0, 4.0, 5.0]) == (1.0 / 4.0 + 2.0 / 5.0) / 2.0

    def test_no_positives_is_undefined(self):
        with pytest.raises(UndefinedMetricError):
            pr_auc([0, 0, 0], [0.1, 0.2, 0.3])

    def test_input_validation(self):
        with pytest.raises(ShapeError):
            pr_auc([1, 0], [0.1, 0.2, 0.3])
        with pytest.raises(ValidationError):
            pr_auc([], [])
        with pytest.raises(ValidationError):
            pr_auc([1, 2], [0.1, 0.2])
        with pytest.raises(ValidationError):
            pr_auc([1, 0], [np.nan, 0.2])

    @settings(max_examples=60, deadline=None)
    @given(
        labels=st.lists(st.integers(0, 1), min_size=2, max_size=30).filter(
            lambda ls: sum(ls) > 0
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_brute_force_agreement_property(self, labels, seed):
        rng = np.random.default_rng(seed)
        # Low-resolution scores force frequent ties.
        scores = rng.integers(0, 4, size=len(labels)).astype(np.float64)
        assert pr_auc(np.array(labels), scores) == brute_force_pr_auc(labels, scores)


class TestRecallAtK:
    def test_hand_example(self):
        # Two positives, the top-2 rows contain exactly one of them.
        labels = [0, 1, 0, 1]
        scores = [0.9, 0.8, 0.1, 0.2]
        assert recall_at_k(labels, scores, 2) == 0.5
        assert recall_at_k(labels, scores, 4) == 1.0

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(3, 40))
            labels = rng.integers(0, 2, size=n)
            if labels.sum() == 0:
                labels[0] = 1
            scores = rng.integers(0, 5, size=n).astype(np.float64)
            k = int(rng.integers(1, n + 1))
            assert recall_at_k(labels, scores, k) == brute_force_recall_at_k(
                list(labels), list(scores), k
            )

    def test_ties_break_by_ascending_index(self):
        # Rows 0 and 1 tie; row 0 must be taken first.
        assert recall_at_k([1, 0, 0], [0.5, 0.5, 0.1], 1) == 1.0
        assert recall_at_k([0, 1, 0], [0.5, 0.5, 0.1], 1) == 0.0

    def test_k_out_of_range(self):
        for k in (0, -1, 4):
            with pytest.raises(ValidationError):
                recall_at_k([1, 0, 0], [0.3, 0.2, 0.1], k)

    def test_no_positives_is_undefined(self):
        with pytest.raises(UndefinedMetricError):
            recall_at_k([0, 0], [0.1, 0.2], 1)


class TestPrfAtThreshold:
    def test_hand_example(self):
        # 3 rows flagged above 0.5; 2 of them positive; 4 positives overall.
        labels = [1, 1, 0, 1, 1, 0]
        scores = [0.9, 0.8, 0.7, 0.4, 0.3, 0.2]
        out = prf_at_threshold(labels, scores, 0.5)
        assert out["precision"] == 2.0 / 3.0
        assert out["recall"] == 0.5
        assert out["f1"] == pytest.approx(4.0 / 7.0, abs=1e-15)

    def test_threshold_is_strict(self):
        out = prf_at_threshold([1, 0], [0.5, 0.4], 0.5)
        assert out == {"precision": 0.0, "recall": 0.0, "f1": 0.0}
        out = prf_at_threshold([1, 0], [np.nextafter(0.5, 1.0), 0.4], 0.5)
        assert out["recall"] == 1.0

    def test_zero_denominator_conventions(self):
        # Nothing flagged -> precision 0; no positives -> recall 0; f1 0.
        assert prf_at_threshold([1, 1], [0.1, 0.2], 0.9) == {
            "precision": 0.0,
            "recall": 0.0,
            "f1": 0.0,
        }
        out = prf_at_threshold([0, 0], [0.8, 0.9], 0.5)
        assert out == {"precision": 0.0, "recall": 0.0, "f1": 0.0}


class TestRankInvariance:
    def test_cubing_scores_changes_nothing(self):
        rng = np.random.default_rng(99)
        scores = rng.uniform(-2.0, 2.0, size=60)
        labels = rng.integers(0, 2, size=60)
        labels[0] = 1
        cubed = scores**3
        # The transform must not merge distinct values for this check.
        assert np.unique(cubed).size == np.unique(scores).size
        assert pr_auc(labels, cubed) == pr_auc(labels, scores)
        for k in (1, 10, 60):
            assert recall_at_k(labels, cubed, k) == recall_at_k(labels, scores, k)
        base, transformed = pr_curve(labels, scores), pr_curve(labels, cubed)
        np.testing.assert_array_equal(base.precisions, transformed.precisions)
        np.testing.assert_array_equal(base.recalls, transformed.recalls)
        np.testing.assert_array_equal(base.thresholds**3, transformed.thresholds)


class TestPrCurve:
    def test_one_point_per_distinct_score(self):
        labels = [1, 0, 1, 0, 1]
        scores = [0.9, 0.9, 0.5, 0.5, 0.1]
        curve = pr_curve(labels, scores)
        np.testing.assert_array_equal(curve.thresholds, [0.9, 0.5, 0.1])
        # Flagging >= threshold: blocks of size 2, 4, 5.
        np.testing.assert_array_equal(curve.precisions, [0.5, 0.5, 3.0 / 5.0])
        np.testing.assert_array_equal(curve.recalls, [1.0 / 3.0, 2.0 / 3.0, 1.0])

    def test_matches_prf_with_at_or_above_flagging(self):
        rng = np.random.default_rng(3)
        scores = rng.integers(0, 6, size=30).astype(np.float64)
        labels = rng.integers(0, 2, size=30)
        labels[:2] = 1
        curve = pr_curve(labels, scores)
        for t, p, r in zip(curve.thresholds, curve.precisions, curve.recalls):
            # prf flags strictly above, so step just below the threshold.
            out = prf_at_threshold(labels, scores, np.nextafter(t, -np.inf))
            assert p == out["precision"]
            assert r == out["recall"]

    def test_recall_ends_at_one_and_is_monotone(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            scores = rng.normal(size=25)
            labels = rng.integers(0, 2, size=25)
            labels[3] = 1
            curve = pr_curve(labels, scores)
            assert curve.recalls[-1] == 1.0
            assert np.all(np.diff(curve.recalls) >= 0)
            assert np.all(np.diff(curve.thresholds) < 0)

    def test_no_positives_is_undefined(self):
        with pytest.raises(UndefinedMetricError):
            pr_curve([0, 0], [0.1, 0.2])

    def test_curve_dataclass_validation(self):
        with pytest.raises(ShapeError):
            PrCurve(np.zeros(2), np.zeros(3), np.zeros(2))
        with pytest.raises(ValidationError):
            PrCurve(np.array([2.0, 1.0]), np.array([1.0, 1.0]), np.array([0.5, 0.4]))


class TestEvaluateScores:
    @pytest.mark.parametrize("value", [0, 1])
    def test_one_class_labels_are_undefined(self, value):
        # all-positive labels once scored pr_auc 1 and full recall whatever the scores
        with pytest.raises(UndefinedMetricError):
            evaluate_scores(np.full(6, value), np.linspace(0, 1, 6), ks=(5,))

    def test_bundles_individual_metrics(self):
        rng = np.random.default_rng(5)
        scores = rng.uniform(size=40)
        labels = rng.integers(0, 2, size=40)
        labels[0] = 1
        result = evaluate_scores(labels, scores, ks=(5, 10), threshold=0.4)
        assert result.pr_auc == pr_auc(labels, scores)
        assert result.r_at_k == {
            5: recall_at_k(labels, scores, 5),
            10: recall_at_k(labels, scores, 10),
        }
        prf = prf_at_threshold(labels, scores, 0.4)
        assert (result.precision, result.recall, result.f1) == (
            prf["precision"],
            prf["recall"],
            prf["f1"],
        )


def make_labels(n_pos: int, n_neg: int) -> LabelTable:
    idx = np.arange(n_pos + n_neg, dtype=np.int64)
    labels = np.array([1] * n_pos + [0] * n_neg, dtype=np.int64)
    return LabelTable(idx, labels)


class TestSplitLabels:
    def test_stratified_counts(self):
        table = make_labels(10, 30)
        train, eval_ = split_labels(table, 0.25, seed=0)
        # Per-class holdout count is round(fraction * class size) with
        # round-half-to-even: round(2.5) = 2, round(7.5) = 8.
        assert int(eval_.labels.sum()) == 2
        assert int((eval_.labels == 0).sum()) == 8
        assert int(train.labels.sum()) == 8
        assert int((train.labels == 0).sum()) == 22

    def test_disjoint_and_exhaustive(self):
        table = make_labels(6, 14)
        train, eval_ = split_labels(table, 0.5, seed=42)
        train_ids = set(int(i) for i in train.idx)
        eval_ids = set(int(i) for i in eval_.idx)
        assert train_ids.isdisjoint(eval_ids)
        assert train_ids | eval_ids == set(range(20))

    def test_each_side_keeps_both_classes(self):
        # An extreme fraction still leaves one of each class per side.
        table = make_labels(2, 2)
        train, eval_ = split_labels(table, 0.9, seed=1)
        for side in (train, eval_):
            assert set(int(v) for v in side.labels) == {0, 1}

    def test_deterministic_in_seed(self):
        table = make_labels(8, 12)
        a_train, a_eval = split_labels(table, 0.4, seed=7)
        b_train, b_eval = split_labels(table, 0.4, seed=7)
        np.testing.assert_array_equal(a_train.idx, b_train.idx)
        np.testing.assert_array_equal(a_eval.idx, b_eval.idx)
        c_train, _ = split_labels(table, 0.4, seed=8)
        assert not np.array_equal(a_train.idx, c_train.idx)

    def test_sides_keep_input_order(self):
        table = make_labels(9, 21)
        perm = nn.make_rng(3).permutation(30)
        shuffled = LabelTable(table.idx[perm], table.labels[perm])
        train, eval_ = split_labels(shuffled, 0.3, seed=5)
        for side in (train, eval_):
            chosen = set(int(i) for i in side.idx)
            np.testing.assert_array_equal(
                side.idx, [i for i in shuffled.idx if int(i) in chosen]
            )

    def test_validation(self):
        table = make_labels(5, 5)
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValidationError):
                split_labels(table, bad, seed=0)
        with pytest.raises(ValidationError):
            split_labels(make_labels(1, 9), 0.5, seed=0)


class TestConfigsForGroups:
    def test_default_groups_cover_the_standard_set(self):
        assert configs_for_groups(tuple(ABLATION_GROUPS)) == (
            "full", "minus-cost", "minus-opioid", "lambda0"
        )

    def test_single_group(self):
        assert configs_for_groups(("opioid",)) == ("full", "minus-opioid", "lambda0")
        assert configs_for_groups(()) == ("full", "lambda0")

    def test_unknown_or_duplicate_groups_rejected(self):
        with pytest.raises(ValidationError):
            configs_for_groups(("bogus",))
        with pytest.raises(ValidationError):
            configs_for_groups(("opioid", "opioid"))


class TestAblationSubset:
    def test_sliced_blocks_equal_rebuilt_features(self):
        # Mixed binary/unary rule sets: every configuration's slice of the
        # full matrix must equal a rebuild from its own rule subset, bitwise.
        for seed in range(4):
            rng = nn.make_rng(seed)
            claims = random_claims(rng, 10, 5, 3)
            ruleset = random_ruleset(rng, claims.drugs, 7)
            assert {rule.kind for rule in ruleset.rules} == {"binary", "unary"}
            full = build_feature_matrix(claims, ruleset).values
            for name in configs_for_groups(tuple(ABLATION_GROUPS)):
                sub_rules, sub_values = ablation_subset(name, ruleset, full)
                rebuilt = build_feature_matrix(claims, sub_rules).values
                assert sub_values.shape == rebuilt.shape
                assert sub_values.tobytes() == rebuilt.tobytes(), (seed, name)

    def test_unary_only_subset(self, toy_ruleset):
        features = np.arange(3 * 30, dtype=np.float64).reshape(3, 30)
        sub_rules, sub_values = ablation_subset("minus-cost", toy_ruleset, features)
        assert sub_rules.rules == (Rule("unary", "DrugC", None, 0.6),)
        assert sub_rules.vocab is toy_ruleset.vocab
        assert sub_values.tobytes() == features[:, 15:].tobytes()

    def test_dropped_kind_and_empty_subset(self):
        vocab = Vocabulary(["A", "B", "C"])
        ruleset = RuleSet([Rule("unary", "A", None, 0.5), Rule("unary", "C", None, 0.9)], vocab)
        features = np.arange(2 * 30, dtype=np.float64).reshape(2, 30)
        sub_rules, sub_values = ablation_subset("minus-cost", ruleset, features)
        assert sub_rules is ruleset and sub_values is features
        assert ablation_subset("minus-opioid", ruleset, features) is None


class TestAblationRun:
    PRETRAIN = PretrainConfig(
        latent_dim=4, index_dim=4, re_hidden=(8,), se_hidden=(8,),
        epochs=2, batch_size=32, triplet_count=60,
    )
    DETECTOR = DetectorConfig(hidden=(8,), epochs=2, batch_size=16)

    @pytest.mark.parametrize(
        "eval_fraction, groups, kinds",
        [
            (0.0, (), "mixed"),
            (0.5, ("opioid",), "mixed"),
            (0.5, ("cost_preference", "opioid"), "mixed"),
            # no unary rule: minus-cost leaves no rules and is skipped with a note
            (0.0, ("cost_preference", "opioid"), "binary"),
        ],
        ids=["no-groups", "opioid-split", "both-split", "binary-only-skip"],
    )
    def test_pooled_run_equals_the_serial_loop_bitwise(self, eval_fraction, groups, kinds):
        rng = nn.make_rng(5)
        claims = random_claims(rng, 30, 5, 2)
        if kinds == "mixed":
            ruleset = random_ruleset(rng, claims.drugs, 5)
            assert {rule.kind for rule in ruleset.rules} == {"binary", "unary"}
        else:
            ruleset = RuleSet(
                [Rule("binary", "D0", "D1", 0.7), Rule("binary", "D2", "D3", 0.4)], claims.drugs
            )
        labels = LabelTable(np.arange(30, dtype=np.int64), (np.arange(30) % 4 == 0).astype(np.int64))
        kwargs = dict(
            pretrain_cfg=self.PRETRAIN, detector_cfg=self.DETECTOR, seeds=(2, 9), ks=(3, 5),
            eval_fraction=eval_fraction, groups=groups,
        )
        pooled = ablation_run(claims, labels, ruleset, **kwargs)
        serial = oracles.ablation_run(claims, labels, ruleset, **kwargs)
        assert [(row.config, row.seed) for row in pooled.rows] == [
            (name, seed) for seed in (2, 9) for name in configs_for_groups(groups)
            if (name, kinds) != ("minus-cost", "binary")
        ]
        assert bool(pooled.notes) == (kinds == "binary")
        assert pooled == serial
        assert repr(pooled) == repr(serial)  # repr keeps every float bit, and -0.0

    def failing_setup(self):
        """Claims, labels, rules and ablation settings under which both full pretrainings fail."""
        rng = nn.make_rng(5)
        claims = random_claims(rng, 30, 5, 2)
        ruleset = random_ruleset(rng, claims.drugs, 5)
        kinds = [rule.kind for rule in ruleset.rules]
        # enough triplets for either group alone, too few for the full rule set
        pretrain_cfg = dataclasses.replace(
            self.PRETRAIN, triplet_count=max(kinds.count("binary"), kinds.count("unary"))
        )
        labels = LabelTable(np.arange(30, dtype=np.int64), (np.arange(30) % 4 == 0).astype(np.int64))
        kwargs = dict(pretrain_cfg=pretrain_cfg, detector_cfg=self.DETECTOR, seeds=(2, 9), ks=(3, 5))
        return claims, labels, ruleset, kwargs

    FAILURE = (ValidationError, "need at least 5 triplets to cover 5 rules, got 3")

    @pytest.mark.parametrize("label", [1, 0])
    def test_one_class_labels_fail_before_features_or_workers(self, monkeypatch, label):
        # with eval_fraction 0 these once trained every configuration before evaluate_scores raised
        def refuse(*args, **kwargs):
            raise AssertionError("ablation_run went past one-class labels")

        monkeypatch.setattr(evaluation, "ProcessPoolExecutor", refuse)
        monkeypatch.setattr(evaluation, "build_feature_matrix", refuse)
        claims, _, ruleset, kwargs = self.failing_setup()
        labels = LabelTable(np.arange(30, dtype=np.int64), np.full(30, label, dtype=np.int64))
        with pytest.raises(UndefinedMetricError, match="need a positive and a negative evaluated label"):
            ablation_run(claims, labels, ruleset, **kwargs)

    def test_a_failing_pretraining_raises_the_serial_loops_error(self):
        claims, labels, ruleset, kwargs = self.failing_setup()
        errors = []
        for run in (ablation_run, oracles.ablation_run):
            with pytest.raises(Exception) as info:
                run(claims, labels, ruleset, **kwargs)
            errors.append((type(info.value), str(info.value)))
        assert errors[0] == errors[1] == self.FAILURE
        assert multiprocessing.active_children() == []  # no worker outlives the call

    def test_no_job_after_a_failed_one_starts(self, monkeypatch):
        started, futures = [], []
        n_jobs = 8  # two seeds, four configurations each

        class InProcessPool(ThreadPoolExecutor):
            """One worker thread running tasks in submission order; each task after
            job 0 waits until the last job is cancelled, or 30 s have passed."""

            def __init__(self, max_workers, mp_context=None):
                super().__init__(1)

            def submit(self, fn, /, *args, **kwargs):
                def task(i=len(futures)):
                    started.append(i)
                    deadline = time.monotonic() + 30.0
                    while i > 0 and time.monotonic() < deadline and not (
                        len(futures) == n_jobs and futures[-1].cancelled()
                    ):
                        time.sleep(0.01)
                    return fn(*args, **kwargs)

                futures.append(super().submit(task))
                return futures[-1]

        monkeypatch.setattr(evaluation, "ProcessPoolExecutor", InProcessPool)
        claims, labels, ruleset, kwargs = self.failing_setup()
        with pytest.raises(Exception) as info:
            ablation_run(claims, labels, ruleset, **kwargs)
        assert (type(info.value), str(info.value)) == self.FAILURE
        # job 0 (full, seed 2) fails; job 1 may have started before the cancellation
        assert len(futures) == n_jobs
        assert started in ([0], [0, 1])
        assert all(future.cancelled() for future in futures[2:])

    @pytest.mark.parametrize("max_iters", [1, 5])
    def test_worker_log_records_reach_the_caller_in_job_order(self, caplog, max_iters):
        rng = nn.make_rng(5)
        claims = random_claims(rng, 30, 5, 2)
        ruleset = random_ruleset(rng, claims.drugs, 5)
        labels = LabelTable(np.arange(30, dtype=np.int64), (np.arange(30) % 4 == 0).astype(np.int64))
        kwargs = dict(
            pretrain_cfg=self.PRETRAIN, detector_cfg=self.DETECTOR, seeds=(2, 9), ks=(3, 5),
            align_cfg=AlignmentConfig(max_iters=max_iters),
        )
        messages = []
        for run in (ablation_run, oracles.ablation_run):
            caplog.clear()
            with caplog.at_level(logging.WARNING):
                run(claims, labels, ruleset, **kwargs)
            assert {r.name for r in caplog.records} == {"clevercatch.alignment"}
            messages.append([r.getMessage() for r in caplog.records])
        # one warning per job but lambda0, which aligns nothing: 3 jobs for each of 2 seeds
        assert messages[0] == messages[1]
        assert len(messages[0]) == 6
        assert all(m.startswith("hybrid_train: ") for m in messages[0])
        if max_iters == 1:
            assert set(messages[0]) == {
                "hybrid_train: 4 of 4 transport plans stopped at max_iters=1 before converging"
            }
        else:  # the jobs' counts differ, so the order of the records shows
            assert len(set(messages[0])) > 1


def result_fixture() -> EvalResult:
    # Dyadic values so the float formatting in the file is the short form.
    return EvalResult(
        pr_auc=0.5, r_at_k={10: 0.25, 20: 0.75}, precision=0.625, recall=0.375, f1=0.46875
    )


class TestReportCsv:
    def test_layout_and_delta_comments(self, tmp_path):
        path = tmp_path / "report.csv"
        full = result_fixture()
        minus = dataclasses.replace(full, pr_auc=0.375, r_at_k={10: 0.25, 20: 0.25})
        rows = [MetricsRow("full", 3, full), MetricsRow("minus-cost", 3, minus),
                MetricsRow("minus-cost", 4, minus)]  # seed 4 has no full row, so no delta
        write_report_csv(path, rows, ks=(10, 20))
        lines = path.read_text().splitlines()
        assert lines[0] == R_AT_K_NOTE
        assert lines[1] == "config,seed,pr_auc,r@10,r@20,precision,recall,f1"
        assert lines[2] == "full,3,0.5,0.25,0.75,0.625,0.375,0.46875"
        assert lines[3] == "minus-cost,3,0.375,0.25,0.25,0.625,0.375,0.46875"
        assert lines[4] == "minus-cost,4,0.375,0.25,0.25,0.625,0.375,0.46875"
        assert lines[5] == "# delta vs full: config=minus-cost seed=3 pr_auc=0.125 r@10=0 r@20=0.5"
        assert len(lines) == 6

    def test_values_round_trip_losslessly(self, tmp_path):
        rng = np.random.default_rng(2)
        result = EvalResult(
            pr_auc=float(rng.uniform()),
            r_at_k={10: float(rng.uniform())},
            precision=float(rng.uniform()),
            recall=float(rng.uniform()),
            f1=float(rng.uniform()),
        )
        path = tmp_path / "report.csv"
        write_report_csv(path, [MetricsRow("full", 0, result)], ks=(10,))
        cells = path.read_text().splitlines()[2].split(",")
        assert float(cells[2]) == result.pr_auc
        assert float(cells[3]) == result.r_at_k[10]
        assert float(cells[6]) == result.f1


class TestScoresCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "scores.csv"
        npis = ["NPI0", "NPI1", "NPI2"]
        scores = np.array([0.25, -1.5, 1.0 / 3.0])
        write_scores_csv(path, npis, scores, np.array([2, 3, 1]))
        got_npis, got_scores = read_scores_csv(path)
        assert got_npis == npis
        np.testing.assert_array_equal(got_scores, scores)

    def test_rank_column_is_optional_and_ignored(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("npi,score\nA,0.5\nB,0.25\n")
        npis, scores = read_scores_csv(path)
        assert npis == ["A", "B"]
        np.testing.assert_array_equal(scores, [0.5, 0.25])

    def test_malformed_files(self, tmp_path):
        cases = {
            "bad_header.csv": "prescriber,score\nA,0.5\n",
            "dup.csv": "npi,score\nA,0.5\nA,0.6\n",
            "not_number.csv": "npi,score\nA,abc\n",
            "not_finite.csv": "npi,score\nA,inf\n",
            "short_row.csv": "npi,score,rank\nA,0.5\n",
            "empty.csv": "npi,score\n",
        }
        for name, text in cases.items():
            path = tmp_path / name
            path.write_text(text)
            with pytest.raises(ParseError):
                read_scores_csv(path)


class TestPrCurveCsv:
    def test_layout(self, tmp_path):
        curve = pr_curve([1, 0, 1], [0.9, 0.5, 0.1])
        path = tmp_path / "pr_curve.csv"
        write_pr_curve_csv(path, curve)
        lines = path.read_text().splitlines()
        assert lines[0] == "threshold,precision,recall"
        assert len(lines) == 1 + curve.thresholds.size
        first = lines[1].split(",")
        assert float(first[0]) == curve.thresholds[0]
        assert float(first[1]) == curve.precisions[0]
        assert float(first[2]) == curve.recalls[0]
