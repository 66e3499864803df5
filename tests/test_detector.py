"""Detector losses, hybrid training, scoring, and model persistence."""

import functools
import json
import logging

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from clevercatch import alignment, nn
from clevercatch.alignment import AlignmentConfig
from clevercatch.detector import (
    DetectorConfig,
    DetectorModel,
    bce_with_grad,
    hybrid_train,
    init_detector,
    load_detector,
    pseudo_label_classifier,
    save_detector,
    score,
    write_pseudo_labels_csv,
)
from clevercatch.encoders import BLOCK, EncoderModel, PretrainConfig, init_encoders, pretrain
from clevercatch.errors import ParseError, ShapeError, ValidationError
from clevercatch.ingest import LabelTable
from clevercatch.rules import Rule, RuleSet
from clevercatch.vocab import Vocabulary

import oracles
from conftest import traced_peak
from oracles import alignment_loss, supervised_loss, supervised_train


def toy_encoders(ruleset, seed=0, epochs=2):
    cfg = PretrainConfig(
        latent_dim=8,
        index_dim=4,
        re_hidden=(16,),
        se_hidden=(16,),
        epochs=epochs,
        triplet_count=300,
        batch_size=64,
    )
    return pretrain(ruleset, cfg, seed)[0]


def toy_problem(rng, n=40, ruleset=None):
    vocab = Vocabulary(["A", "B", "C"])
    if ruleset is None:
        ruleset = RuleSet(
            [Rule("binary", "A", "B", 0.9), Rule("unary", "C", None, 0.5)],
            vocab,
        )
    width = BLOCK * len(ruleset)
    labels = (rng.random(n) < 0.3).astype(np.int64)
    features = rng.normal(0.0, 0.1, (n, width))
    features[labels == 1] += 0.5
    table = LabelTable(np.arange(n, dtype=np.int64), labels)
    return features, table, ruleset


def test_bce_hand_values():
    loss, _ = bce_with_grad(np.array([0.5]), np.array([1.0]))
    assert loss == pytest.approx(np.log(2.0), abs=1e-12)
    loss0, _ = bce_with_grad(np.array([0.5]), np.array([0.0]))
    assert loss0 == pytest.approx(np.log(2.0), abs=1e-12)
    soft, _ = bce_with_grad(np.array([0.5]), np.array([0.5]))
    assert soft == pytest.approx(np.log(2.0), abs=1e-12)
    with pytest.raises(ValidationError):
        bce_with_grad(np.array([]), np.array([]))
    with pytest.raises(ShapeError):
        bce_with_grad(np.array([0.5]), np.array([0.5, 0.5]))


def test_bce_gradient_matches_finite_differences():
    rng = nn.make_rng(1)
    targets = rng.uniform(0.0, 1.0, 20)
    scores = rng.uniform(0.05, 0.95, 20)

    def loss_and_grad(theta):
        return bce_with_grad(theta, targets)

    report = oracles.grad_check(loss_and_grad, scores)
    assert report.passed, f"max relative error {report.max_rel_err}"


def test_bce_clamped_scores_get_zero_gradient():
    scores = np.array([0.0, 1.0, 0.5])
    _, grad = bce_with_grad(scores, np.array([1.0, 0.0, 1.0]))
    assert grad[0] == 0.0
    assert grad[1] == 0.0
    assert grad[2] != 0.0
    loss, _ = bce_with_grad(np.array([0.0]), np.array([1.0]))
    assert np.isfinite(loss)


def test_supervised_and_alignment_loss_validation():
    with pytest.raises(ValidationError):
        supervised_loss(np.array([0.5]), np.array([0.7]))
    with pytest.raises(ValidationError):
        alignment_loss(np.array([0.5]), np.array([1.2]))
    assert supervised_loss(np.array([0.5]), np.array([1])) == pytest.approx(np.log(2.0))
    assert alignment_loss(np.array([0.5]), np.array([0.5])) == pytest.approx(np.log(2.0))


def test_hybrid_objective_gradient_through_network():
    rng = nn.make_rng(7)
    n, width, lam = 12, 6, 0.5
    x = rng.normal(size=(n, width))
    y = (rng.random(n) < 0.5).astype(np.float64)
    labeled = rng.random(n) < 0.6
    labeled[0] = True
    targets = rng.uniform(0.05, 0.95, n)  # frozen pseudo-labels
    mlp = init_detector(width, (8,), rng)
    shapes = [p.shape for p in mlp.parameters()]

    def loss_and_grad(theta):
        for p, v in zip(mlp.parameters(), oracles.unflatten_arrays(theta, shapes)):
            p[...] = v
        out, cache = nn.mlp_forward(mlp, x)
        scores = out[:, 0]
        sup, d_sup = bce_with_grad(scores[labeled], y[labeled])
        align, d_align = bce_with_grad(scores, targets)
        d_scores = np.zeros_like(scores)
        d_scores[labeled] = d_sup
        d_scores += lam * d_align
        grads, _ = nn.mlp_backward(mlp, cache, d_scores[:, None])
        flat, _ = oracles.flatten_arrays(grads)
        return sup + lam * align, flat

    theta0, _ = oracles.flatten_arrays(mlp.parameters())
    report = oracles.grad_check(loss_and_grad, theta0)
    assert report.passed, f"max relative error {report.max_rel_err}"


def test_lambda_zero_reduces_to_supervised_bitwise():
    rng = nn.make_rng(0)
    features, labels, _ = toy_problem(rng)
    cfg = DetectorConfig(hidden=(16,), lam=0.0, epochs=8, batch_size=16)
    hybrid, h_stats = hybrid_train(features, labels, cfg, seed=5)
    plain, p_stats = supervised_train(features, labels, cfg, seed=5)
    for a, b in zip(hybrid.mlp.parameters(), plain.mlp.parameters()):
        assert np.array_equal(a, b)
    assert [s.supervised_loss for s in h_stats] == [s.supervised_loss for s in p_stats]
    assert all(s.alignment_loss == 0.0 for s in h_stats)


@functools.cache
def toy_problem_encoders():
    """toy_encoders of toy_problem's default rule set, pretrained once per session."""
    return toy_encoders(toy_problem(nn.make_rng(0), n=1)[2])


# caplog is cleared before each of the two runs of an example
@settings(deadline=None, max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    seed=st.integers(0, 2**32),
    n=st.integers(1, 70),
    batch_size=st.integers(1, 24),
    epochs=st.integers(1, 3),
    max_iters=st.sampled_from([1, 2, 500]),
    weighted=st.booleans(),
    lam=st.sampled_from([0.0, 0.5]),
    block=st.sampled_from([alignment.COST_BLOCK_ROWS, 2, 3, 4]),  # rows per encoder pass
)
@example(seed=3, n=33, batch_size=8, epochs=2, max_iters=1, weighted=True, lam=0.5, block=1024)  # n = 1 (mod 8)
@example(seed=3, n=33, batch_size=8, epochs=3, max_iters=500, weighted=False, lam=0.5, block=1024)
@example(seed=3, n=33, batch_size=8, epochs=2, max_iters=500, weighted=False, lam=0.5, block=4)  # ends in 5 rows
@example(seed=3, n=34, batch_size=8, epochs=2, max_iters=500, weighted=False, lam=0.5, block=4)  # ends in 2 rows
def test_hybrid_train_matches_the_batch_by_batch_loop(
    seed, n, batch_size, epochs, max_iters, weighted, lam, block, caplog, monkeypatch
):
    monkeypatch.setattr(alignment, "COST_BLOCK_ROWS", block)
    features, labels, _ = toy_problem(nn.make_rng(seed), n=n)
    if labels.n_labeled == 0:
        labels = LabelTable(np.array([0]), np.array([1]))
    encoders = toy_problem_encoders()
    cfg = DetectorConfig(hidden=(8,), lam=lam, epochs=epochs, batch_size=batch_size)
    align_cfg = AlignmentConfig(max_iters=max_iters, weighted_marginals=weighted)
    runs = []
    for train in (hybrid_train, oracles.hybrid_train):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="clevercatch.alignment"):
            model, history = train(features, labels, cfg, seed, encoders, align_cfg)
        runs.append((model, history, [r.getMessage() for r in caplog.records]))
    (model, history, warned), (expected, expected_history, expected_warned) = runs
    for a, b in zip(model.mlp.parameters(), expected.mlp.parameters(), strict=True):
        assert a.tobytes() == b.tobytes()
    assert model.encoder_fingerprint == expected.encoder_fingerprint
    as_bytes = lambda h: np.array([[s.epoch, s.supervised_loss, s.alignment_loss] for s in h]).tobytes()
    assert as_bytes(history) == as_bytes(expected_history)
    assert warned == expected_warned  # the unconverged count and its text


def seven_rule_encoders():
    """Untrained encoders of default widths for 7 binary rules."""
    vocab = Vocabulary([f"D{i}" for i in range(8)])
    ruleset = RuleSet([Rule("binary", f"D{i}", f"D{i + 1}", 0.5) for i in range(7)], vocab)
    return EncoderModel(*init_encoders(vocab.size, BLOCK * 7, PretrainConfig(), nn.make_rng(0)), ruleset)


def test_hybrid_train_peak_memory_per_added_row():
    """Encoding in COST_BLOCK_ROWS blocks keeps the per-row growth near the
    cost matrix and batch lists (about 65 B); encoding every row at once holds
    all layer activations, about 2 KB per row at 7 rules."""
    encoders = seven_rule_encoders()
    peaks = []
    for n in (2 * alignment.COST_BLOCK_ROWS, 6 * alignment.COST_BLOCK_ROWS):
        features = nn.make_rng(1).normal(0.0, 0.1, (n, BLOCK * 7))
        idx = np.arange(0, n, 10)
        labels = LabelTable(idx, (idx % 20 == 0).astype(np.int64))
        peaks.append(traced_peak(hybrid_train, features, labels, DetectorConfig(epochs=1), 3, encoders))
    per_row = (peaks[1] - peaks[0]) / (4 * alignment.COST_BLOCK_ROWS)
    assert per_row <= 512, f"{per_row:.0f} B per added row"


def test_hybrid_train_requires_encoders_when_lam_positive():
    rng = nn.make_rng(0)
    features, labels, _ = toy_problem(rng)
    cfg = DetectorConfig(lam=0.5, epochs=1)
    with pytest.raises(ValidationError, match="encoders"):
        hybrid_train(features, labels, cfg, seed=0)


def test_hybrid_train_smoke_and_loss_direction():
    rng = nn.make_rng(4)
    features, labels, ruleset = toy_problem(rng, n=60)
    encoders = toy_encoders(ruleset)
    cfg = DetectorConfig(hidden=(16,), lam=0.5, epochs=5, batch_size=64)
    model, stats = hybrid_train(features, labels, cfg, seed=1, encoders=encoders)
    assert len(stats) == 5
    assert all(np.isfinite(s.supervised_loss) for s in stats)
    assert all(np.isfinite(s.alignment_loss) for s in stats)
    sup = [s.supervised_loss for s in stats]
    assert all(b <= a + 1e-9 for a, b in zip(sup, sup[1:]))
    assert model.lam == 0.5


def test_binding_checks():
    rng = nn.make_rng(0)
    features, labels, ruleset = toy_problem(rng)
    encoders = toy_encoders(ruleset)
    cfg = DetectorConfig(lam=0.5, epochs=1)
    with pytest.raises(ShapeError, match="feature width 29 does not match encoder width 30"):
        hybrid_train(features[:, :-1], labels, cfg, 0, encoders=encoders)
    with pytest.raises(ShapeError, match="feature width 29 does not match encoder width 30"):
        pseudo_label_classifier(features[:, :-1], encoders)


def test_score_ranks_and_tie_break():
    w = np.zeros((3, 1))
    flat = DetectorModel(nn.Mlp([nn.Layer(w, np.array([0.0]), "sigmoid")]), lam=0.0, seed=0)
    report = score(flat, np.eye(3))
    assert np.all(report.scores == 0.5)
    assert report.ranks.tolist() == [1, 2, 3]  # ties keep row order
    assert report.order.tolist() == [0, 1, 2]
    steer = DetectorModel(
        nn.Mlp([nn.Layer(np.array([[1.0], [2.0], [3.0]]), np.array([0.0]), "sigmoid")]), lam=0.0, seed=0
    )
    ranked = score(steer, np.eye(3))
    assert ranked.order.tolist() == [2, 1, 0]
    assert ranked.ranks.tolist() == [3, 2, 1]
    assert sorted(ranked.ranks.tolist()) == [1, 2, 3]


def test_pseudo_label_classifier_threshold_strict():
    rng = nn.make_rng(2)
    features, _, ruleset = toy_problem(rng, n=30)
    encoders = toy_encoders(ruleset)
    report = pseudo_label_classifier(features, encoders)
    assert report.labels.shape == (30,)
    assert np.all((report.labels >= 0.0) & (report.labels <= 1.0))
    assert np.array_equal(report.predictions, report.labels > 0.5)
    exact = pseudo_label_classifier(features, encoders, threshold=float(report.labels[0]))
    assert not exact.predictions[0]  # strictly above, not at, the threshold


@pytest.mark.parametrize("n", [1, 2, 1025, 2049])  # 1025 and 2049 end in a one-row remainder
def test_pseudo_label_classifier_matches_the_whole_matrix_path(n):
    encoders = seven_rule_encoders()
    features = nn.make_rng(n).normal(0.0, 0.1, (n, BLOCK * 7))
    report = pseudo_label_classifier(features, encoders)
    expected = oracles.pseudo_label_classifier(features, encoders)
    assert report.costs.tobytes() == expected.costs.tobytes()
    assert report.labels.tobytes() == expected.labels.tobytes()
    assert np.array_equal(report.predictions, expected.predictions)


def test_pseudo_label_classifier_peak_memory_per_added_row():
    """Encoding in COST_BLOCK_ROWS blocks keeps the per-row growth near the
    cost matrix and the transport arrays; encoding every row at once holds
    all layer activations, about 2 KB per row at 7 rules."""
    encoders = seven_rule_encoders()
    peaks = []
    for n in (2 * alignment.COST_BLOCK_ROWS, 6 * alignment.COST_BLOCK_ROWS):
        features = nn.make_rng(1).normal(0.0, 0.1, (n, BLOCK * 7))
        peaks.append(traced_peak(pseudo_label_classifier, features, encoders))
    per_row = (peaks[1] - peaks[0]) / (4 * alignment.COST_BLOCK_ROWS)
    assert per_row <= 512, f"{per_row:.0f} B per added row"


def test_write_pseudo_labels_csv(tmp_path):
    rng = nn.make_rng(2)
    features, _, ruleset = toy_problem(rng, n=5)
    encoders = toy_encoders(ruleset)
    report = pseudo_label_classifier(features, encoders)
    path = tmp_path / "pseudo.csv"
    npis = [f"N{i}" for i in range(5)]
    write_pseudo_labels_csv(path, npis, report)
    lines = path.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "npi,cost,pseudo_label"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert first[0] == "N0"
    assert float(first[1]) == report.costs[0]
    assert float(first[2]) == report.labels[0]
    with pytest.raises(ShapeError):
        write_pseudo_labels_csv(path, npis[:-1], report)


def test_detector_round_trip(tmp_path):
    rng = nn.make_rng(0)
    features, labels, _ = toy_problem(rng)
    cfg = DetectorConfig(hidden=(8, 4), lam=0.0, epochs=2, batch_size=16)
    model, _ = hybrid_train(features, labels, cfg, seed=9)
    path = tmp_path / "detector.json"
    save_detector(path, model)
    loaded = load_detector(path)
    assert loaded.lam == model.lam
    assert loaded.seed == model.seed
    assert loaded.input_dim == model.input_dim
    for a, b in zip(loaded.mlp.parameters(), model.mlp.parameters()):
        assert np.array_equal(a, b)
    assert np.array_equal(score(loaded, features).scores, score(model, features).scores)


def test_load_detector_rejects_malformed(tmp_path):
    rng = nn.make_rng(0)
    features, labels, _ = toy_problem(rng, n=10)
    cfg = DetectorConfig(hidden=(4,), lam=0.0, epochs=1, batch_size=8)
    model, _ = hybrid_train(features, labels, cfg, seed=0)
    path = tmp_path / "detector.json"
    save_detector(path, model)
    doc = json.loads(path.read_text(encoding="utf-8"))
    truncated = tmp_path / "truncated.json"
    truncated.write_text(path.read_text(encoding="utf-8")[:-30], encoding="utf-8")
    with pytest.raises(ParseError):
        load_detector(truncated)
    doc_bad = dict(doc)
    del doc_bad["lambda"]
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps(doc_bad), encoding="utf-8")
    with pytest.raises(ParseError):
        load_detector(missing)
    doc_nan = json.loads(path.read_text(encoding="utf-8"))
    doc_nan["weights"][0]["weight"][0][0] = None
    nan_file = tmp_path / "nan.json"
    nan_file.write_text(json.dumps(doc_nan), encoding="utf-8")
    with pytest.raises(ParseError):
        load_detector(nan_file)
    doc_v1 = {
        "format_version": 1,
        "input_width": doc["input_width"],
        "architecture": {
            "hidden": [len(entry["bias"]) for entry in doc["weights"][:-1]],
            "activations": [entry["activation"] for entry in doc["weights"]],
        },
        "weights": [{"weight": e["weight"], "bias": e["bias"]} for e in doc["weights"]],
        "lambda": doc["lambda"],
        "seed": doc["seed"],
        "encoder_fingerprint": doc["encoder_fingerprint"],
    }
    v1_file = tmp_path / "v1.json"
    v1_file.write_text(json.dumps(doc_v1), encoding="utf-8")
    with pytest.raises(ParseError, match="unsupported format version 1"):
        load_detector(v1_file)
    doc_no_act = json.loads(path.read_text(encoding="utf-8"))
    del doc_no_act["weights"][-1]["activation"]
    no_act_file = tmp_path / "no_activation.json"
    no_act_file.write_text(json.dumps(doc_no_act), encoding="utf-8")
    with pytest.raises(ParseError, match="malformed network weights"):
        load_detector(no_act_file)


@pytest.mark.parametrize("field, value, message", [
    ("lambda", float("nan"), "field 'lambda' must be a finite JSON number, got NaN"),
    ("seed", "5", "field 'seed' must be a JSON integer, got \"5\""),
], ids=["lambda-nan", "seed-text"])
def test_load_detector_rejects_a_field_of_the_wrong_type(tmp_path, field, value, message):
    mlp = nn.init_mlp([4, 3, 1], ["relu", "sigmoid"], nn.make_rng(0))
    path = tmp_path / "detector.json"
    save_detector(path, DetectorModel(mlp=mlp, lam=0.5, seed=5))
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc[field] = value
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ParseError) as caught:
        load_detector(path)
    assert str(caught.value) == f"{path}: {message}"


@pytest.mark.parametrize(
    "dims, activations",
    [([4, 3, 2], ["relu", "identity"]), ([4, 3, 1], ["relu", "identity"]), ([4, 3, 2], ["relu", "sigmoid"])],
)
def test_load_detector_rejects_a_head_that_is_not_one_sigmoid_unit(tmp_path, dims, activations):
    mlp = nn.init_mlp(dims, activations, nn.make_rng(0))
    path = tmp_path / "detector.json"
    save_detector(path, DetectorModel(mlp=mlp, lam=0.0, seed=0))
    with pytest.raises(ParseError, match="one sigmoid unit"):
        load_detector(path)


def test_detector_config_validation():
    with pytest.raises(ValidationError):
        DetectorConfig(lam=-0.1)
    with pytest.raises(ValidationError):
        DetectorConfig(batch_size=0)
    with pytest.raises(ValidationError):
        DetectorConfig(learning_rate=0.0)


def test_training_needs_labels():
    rng = nn.make_rng(0)
    features = rng.normal(size=(4, 3))
    empty = LabelTable(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
    with pytest.raises(ValidationError):
        hybrid_train(features, empty, DetectorConfig(lam=0.0, epochs=1), 0)
