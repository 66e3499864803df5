"""Detector losses, hybrid training, scoring, and model persistence."""

import json

import numpy as np
import pytest

from clevercatch import nn
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
from clevercatch.encoders import (
    BLOCK,
    EncoderModel,
    PretrainConfig,
    pretrain,
)
from clevercatch.errors import (
    FingerprintMismatch,
    ParseError,
    ShapeError,
    ValidationError,
)
from clevercatch.ingest import LabelTable
from clevercatch.rules import Rule, RuleSet
from clevercatch.vocab import Vocabulary

import oracles
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
    re, se, _ = pretrain(ruleset, cfg, seed)
    return EncoderModel(
        re=re,
        se=se,
        ruleset_fingerprint=ruleset.fingerprint(),
        drugs=ruleset.vocab,
    )


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
    model, stats = hybrid_train(
        features, labels, cfg, seed=1, encoders=encoders, ruleset=ruleset
    )
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
    with pytest.raises(ShapeError, match="width"):
        hybrid_train(
            features[:, :-1], labels, cfg, 0, encoders=encoders, ruleset=ruleset
        )
    reweighted = RuleSet(
        [Rule("binary", "A", "B", 0.9), Rule("unary", "C", None, 0.7)],
        ruleset.vocab,
    )
    with pytest.raises(FingerprintMismatch):
        hybrid_train(features, labels, cfg, 0, encoders=encoders, ruleset=reweighted)


def test_binding_rejects_rules_over_another_drug_order():
    # same rules, same fingerprint, but the drugs sit at other positions: the
    # encoders' embedding rows would silently rebind to other drugs
    rng = nn.make_rng(0)
    features, labels, ruleset = toy_problem(rng)
    encoders = toy_encoders(ruleset)
    reordered = RuleSet(ruleset.rules, Vocabulary(["B", "A", "C"]))
    assert reordered.fingerprint() == encoders.ruleset_fingerprint
    with pytest.raises(FingerprintMismatch, match="drug list"):
        pseudo_label_classifier(features, encoders, reordered)
    with pytest.raises(FingerprintMismatch, match="drug list"):
        hybrid_train(
            features, labels, DetectorConfig(lam=0.5, epochs=1), 0, encoders=encoders, ruleset=reordered
        )


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
    report = pseudo_label_classifier(features, encoders, ruleset)
    assert report.labels.shape == (30,)
    assert np.all((report.labels >= 0.0) & (report.labels <= 1.0))
    assert np.array_equal(report.predictions, report.labels > 0.5)
    exact = pseudo_label_classifier(
        features, encoders, ruleset, threshold=float(report.labels[0])
    )
    assert not exact.predictions[0]  # strictly above, not at, the threshold


def test_write_pseudo_labels_csv(tmp_path):
    rng = nn.make_rng(2)
    features, _, ruleset = toy_problem(rng, n=5)
    encoders = toy_encoders(ruleset)
    report = pseudo_label_classifier(features, encoders, ruleset)
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
