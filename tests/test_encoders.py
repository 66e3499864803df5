"""Encoder pretraining: triplet generation, losses, alternation, persistence."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from clevercatch import nn
from clevercatch.encoders import (
    BLOCK,
    PretrainConfig,
    gen_synthetic_triplets,
    init_encoders,
    load_encoders,
    pretrain,
    rule_encode,
    sample_encode,
    save_encoders,
    _triplet_batch_loss,
)
from clevercatch.errors import ParseError, ValidationError
from clevercatch.rules import Rule, RuleSet
from clevercatch.vocab import Vocabulary

import oracles
from conftest import random_ruleset
from oracles import separation_rate, triplet_loss


def small_cfg(**overrides):
    base = dict(
        latent_dim=8,
        index_dim=4,
        re_hidden=(16,),
        se_hidden=(16,),
        epochs=4,
        triplet_count=400,
        batch_size=64,
    )
    base.update(overrides)
    return PretrainConfig(**base)


def test_gen_triplets_shapes_and_blocks(toy_ruleset):
    rng = nn.make_rng(0)
    batch = gen_synthetic_triplets(toy_ruleset, 200, 0.1, (0.5, 1.0), rng)
    r = len(toy_ruleset)
    assert batch.pos.shape == (200, BLOCK * r)
    assert batch.neg.shape == (200, BLOCK * r)
    assert batch.rule_idx.shape == (200,)
    for n in range(0, 200, 37):
        j = int(batch.rule_idx[n])
        pos_block = batch.pos[n, j * BLOCK : (j + 1) * BLOCK]
        neg_block = batch.neg[n, j * BLOCK : (j + 1) * BLOCK]
        # one scalar per side, copied across the block
        assert np.all(pos_block == pos_block[0])
        assert np.all(neg_block == neg_block[0])
        assert 0.5 <= pos_block[0] < 1.0
        assert -1.0 < neg_block[0] <= -0.5
    assert np.all(batch.pos >= -1.0) and np.all(batch.pos <= 1.0)
    assert np.all(batch.neg >= -1.0) and np.all(batch.neg <= 1.0)


def test_gen_triplets_validation(toy_ruleset):
    rng = nn.make_rng(0)
    with pytest.raises(ValidationError):
        gen_synthetic_triplets(toy_ruleset, 1, 0.1, (0.5, 1.0), rng)
    with pytest.raises(ValidationError):
        gen_synthetic_triplets(toy_ruleset, 10, 0.1, (0.0, 1.0), rng)
    with pytest.raises(ValidationError):
        gen_synthetic_triplets(toy_ruleset, 10, 0.1, (0.9, 0.5), rng)
    with pytest.raises(ValidationError):
        gen_synthetic_triplets(toy_ruleset, 10, -0.1, (0.5, 1.0), rng)


def test_gen_triplets_weighted_sampling(toy_vocab):
    ruleset = RuleSet(
        [
            Rule("unary", "DrugA", None, 0.9),
            Rule("unary", "DrugB", None, 0.1),
        ],
        toy_vocab,
    )
    rng = nn.make_rng(123)
    batch = gen_synthetic_triplets(ruleset, 10_000, 0.1, (0.5, 1.0), rng, weight_floor=0.0)
    freq = float((batch.rule_idx == 0).mean())
    p = 0.9
    sigma = np.sqrt(p * (1 - p) / 10_000)
    assert abs(freq - p) < 3 * sigma


def test_gen_triplets_weight_floor_keeps_zero_weight_rules(toy_vocab):
    ruleset = RuleSet(
        [
            Rule("unary", "DrugA", None, 1.0),
            Rule("unary", "DrugB", None, 0.0),
        ],
        toy_vocab,
    )
    rng = nn.make_rng(5)
    batch = gen_synthetic_triplets(ruleset, 4000, 0.1, (0.5, 1.0), rng, weight_floor=0.05)
    assert (batch.rule_idx == 1).sum() > 0
    with pytest.raises(ValidationError):
        zero = RuleSet([Rule("unary", "DrugA", None, 0.0)], toy_vocab)
        gen_synthetic_triplets(zero, 10, 0.1, (0.5, 1.0), rng, weight_floor=0.0)


def test_triplet_loss_hand_values():
    e_rule = np.zeros(4)
    # d+^2 = 0.1, d-^2 = 1.0, margin 0.5: hinge max(0, 0.1 - 1.0 + 0.5) = 0
    e_pos = np.array([np.sqrt(0.1), 0, 0, 0])
    e_neg = np.array([1.0, 0, 0, 0])
    assert triplet_loss(e_rule, e_pos, e_neg, 1.0, 0.5) == 0.0
    # equal distances, margin 0.5, weight 0.8: 0.8 * 0.5 = 0.4
    assert triplet_loss(e_rule, e_pos, e_pos, 0.8, 0.5) == pytest.approx(0.4)
    with pytest.raises(ValidationError):
        triplet_loss(e_rule, e_pos, e_neg, 1.5, 0.5)
    with pytest.raises(ValidationError):
        triplet_loss(e_rule, e_pos, e_neg, 0.5, -1.0)


@given(
    w=st.floats(0.0, 1.0),
    scale=st.floats(0.1, 2.0),
)
def test_triplet_loss_linear_in_weight(w, scale):
    e_rule = np.array([0.0, 0.0])
    e_pos = np.array([scale, 0.0])
    e_neg = np.array([0.0, scale / 2.0])
    base = triplet_loss(e_rule, e_pos, e_neg, 1.0, 0.3)
    assert triplet_loss(e_rule, e_pos, e_neg, w, 0.3) == pytest.approx(w * base, abs=1e-12)


def test_triplet_batch_loss_gradients():
    rng = nn.make_rng(9)
    n, latent = 12, 6
    weights = rng.uniform(0.1, 1.0, n)
    margin = 0.4
    arrays = [rng.normal(size=(n, latent)) for _ in range(3)]
    shapes = [a.shape for a in arrays]

    def loss_and_grad(theta):
        e_rule, e_pos, e_neg = oracles.unflatten_arrays(theta, shapes)
        loss, d_rule, d_pos, d_neg = _triplet_batch_loss(e_rule, e_pos, e_neg, weights, margin)
        flat, _ = oracles.flatten_arrays([d_rule, d_pos, d_neg])
        return loss, flat

    theta0, _ = oracles.flatten_arrays(arrays)
    report = oracles.grad_check(loss_and_grad, theta0)
    assert report.passed, f"max relative error {report.max_rel_err}"


def test_batch_loss_matches_scalar_loss():
    rng = nn.make_rng(2)
    n, latent = 8, 5
    e_rule = rng.normal(size=(n, latent))
    e_pos = rng.normal(size=(n, latent))
    e_neg = rng.normal(size=(n, latent))
    weights = rng.uniform(0.0, 1.0, n)
    margin = 0.7
    batch_value, _, _, _ = _triplet_batch_loss(e_rule, e_pos, e_neg, weights, margin)
    mean_of_scalars = np.mean(
        [
            triplet_loss(e_rule[i], e_pos[i], e_neg[i], weights[i], margin)
            for i in range(n)
        ]
    )
    assert batch_value == pytest.approx(mean_of_scalars, abs=1e-12)


def test_rule_encoder_distinguishes_pair_order(toy_vocab):
    forward = RuleSet([Rule("binary", "DrugA", "DrugB", 1.0)], toy_vocab)
    backward = RuleSet([Rule("binary", "DrugB", "DrugA", 1.0)], toy_vocab)
    cfg = small_cfg()
    re, _ = init_encoders(toy_vocab.size, BLOCK, cfg, nn.make_rng(0))
    e_fwd = rule_encode(re, forward)
    e_bwd = rule_encode(re, backward)
    assert not np.allclose(e_fwd, e_bwd)


def test_unary_rules_use_null_embedding(toy_vocab):
    cfg = small_cfg()
    re, _ = init_encoders(toy_vocab.size, BLOCK, cfg, nn.make_rng(0))
    unary = RuleSet([Rule("unary", "DrugA", None, 1.0)], toy_vocab)
    e_unary = rule_encode(re, unary)
    # manually build the same input: [embedding[p], e_null]
    x = np.concatenate([re.embedding[0], re.e_null])[None, :]
    expected, _ = nn.mlp_forward(re.mlp, x)
    assert np.array_equal(e_unary, expected)


def test_separation_rate_hand_case(toy_vocab):
    ruleset = RuleSet([Rule("unary", "DrugA", None, 1.0)], toy_vocab)
    cfg = small_cfg()
    re, se = init_encoders(toy_vocab.size, BLOCK, cfg, nn.make_rng(1))
    batch = gen_synthetic_triplets(ruleset, 50, 0.1, (0.5, 1.0), nn.make_rng(2))
    rate = separation_rate(re, se, ruleset, batch)
    assert 0.0 <= rate <= 1.0
    swapped = type(batch)(batch.rule_idx, batch.neg, batch.pos)
    assert rate + separation_rate(re, se, ruleset, swapped) <= 1.0 + 1e-12


def test_pretrain_alternates_and_improves(toy_ruleset):
    cfg = small_cfg(epochs=6)
    re, se, history = pretrain(toy_ruleset, cfg, seed=0)
    assert [h.epoch for h in history] == list(range(6))
    assert [h.updated for h in history] == ["se", "re", "se", "re", "se", "re"]
    assert all(np.isfinite(h.mean_loss) for h in history)
    assert history[-1].holdout_separation >= 0.9
    again_re, again_se, again_history = pretrain(toy_ruleset, cfg, seed=0)
    for a, b in zip(re.parameters(), again_re.parameters()):
        assert np.array_equal(a, b)
    for a, b in zip(se.parameters(), again_se.parameters()):
        assert np.array_equal(a, b)
    assert [h.mean_loss for h in history] == [h.mean_loss for h in again_history]


def test_encoder_round_trip(tmp_path, toy_ruleset):
    cfg = small_cfg(epochs=2)
    re, se, _ = pretrain(toy_ruleset, cfg, seed=3)
    path = tmp_path / "encoders.json"
    save_encoders(path, re, se, toy_ruleset.fingerprint(), toy_ruleset.vocab)
    model = load_encoders(path)
    assert model.ruleset_fingerprint == toy_ruleset.fingerprint()
    assert model.drugs == toy_ruleset.vocab
    assert model.re.latent_dim == model.se.latent_dim == cfg.latent_dim
    assert model.re.index_dim == cfg.index_dim
    assert model.feature_dim == BLOCK * len(toy_ruleset)
    assert np.array_equal(model.re.embedding, re.embedding)
    assert np.array_equal(model.re.e_null, re.e_null)
    for a, b in zip(model.re.mlp.parameters(), re.mlp.parameters()):
        assert np.array_equal(a, b)
    for a, b in zip(model.se.mlp.parameters(), se.mlp.parameters()):
        assert np.array_equal(a, b)
    assert model.file_sha256 != ""
    # embeddings computed from the loaded model are bitwise identical
    batch = gen_synthetic_triplets(toy_ruleset, 20, 0.1, (0.5, 1.0), nn.make_rng(0))
    assert np.array_equal(sample_encode(model.se, batch.pos), sample_encode(se, batch.pos))
    assert np.array_equal(rule_encode(model.re, toy_ruleset), rule_encode(re, toy_ruleset))


def test_load_encoders_rejects_malformed(tmp_path, toy_ruleset):
    cfg = small_cfg(epochs=1)
    re, se, _ = pretrain(toy_ruleset, cfg, seed=0)
    path = tmp_path / "encoders.json"
    save_encoders(path, re, se, toy_ruleset.fingerprint(), toy_ruleset.vocab)
    not_json = tmp_path / "broken.json"
    not_json.write_text(path.read_text(encoding="utf-8")[:-40], encoding="utf-8")
    with pytest.raises(ParseError):
        load_encoders(not_json)
    import json

    doc = json.loads(path.read_text(encoding="utf-8"))
    doc.pop("e_null")
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ParseError, match="keys"):
        load_encoders(missing)
    doc2 = json.loads(path.read_text(encoding="utf-8"))
    doc2["format_version"] = 99
    version = tmp_path / "version.json"
    version.write_text(json.dumps(doc2), encoding="utf-8")
    with pytest.raises(ParseError, match="version"):
        load_encoders(version)
    doc3 = json.loads(path.read_text(encoding="utf-8"))
    doc3["re_weights"]["mlp"][0]["weight"][0][0] = None
    nan_weights = tmp_path / "nan.json"
    nan_weights.write_text(json.dumps(doc3), encoding="utf-8")
    with pytest.raises(ParseError):
        load_encoders(nan_weights)


def test_encoders_bind_embedding_rows_to_drug_names(tmp_path, toy_ruleset):
    import json

    re, se, _ = pretrain(toy_ruleset, small_cfg(epochs=1), seed=0)
    path = tmp_path / "encoders.json"
    save_encoders(path, re, se, toy_ruleset.fingerprint(), toy_ruleset.vocab)
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["format_version"] == 2
    assert doc["drugs"] == list(toy_ruleset.vocab.names)
    cases = {
        "duplicated": ["DrugA", "DrugB", "DrugA", "DrugD"],
        "too short": ["DrugA", "DrugB", "DrugC"],
        "too long": ["DrugA", "DrugB", "DrugC", "DrugD", "DrugE"],
        "not names": ["DrugA", "DrugB", 3, "DrugD"],
    }
    for name, drugs in cases.items():
        bad = tmp_path / f"{name}.json"
        bad.write_text(json.dumps({**doc, "drugs": drugs}), encoding="utf-8")
        with pytest.raises(ParseError, match="drug|duplicate"):
            load_encoders(bad)
    # a version-1 file has no drug list and is refused by its version
    v1 = {k: v for k, v in doc.items() if k != "drugs"}
    v1["format_version"] = 1
    old = tmp_path / "v1.json"
    old.write_text(json.dumps(v1), encoding="utf-8")
    with pytest.raises(ParseError, match="unsupported format version 1"):
        load_encoders(old)


def test_pretrain_config_validation():
    with pytest.raises(ValidationError):
        PretrainConfig(band_lo=0.9, band_hi=0.5)
    with pytest.raises(ValidationError):
        PretrainConfig(margin=-1.0)
    with pytest.raises(ValidationError):
        PretrainConfig(holdout_fraction=1.5)


def test_pretrain_on_random_mixed_ruleset():
    rng = nn.make_rng(42)
    vocab = Vocabulary([f"D{i}" for i in range(10)])
    ruleset = random_ruleset(rng, vocab, 6)
    cfg = small_cfg(epochs=6, triplet_count=600)
    _, _, history = pretrain(ruleset, cfg, seed=1)
    assert history[-1].holdout_separation >= 0.85


def assert_pretrain_matches_oracle(ruleset, cfg, seed):
    """Run pretrain and the full-backward oracle loop; demand bitwise equality."""
    re, se, history = pretrain(ruleset, cfg, seed)
    old_re, old_se, old_history = oracles.pretrain(ruleset, cfg, seed)
    for a, b in zip(re.parameters() + se.parameters(), old_re.parameters() + old_se.parameters()):
        assert a.tobytes() == b.tobytes()
    assert len(history) == len(old_history) == cfg.epochs
    for new, old in zip(history, old_history):
        assert (new.epoch, new.updated, new.batches) == (old.epoch, old.updated, old.batches)
        assert new.zero_grad_batches == old.zero_grad_batches
        floats = np.array([new.mean_loss, new.holdout_separation])
        assert floats.tobytes() == np.array([old.mean_loss, old.holdout_separation]).tobytes()
    return history


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 2**32),
    n_rules=st.integers(1, 4),
    margin=st.sampled_from([0.0, 0.5, 1.0, 100.0]),
    learning_rate=st.sampled_from([1e-3, 3e-2]),
    batch_size=st.integers(1, 12),
    extra=st.integers(0, 40),
    holdout_fraction=st.sampled_from([0.0, 0.2]),
    epochs=st.integers(1, 6),
)
@example(seed=5, n_rules=3, margin=1.0, learning_rate=3e-2, batch_size=8, extra=38,
         holdout_fraction=0.0, epochs=4)  # 41 training rows: the last batch holds one
def test_pretrain_matches_the_full_backward_loop(
    seed, n_rules, margin, learning_rate, batch_size, extra, holdout_fraction, epochs
):
    vocab = Vocabulary([f"D{i}" for i in range(6)])
    ruleset = random_ruleset(nn.make_rng(seed), vocab, n_rules)
    cfg = small_cfg(
        latent_dim=4, index_dim=3, re_hidden=(8,), se_hidden=(8,), epochs=epochs,
        triplet_count=len(ruleset) + extra, batch_size=batch_size, margin=margin,
        learning_rate=learning_rate, holdout_fraction=holdout_fraction,
    )
    assert_pretrain_matches_oracle(ruleset, cfg, seed)


@pytest.mark.parametrize(
    "margin, learning_rate, kinds",
    [
        (1.0, 3e-2, {"mixed", "all"}),  # a mixed first epoch, then none active
        (0.0, 1e-3, {"none", "mixed"}),
        (100.0, 1e-3, {"none"}),  # a wide margin keeps every hinge active here
    ],
)
def test_pretrain_skips_exactly_the_zero_gradient_batches(margin, learning_rate, kinds):
    vocab = Vocabulary([f"D{i}" for i in range(6)])
    ruleset = random_ruleset(nn.make_rng(3), vocab, 3)
    cfg = small_cfg(
        latent_dim=4, index_dim=3, re_hidden=(8,), se_hidden=(8,), epochs=6,
        triplet_count=51, batch_size=8, margin=margin, learning_rate=learning_rate,
    )
    history = assert_pretrain_matches_oracle(ruleset, cfg, seed=5)
    assert {h.batches for h in history} == {6}  # 46 training rows: the last batch holds 6
    seen = {
        "none" if h.zero_grad_batches == 0 else "all" if h.zero_grad_batches == h.batches else "mixed"
        for h in history
    }
    assert seen == kinds
