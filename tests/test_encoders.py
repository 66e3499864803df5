"""Encoder pretraining: triplet generation, losses, alternation, persistence."""

import hashlib
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from clevercatch import encoders, nn
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
)
from clevercatch.errors import FingerprintMismatch, ParseError, ValidationError
from clevercatch.rules import Rule, RuleSet, write_rules_csv
from clevercatch.vocab import Vocabulary

import oracles
from conftest import random_ruleset, traced_peak
from oracles import separation_rate, triplet_batch_loss, triplet_loss


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


def write_rules(directory, ruleset, name="rules.csv"):
    path = directory / name
    write_rules_csv(ruleset.rules, path)
    return path


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
        loss, d_rule, d_pos, d_neg = triplet_batch_loss(e_rule, e_pos, e_neg, weights, margin)
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
    batch_value, _, _, _ = triplet_batch_loss(e_rule, e_pos, e_neg, weights, margin)
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
    model, history = pretrain(toy_ruleset, cfg, seed=0)
    assert model.ruleset is toy_ruleset and model.file_sha256 == ""
    assert [h.epoch for h in history] == list(range(6))
    assert [h.updated for h in history] == ["se", "re", "se", "re", "se", "re"]
    assert all(np.isfinite(h.mean_loss) for h in history)
    assert history[-1].holdout_separation >= 0.9
    again, again_history = pretrain(toy_ruleset, cfg, seed=0)
    for a, b in zip(model.re.parameters(), again.re.parameters()):
        assert np.array_equal(a, b)
    for a, b in zip(model.se.parameters(), again.se.parameters()):
        assert np.array_equal(a, b)
    assert [h.mean_loss for h in history] == [h.mean_loss for h in again_history]


def test_pretrain_frees_each_holdout_pair_before_encoding_the_next(toy_ruleset, monkeypatch):
    """Each "se" epoch encodes the holdout as a (pos, neg) pair; no encoding of
    an earlier pair may still be alive when a call of the next pair starts."""
    encoded = []  # a weak reference to each call's result, in call order

    def tracked(se, deltas):
        alive = sum(ref() is not None for ref in encoded[: len(encoded) // 2 * 2])
        assert alive == 0, f"{alive} earlier holdout encodings alive at call {len(encoded)}"
        out = sample_encode(se, deltas)
        encoded.append(weakref.ref(out))
        return out

    monkeypatch.setattr(encoders, "sample_encode", tracked)
    pretrain(toy_ruleset, small_cfg(epochs=6), seed=0)
    assert len(encoded) == 6  # three "se" epochs


def test_encoder_round_trip(tmp_path, toy_ruleset):
    cfg = small_cfg(epochs=2)
    trained, _ = pretrain(toy_ruleset, cfg, seed=3)
    re, se = trained.re, trained.se
    path = tmp_path / "encoders.json"
    save_encoders(path, trained)
    model = load_encoders(path, write_rules(tmp_path, toy_ruleset))
    assert model.ruleset.fingerprint() == toy_ruleset.fingerprint()
    assert model.ruleset.vocab == toy_ruleset.vocab
    assert model.re.latent_dim == model.se.output_dim == cfg.latent_dim
    assert model.re.index_dim == cfg.index_dim
    assert model.se.input_dim == BLOCK * len(toy_ruleset)
    assert np.array_equal(model.re.embedding, re.embedding)
    assert np.array_equal(model.re.e_null, re.e_null)
    for a, b in zip(model.re.mlp.parameters(), re.mlp.parameters()):
        assert np.array_equal(a, b)
    for a, b in zip(model.se.parameters(), se.parameters()):
        assert np.array_equal(a, b)
    assert model.file_sha256 != ""
    # embeddings computed from the loaded model are bitwise identical
    batch = gen_synthetic_triplets(toy_ruleset, 20, 0.1, (0.5, 1.0), nn.make_rng(0))
    assert np.array_equal(sample_encode(model.se, batch.pos), sample_encode(se, batch.pos))
    assert np.array_equal(rule_encode(model.re, toy_ruleset), rule_encode(re, toy_ruleset))


def test_load_encoders_rejects_malformed(tmp_path, toy_ruleset):
    cfg = small_cfg(epochs=1)
    path = tmp_path / "encoders.json"
    save_encoders(path, pretrain(toy_ruleset, cfg, seed=0)[0])
    rules = write_rules(tmp_path, toy_ruleset)
    not_json = tmp_path / "broken.json"
    not_json.write_text(path.read_text(encoding="utf-8")[:-40], encoding="utf-8")
    with pytest.raises(ParseError):
        load_encoders(not_json, rules)
    import json

    doc = json.loads(path.read_text(encoding="utf-8"))
    doc.pop("e_null")
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ParseError, match="keys"):
        load_encoders(missing, rules)
    doc2 = json.loads(path.read_text(encoding="utf-8"))
    doc2["format_version"] = 99
    version = tmp_path / "version.json"
    version.write_text(json.dumps(doc2), encoding="utf-8")
    with pytest.raises(ParseError, match="version"):
        load_encoders(version, rules)
    doc3 = json.loads(path.read_text(encoding="utf-8"))
    doc3["re_weights"]["mlp"][0]["weight"][0][0] = None
    nan_weights = tmp_path / "nan.json"
    nan_weights.write_text(json.dumps(doc3), encoding="utf-8")
    with pytest.raises(ParseError):
        load_encoders(nan_weights, rules)


@pytest.mark.parametrize("value, shown", [(32.9, "32.9"), (True, "true")], ids=["float", "bool"])
def test_load_encoders_requires_an_integer_latent_width(tmp_path, toy_ruleset, value, shown):
    import json

    path = tmp_path / "encoders.json"
    save_encoders(path, pretrain(toy_ruleset, small_cfg(latent_dim=32, epochs=1), seed=0)[0])
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["L"] = value
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ParseError) as caught:
        load_encoders(path, write_rules(tmp_path, toy_ruleset))
    assert str(caught.value) == f"{path}: field 'L' must be a JSON integer, got {shown}"


def test_encoders_bind_embedding_rows_to_drug_names(tmp_path, toy_ruleset):
    import json

    path = tmp_path / "encoders.json"
    save_encoders(path, pretrain(toy_ruleset, small_cfg(epochs=1), seed=0)[0])
    rules = write_rules(tmp_path, toy_ruleset)
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
            load_encoders(bad, rules)
    # a version-1 file has no drug list and is refused by its version
    v1 = {k: v for k, v in doc.items() if k != "drugs"}
    v1["format_version"] = 1
    old = tmp_path / "v1.json"
    old.write_text(json.dumps(v1), encoding="utf-8")
    with pytest.raises(ParseError, match="unsupported format version 1"):
        load_encoders(old, rules)


def test_load_encoders_binds_the_rules_it_is_given(tmp_path, toy_ruleset):
    path = tmp_path / "encoders.json"
    save_encoders(path, pretrain(toy_ruleset, small_cfg(epochs=1), seed=0)[0])
    reweighted = RuleSet(
        [Rule("binary", "DrugA", "DrugB", 0.8), Rule("unary", "DrugC", None, 0.7)],
        toy_ruleset.vocab,
    )
    other = write_rules(tmp_path, reweighted, "other.csv")
    with pytest.raises(FingerprintMismatch) as caught:
        load_encoders(path, other)
    assert reweighted.fingerprint() in str(caught.value)
    assert toy_ruleset.fingerprint() in str(caught.value)
    unknown = tmp_path / "unknown.csv"
    unknown.write_text(write_rules(tmp_path, toy_ruleset).read_text() + "unary,DrugX,,0.5\n")
    with pytest.raises(ParseError, match=r"unknown\.csv: line 4: unknown drug name 'DrugX'"):
        load_encoders(path, unknown)


def test_save_encoders_of_a_loaded_model_is_byte_identical(tmp_path, toy_ruleset):
    path, again = tmp_path / "encoders.json", tmp_path / "again.json"
    save_encoders(path, pretrain(toy_ruleset, small_cfg(epochs=3), seed=4)[0])
    model = load_encoders(path, write_rules(tmp_path, toy_ruleset))
    save_encoders(again, model)
    assert again.read_bytes() == path.read_bytes()
    assert model.file_sha256 == hashlib.sha256(path.read_bytes()).hexdigest()


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
    _, history = pretrain(ruleset, cfg, seed=1)
    assert history[-1].holdout_separation >= 0.85


def run_counting_batches(module, run, *args):
    """Call one pretraining loop; count its training batches as triplet-hinge evaluations."""
    calls = []
    hinges = module._triplet_hinges
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, "_triplet_hinges", lambda *a: calls.append(1) or hinges(*a))
        result = run(*args)
    return result, len(calls)


def assert_pretrain_matches_oracle(ruleset, cfg, seed):
    """Run pretrain and the full-backward oracle loop; demand bitwise equality.

    Returns pretrain's history and the training batches that each loop ran.
    """
    (model, history), ran = run_counting_batches(encoders, pretrain, ruleset, cfg, seed)
    (old_re, old_se, old_history), full = run_counting_batches(
        oracles, oracles.pretrain, ruleset, cfg, seed
    )
    assert model.ruleset is ruleset
    new_params = model.re.parameters() + model.se.parameters()
    for a, b in zip(new_params, old_re.parameters() + old_se.parameters(), strict=True):
        assert a.tobytes() == b.tobytes()
    assert len(history) == len(old_history) == cfg.epochs
    for new, old in zip(history, old_history):
        assert (new.epoch, new.updated, new.batches) == (old.epoch, old.updated, old.batches)
        assert new.zero_grad_batches == old.zero_grad_batches
        floats = np.array([new.mean_loss, new.holdout_separation])
        assert floats.tobytes() == np.array([old.mean_loss, old.holdout_separation]).tobytes()
    assert full == cfg.epochs * history[0].batches
    return history, ran, full


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 2**32),
    n_rules=st.integers(1, 4),
    margin=st.sampled_from([0.0, 0.5, 1.0, 100.0]),
    learning_rate=st.sampled_from([1e-3, 3e-2]),
    batch_size=st.integers(1, 12),
    extra=st.integers(0, 40),
    holdout_fraction=st.sampled_from([0.0, 0.2]),
    epochs=st.integers(1, 16),
)
@example(seed=5, n_rules=3, margin=1.0, learning_rate=3e-2, batch_size=8, extra=38,
         holdout_fraction=0.0, epochs=4)  # 41 training rows: the last batch holds one
@example(seed=5, n_rules=3, margin=100.0, learning_rate=1e-3, batch_size=8, extra=38,
         holdout_fraction=0.0, epochs=4)  # the same, with every hinge active
@example(seed=5, n_rules=1, margin=1.0, learning_rate=3e-2, batch_size=8, extra=40,
         holdout_fraction=0.0, epochs=4)  # one rule: the rule forward has one row
@example(seed=5, n_rules=1, margin=100.0, learning_rate=1e-3, batch_size=8, extra=40,
         holdout_fraction=0.0, epochs=4)
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


@pytest.mark.parametrize("holdout_fraction, blocks", [(0.2, [8, 8, 1]), (0.0, [])])
def test_pretrain_encodes_the_holdout_one_batch_at_a_time(holdout_fraction, blocks):
    # 85 triplets: a 17-row holdout is two batches of 8 and a one-row remainder
    vocab = Vocabulary([f"D{i}" for i in range(6)])
    ruleset = random_ruleset(nn.make_rng(3), vocab, 3)
    cfg = small_cfg(
        latent_dim=4, index_dim=3, re_hidden=(8,), se_hidden=(8,), epochs=4,
        triplet_count=85, batch_size=8, holdout_fraction=holdout_fraction,
    )
    rows, encode = [], encoders.sample_encode
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(encoders, "sample_encode", lambda se, x: rows.append(len(x)) or encode(se, x))
        history, _, _ = assert_pretrain_matches_oracle(ruleset, cfg, seed=5)
    assert rows == blocks * 4  # both sides in both sample-encoder epochs
    assert all(np.isnan(h.holdout_separation) == (not blocks) for h in history)


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
    history, _, _ = assert_pretrain_matches_oracle(ruleset, cfg, seed=5)
    assert {h.batches for h in history} == {6}  # 46 training rows: the last batch holds 6
    seen = {
        "none" if h.zero_grad_batches == 0 else "all" if h.zero_grad_batches == h.batches else "mixed"
        for h in history
    }
    assert seen == kinds


def stop_cfg(**overrides):
    # 41 training rows in batches of 2: the last batch holds one row
    base = dict(latent_dim=4, index_dim=3, re_hidden=(8,), se_hidden=(8,), epochs=48,
                triplet_count=46, batch_size=2)
    return small_cfg(**{**base, **overrides})


@pytest.mark.parametrize("margin", [1.0, 0.0])
def test_pretrain_stops_once_no_later_epoch_can_change_a_bit(margin):
    vocab = Vocabulary([f"D{i}" for i in range(6)])
    ruleset = random_ruleset(nn.make_rng(3), vocab, 3)
    cfg = stop_cfg(margin=margin)
    history, ran, full = assert_pretrain_matches_oracle(ruleset, cfg, seed=5)
    assert ran < full and ran % history[0].batches == 0


def test_pretrain_stops_despite_an_active_zero_weight_hinge():
    vocab = Vocabulary([f"D{i}" for i in range(6)])
    ruleset = RuleSet(
        [Rule("unary", "D0", None, 1.0), Rule("binary", "D1", "D2", 0.0),
         Rule("binary", "D3", "D4", 0.6)],
        vocab,
    )
    cfg = stop_cfg(weight_floor=0.5)
    _, ran, full = assert_pretrain_matches_oracle(ruleset, cfg, seed=0)
    assert ran < full
    model, _ = pretrain(ruleset, cfg, seed=0)
    re, se = model.re, model.se
    batch = gen_synthetic_triplets(
        ruleset, 300, cfg.noise_sigma, (cfg.band_lo, cfg.band_hi), nn.make_rng(9),
        weight_floor=cfg.weight_floor,
    )
    e_rule = rule_encode(re, ruleset)[batch.rule_idx]
    d_pos = ((sample_encode(se, batch.pos) - e_rule) ** 2).sum(axis=1)
    d_neg = ((sample_encode(se, batch.neg) - e_rule) ** 2).sum(axis=1)
    unweighted = ruleset.weights[batch.rule_idx] == 0
    assert unweighted.any() and np.all(d_pos - d_neg + cfg.margin > 0, where=unweighted)


def test_pretrain_runs_every_epoch_while_parameters_move():
    vocab = Vocabulary([f"D{i}" for i in range(6)])
    ruleset = random_ruleset(nn.make_rng(3), vocab, 3)
    cfg = stop_cfg(epochs=8)
    _, ran, full = assert_pretrain_matches_oracle(ruleset, cfg, seed=5)
    assert ran == full
    re, se, _ = oracles.pretrain(ruleset, cfg, seed=5)
    before_re, before_se, _ = oracles.pretrain(ruleset, stop_cfg(epochs=7), seed=5)
    last = [a.tobytes() for a in re.parameters()] + [a.tobytes() for a in se.parameters()]
    before = [a.tobytes() for a in before_re.parameters() + before_se.parameters()]
    assert last != before  # the last epoch moved a bit


def count_certificate_passes(run, *args):
    """Call run; count the reference passes over the training triplets that pretrain makes."""
    calls = []
    room = encoders._hinge_room
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(encoders, "_hinge_room", lambda *a: calls.append(1) or room(*a))
        result = run(*args)
    return result, len(calls)


@pytest.mark.parametrize("margin", [1.0, 100.0])
def test_the_certificate_skips_forwards_at_the_shipped_widths(margin):
    # 1 800 training triplets in 8 batches: a zero-gradient epoch decays Adam's steps
    # by only 0.43, so the certificate holds late and the still-epoch stop never comes
    ruleset = random_ruleset(nn.make_rng(7), Vocabulary(f"D{i}" for i in range(10)), 7)
    cfg = PretrainConfig(triplet_count=2000, margin=margin)
    (history, ran, full), passes = count_certificate_passes(
        assert_pretrain_matches_oracle, ruleset, cfg, 0
    )
    skipped = [h for h in history if h.forward_skipped]
    assert ran < full and ran + sum(h.batches for h in skipped) == full
    assert skipped and skipped[-1].epoch == cfg.epochs - 1 and 1 <= passes <= 2
    assert all(h.zero_grad_batches == h.batches and h.mean_loss == 0.0 for h in skipped)


@pytest.mark.parametrize("overrides", [
    dict(margin=0.0, learning_rate=3e-2, epochs=20),  # clear from epoch 1; the one try fails
    dict(margin=100.0, band_lo=0.05),  # no epoch is clear, so nothing is tried
])
def test_a_certificate_that_never_holds_costs_at_most_one_pass(overrides):
    ruleset = random_ruleset(nn.make_rng(7), Vocabulary(f"D{i}" for i in range(10)), 7)
    cfg = PretrainConfig(triplet_count=2000, **overrides)
    (history, ran, full), passes = count_certificate_passes(
        assert_pretrain_matches_oracle, ruleset, cfg, 0
    )
    assert ran == full and passes <= 1 and not any(h.forward_skipped for h in history)


def adam_after_random_steps(rng, shapes, learning_rate, n_steps, step_count):
    """Parameters (some exactly zero) and an Adam state after n_steps random gradients,
    the first taken as step step_count + 1. Some elements' gradients are of order 1e-170,
    where g * g underflows: m != 0 with v = 0."""
    params = [rng.normal(0.0, 1.0, shape) * (rng.random(shape) < 0.8) for shape in shapes]
    scales = [10.0 ** rng.choice([-170, -3, 0], shape) for shape in shapes]
    scales[0].flat[0] = 1e-170
    opt = nn.adam(learning_rate)
    opt.step_count = step_count  # late steps have bias corrections near 1, where the bound is tight
    for _ in range(n_steps):
        masks = [rng.random(s.shape) < 0.7 for s in scales]
        masks[0].flat[0] = True
        nn.optimizer_step(opt, params, [rng.normal(0.0, 1.0, s.shape) * s * m for s, m in zip(scales, masks)])
    return params, opt


@settings(deadline=None, max_examples=80)
@given(
    seed=st.integers(0, 2**32),
    n_steps=st.integers(1, 5),
    step_count=st.sampled_from([0, 10, 10_000]),
    later=st.integers(0, 400),
    learning_rate=st.sampled_from([1e-3, 3e-2, 1.0]),
)
def test_drift_bounds_every_later_zero_gradient_step(seed, n_steps, step_count, later, learning_rate):
    rng = nn.make_rng(seed)
    params, opt = adam_after_random_steps(rng, [(3, 4), (4,), (2,)], learning_rate, n_steps, step_count)
    assert any(((m != 0) & (v == 0)).any() for m, v in zip(opt.moments1, opt.moments2))
    start = [p.copy() for p in params]
    bounds = encoders._drift(opt, params, later)
    for _ in range(later):
        nn.optimizer_step(opt, params, None)
    for p, p0, bound in zip(params, start, bounds, strict=True):
        assert np.all(np.abs(p - p0) <= bound)


@settings(deadline=None, max_examples=80)
@given(
    seed=st.integers(0, 2**32),
    widths=st.lists(st.integers(1, 9), min_size=1, max_size=3),
    last=st.sampled_from(["identity", "relu", "sigmoid"]),
    scale=st.sampled_from([1e-9, 1e-4, 1e-1]),
)
def test_reach_bounds_how_far_outputs_move(seed, widths, last, scale):
    rng = nn.make_rng(seed)
    dims = [int(rng.integers(1, 8)), *widths]
    mlp = nn.init_mlp(dims, ["relu"] * (len(dims) - 2) + [last], rng)
    x = rng.normal(0.0, 1.0, (30, dims[0]))
    out, cache = nn.mlp_forward(mlp, x)
    amax = [np.abs(a).max(axis=0) for a in cache.activations[:-1]]
    drifts = [scale * rng.random(p.shape) for p in mlp.parameters()]
    d_in = scale * rng.random(dims[0])
    bound = encoders._reach(mlp, drifts, amax, d_in)

    def sign(shape):  # moves inside the bounds, many of them at a corner
        return rng.choice([-1.0, -0.5, 0.0, 1.0], shape)

    for _ in range(5):
        moved = nn.Mlp([
            nn.Layer(layer.weight + sign(dw.shape) * dw, layer.bias + sign(db.shape) * db, layer.activation)
            for layer, dw, db in zip(mlp.layers, drifts[::2], drifts[1::2])
        ])
        moved_out, _ = nn.mlp_forward(moved, x + sign(x.shape) * d_in)
        assert np.all(np.abs(moved_out - out) <= bound * (1 + 1e-9) + 1e-13)


def test_pretrain_peak_memory_grows_with_the_triplets_it_keeps():
    """Doubling the triplets adds at most 1.1 times their bytes to the traced peak: the
    draw is kept once, and nothing is copied out of it."""
    vocab = Vocabulary(f"D{i}" for i in range(8))
    ruleset = RuleSet([Rule("binary", f"D{i}", f"D{i + 1}", 0.5) for i in range(7)], vocab)
    peaks = []
    for count in (4000, 8000):
        cfg = PretrainConfig(epochs=1, triplet_count=count)
        peaks.append(traced_peak(pretrain, ruleset, cfg, 0))
    added = 4000 * (2 * BLOCK * len(ruleset) + 1) * 8  # pos, neg and rule index of the added triplets
    assert (peaks[1] - peaks[0]) / added <= 1.1, f"{(peaks[1] - peaks[0]) / added:.2f} x the added bytes"


def test_a_larger_holdout_adds_only_its_embeddings_to_the_pretrain_peak():
    """At 8 000 triplets, a holdout of 4 000 rows in place of 800 adds at most the added
    rows' satisfying and violating embeddings and one batch's forward to the traced peak."""
    vocab = Vocabulary(f"D{i}" for i in range(8))
    ruleset = RuleSet([Rule("binary", f"D{i}", f"D{i + 1}", 0.5) for i in range(7)], vocab)
    peaks = [
        traced_peak(pretrain, ruleset, PretrainConfig(epochs=2, triplet_count=8000, holdout_fraction=f), 0)
        for f in (0.1, 0.5)
    ]
    cfg = PretrainConfig()
    embeddings = 2 * 3200 * cfg.latent_dim * 8
    forward = 2 * cfg.batch_size * (BLOCK * len(ruleset) + sum(cfg.se_hidden) + cfg.latent_dim) * 8
    assert peaks[1] - peaks[0] <= embeddings + forward, f"{peaks[1] - peaks[0]} B added"
