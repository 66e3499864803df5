"""Rule and sample encoders pretrained on synthetic rule-contrast triplets.

The rule encoder maps a rule to a latent vector by concatenating learnable
index embeddings for its drugs (a shared null embedding stands in for the
missing side of unary rules) and passing them through an MLP. The sample
encoder maps a 15R rule-contrast vector into the same latent space. Both are
pretrained with a weighted triplet loss on synthetic contrast vectors whose
rule block is strictly positive (satisfying) or strictly negative (violating),
alternating epochs between the two encoders. An EncoderModel holds the pair
together with the rule set it was trained on.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import nn
from .errors import FingerprintMismatch, NumericError, ParseError, ValidationError
from .features import BLOCK
from .io_utils import atomic_write_text, dumps_canonical, json_number, read_json_document, sha256_file
from .rules import RuleSet, parse_rules
from .vocab import Vocabulary

ENCODER_FORMAT_VERSION = 2


@dataclass
class PretrainConfig:
    latent_dim: int = 32
    index_dim: int = 16
    re_hidden: tuple[int, ...] = (64,)
    se_hidden: tuple[int, ...] = (128, 64)
    margin: float = 1.0
    learning_rate: float = 1e-3
    batch_size: int = 256
    epochs: int = 50
    triplet_count: int = 20000
    holdout_fraction: float = 0.1
    noise_sigma: float = 0.1
    band_lo: float = 0.5
    band_hi: float = 1.0
    weight_floor: float = 0.05

    def __post_init__(self):
        if min(self.latent_dim, self.index_dim, *self.re_hidden, *self.se_hidden) < 1:
            raise ValidationError("encoder dimensions and hidden widths must be positive")
        if self.margin < 0:
            raise ValidationError("margin must be non-negative")
        if not 0.0 <= self.holdout_fraction < 1.0:
            raise ValidationError("holdout fraction must lie in [0, 1)")
        if self.batch_size < 1 or self.epochs < 1 or self.triplet_count < 1:
            raise ValidationError("batch size, epochs and triplet count must be positive")
        if not 0.0 < self.band_lo < self.band_hi <= 1.0:
            raise ValidationError(
                f"band must satisfy 0 < lo < hi <= 1, got ({self.band_lo}, {self.band_hi})"
            )
        if self.learning_rate <= 0:
            raise ValidationError("learning rate must be positive")
        if self.noise_sigma < 0:
            raise ValidationError("noise sigma must be non-negative")
        if self.weight_floor < 0:
            raise ValidationError("weight floor must be non-negative")


@dataclass
class RuleEncoderParams:
    embedding: np.ndarray  # (D, d) one row per vocabulary drug
    e_null: np.ndarray  # (d,) placeholder for the missing side of unary rules
    mlp: nn.Mlp  # 2d -> ... -> L

    def parameters(self) -> list[np.ndarray]:
        return [self.embedding, self.e_null] + self.mlp.parameters()

    def parameter_names(self) -> list[str]:
        return ["embedding", "e_null"] + [f"mlp.{n}" for n in self.mlp.parameter_names()]

    @property
    def index_dim(self) -> int:
        return int(self.embedding.shape[1])

    @property
    def latent_dim(self) -> int:
        return self.mlp.output_dim


@dataclass
class EncoderModel:
    """The encoder pair and the rule set it was trained on.

    The rule set's fingerprint and drug list are what save_encoders stores
    beside the weights; file_sha256 is the hash of the file the model was
    loaded from, empty for a model trained in process.
    """

    re: RuleEncoderParams
    se: nn.Mlp  # 15R -> ... -> L
    ruleset: RuleSet
    file_sha256: str = ""


def init_encoders(
    n_drugs: int, feature_dim: int, cfg: PretrainConfig, rng: np.random.Generator
) -> tuple[RuleEncoderParams, nn.Mlp]:
    """Fresh encoder parameters; draw order is fixed for determinism."""
    if n_drugs < 1 or feature_dim < 1:
        raise ValidationError("need at least one drug and one feature column")
    embedding = nn.he_uniform(rng, cfg.index_dim, (n_drugs, cfg.index_dim))
    e_null = nn.he_uniform(rng, cfg.index_dim, (cfg.index_dim,))
    re_dims = [2 * cfg.index_dim, *cfg.re_hidden, cfg.latent_dim]
    re_mlp = nn.init_mlp(re_dims, ["relu"] * len(cfg.re_hidden) + ["identity"], rng)
    se_dims = [feature_dim, *cfg.se_hidden, cfg.latent_dim]
    se_mlp = nn.init_mlp(se_dims, ["relu"] * len(cfg.se_hidden) + ["identity"], rng)
    return RuleEncoderParams(embedding, e_null, re_mlp), se_mlp


def _rule_inputs(re: RuleEncoderParams, p_idx: np.ndarray, q_idx: np.ndarray) -> np.ndarray:
    left = re.embedding[p_idx]
    right = np.where((q_idx >= 0)[:, None], re.embedding[np.maximum(q_idx, 0)], re.e_null)
    return np.concatenate([left, right], axis=1)


def rule_encode(re: RuleEncoderParams, ruleset: RuleSet) -> np.ndarray:
    """Latent embeddings for every rule in the set, shape (R, L)."""
    out, _ = nn.mlp_forward(re.mlp, _rule_inputs(re, ruleset.p_idx, ruleset.q_idx))
    return out


def _rule_encode_bwd(
    re: RuleEncoderParams,
    p_idx: np.ndarray,
    q_idx: np.ndarray,
    cache: nn.ForwardCache,
    dout: np.ndarray,
) -> list[np.ndarray]:
    """Gradients aligned with RuleEncoderParams.parameters()."""
    mlp_grads, dx = nn.mlp_backward(re.mlp, cache, dout)
    d = re.index_dim
    d_embedding = np.zeros_like(re.embedding)
    d_null = np.zeros_like(re.e_null)
    np.add.at(d_embedding, p_idx, dx[:, :d])
    binary = q_idx >= 0
    if binary.any():
        np.add.at(d_embedding, q_idx[binary], dx[binary, d:])
    if (~binary).any():
        d_null += dx[~binary, d:].sum(axis=0)
    return [d_embedding, d_null] + mlp_grads


def sample_encode(se: nn.Mlp, deltas: np.ndarray) -> np.ndarray:
    """Latent embeddings for a batch of contrast vectors, shape (B, L)."""
    out, _ = nn.mlp_forward(se, deltas)
    return out


@dataclass
class TripletBatch:
    """Synthetic triplets stored columnwise: rule index, satisfying and violating contrasts."""

    rule_idx: np.ndarray  # (n,) int64
    pos: np.ndarray  # (n, 15R)
    neg: np.ndarray  # (n, 15R)

    def __len__(self) -> int:
        return int(self.rule_idx.size)


def gen_synthetic_triplets(
    ruleset: RuleSet,
    count: int,
    noise_sigma: float,
    band: tuple[float, float],
    rng: np.random.Generator,
    weight_floor: float = 0.0,
) -> TripletBatch:
    """Draw triplets with rule blocks in +/-[lo, hi) over clipped Gaussian background.

    Rules are sampled proportionally to max(weight, weight_floor). Each
    triplet draws one block value per side: the rule-j block of the satisfying
    vector is a positive scalar in [lo, hi) copied across the block, the
    violating one a negative scalar in (-hi, -lo]; background coordinates are
    N(0, sigma^2) clipped to [-1, 1]. Copying a single value keeps whole-block
    magnitudes uniformly covered down to lo, so training sees weak deviations
    as well as blatant ones.
    """
    r = len(ruleset)
    if count < r:
        raise ValidationError(f"need at least {r} triplets to cover {r} rules, got {count}")
    lo, hi = band
    if not 0.0 < lo < hi <= 1.0:
        raise ValidationError(f"band must satisfy 0 < lo < hi <= 1, got ({lo}, {hi})")
    if noise_sigma < 0:
        raise ValidationError("noise sigma must be non-negative")
    probs = np.maximum(ruleset.weights, weight_floor)
    total = probs.sum()
    if total <= 0:
        raise ValidationError("all rule weights are zero; use a positive weight floor")
    probs = probs / total
    width = BLOCK * r
    rule_idx = rng.choice(r, size=count, p=probs)
    pos = rng.normal(0.0, noise_sigma, (count, width))
    np.clip(pos, -1.0, 1.0, out=pos)
    neg = rng.normal(0.0, noise_sigma, (count, width))
    np.clip(neg, -1.0, 1.0, out=neg)
    rows = np.arange(count)  # each row's rule block, through an (n, R, 15) view
    pos.reshape(count, r, BLOCK)[rows, rule_idx] = rng.uniform(lo, hi, (count, 1))
    neg.reshape(count, r, BLOCK)[rows, rule_idx] = rng.uniform(-hi, -lo, (count, 1))
    return TripletBatch(rule_idx=rule_idx.astype(np.int64), pos=pos, neg=neg)


def _triplet_hinges(e_rule, e_pos, e_neg, weights, margin):
    """Mean weighted hinge, squared distances d_pos and d_neg, and each row's gradient coefficient."""
    d_pos = ((e_pos - e_rule) ** 2).sum(axis=1)
    d_neg = ((e_neg - e_rule) ** 2).sum(axis=1)
    hinge = d_pos - d_neg + margin
    loss = float((weights * np.maximum(hinge, 0.0)).mean())
    return loss, d_pos, d_neg, (weights * (hinge > 0.0)) / weights.size


def _triplet_grads(e_rule: np.ndarray, e_pos: np.ndarray, e_neg: np.ndarray, coef: np.ndarray):
    """Gradients of the mean weighted hinge w.r.t. the rule, satisfying and violating embeddings."""
    c = 2.0 * coef[:, None]
    return c * (e_neg - e_pos), c * (e_pos - e_rule), -c * (e_neg - e_rule)


def _separation(e_rule: np.ndarray, e_pos: np.ndarray, e_neg: np.ndarray) -> float:
    d_pos = ((e_pos - e_rule) ** 2).sum(axis=1)
    d_neg = ((e_neg - e_rule) ** 2).sum(axis=1)
    return float((d_pos < d_neg).mean())


@dataclass
class EpochStats:
    epoch: int
    updated: str  # "se" or "re"
    mean_loss: float
    holdout_separation: float
    batches: int
    zero_grad_batches: int  # output gradient exactly zero, so backward skipped
    ran: bool = True  # False: a copy of the last epoch of its phase, after the still-epoch stop
    forward_skipped: bool = False  # every hinge certified clear, so no batch ran a forward pass


def _encode_rows(se: nn.Mlp, side: np.ndarray, idx: np.ndarray, size: int) -> np.ndarray:
    """sample_encode(se, side[idx]), encoded size rows at a time."""
    out = np.empty((idx.size, se.output_dim))
    for start in range(0, idx.size, size):
        out[start : start + size] = sample_encode(se, side[idx[start : start + size]])
    return out


def _drift(opt: nn.OptimizerState, params: list[np.ndarray], steps: int) -> list[np.ndarray]:
    """Bound on how far each element moves in `steps` more zero-gradient Adam steps, after
    at least one step: step k moves it by at most lr |m| / ((1 - beta1^(t+1)) (sqrt(v) + eps))
    rho^k with rho = beta1 / sqrt(beta2), plus a relative few ulp and one ulp of |p|."""
    rho = opt.beta1 / np.sqrt(opt.beta2)
    total = steps if rho == 1.0 else rho * (1.0 - rho**steps) / (1.0 - rho)
    scale = opt.learning_rate * total / (1.0 - opt.beta1 ** (opt.step_count + 1))
    scale *= 1.0 + (4 * steps + 16) * 2.0**-52
    bounds = [scale * np.abs(m) / (np.sqrt(v) + opt.eps) for m, v in zip(opt.moments1, opt.moments2)]
    return [b + steps * np.spacing(np.abs(p) + b) for p, b in zip(params, bounds)]


def _reach(mlp: nn.Mlp, drifts: list[np.ndarray], amax: list[np.ndarray], d_in: np.ndarray):
    """Bound on each output's move when the input moves by d_in and the parameters by
    drifts, for inputs whose |activation| entering each layer stays within amax."""
    for layer, dw, db, a in zip(mlp.layers, drifts[::2], drifts[1::2], amax):
        d_in = d_in @ (np.abs(layer.weight) + dw) + a @ dw + db  # activations are 1-Lipschitz
    return d_in


def _hinge_room(re: RuleEncoderParams, se: nn.Mlp, ruleset: RuleSet, triplets: TripletBatch,
                train: np.ndarray, cfg: PretrainConfig):
    """One pass over the training triplets: the largest t = ||delta_se + delta_re|| that every
    weighted hinge absorbs and stays clear, and the largest |activation| entering each layer.
    With distances a, b, t moves a hinge by at most 2 (a + b) t + 2 t^2, the clear threshold
    by k times that; k adds 1e-6 for rounding and BLAS-path differences."""
    k = 1e-9 + 1e-6
    e_rule, cache = nn.mlp_forward(re.mlp, _rule_inputs(re, ruleset.p_idx, ruleset.q_idx))
    re_amax = [np.abs(a).max(axis=0) for a in cache.activations[:-1]]
    se_amax = [np.zeros(layer.weight.shape[0]) for layer in se.layers]
    room = np.inf
    for start in range(0, train.size, cfg.batch_size):
        idx = train[start : start + cfg.batch_size]
        idx = idx[ruleset.weights[triplets.rule_idx[idx]] != 0]
        dist = []
        for side in (triplets.pos, triplets.neg):
            acts = nn.mlp_forward(se, side[idx])[1].activations
            for top, a in zip(se_amax, acts):  # no whole-block |a| temporary
                np.maximum(top, np.maximum(a.max(axis=0, initial=0), -a.min(axis=0, initial=0)), out=top)
            dist.append(((acts[-1] - e_rule[triplets.rule_idx[idx]]) ** 2).sum(axis=1))
            del acts  # dropped before the next forward
        d_pos, d_neg = dist
        g = np.maximum(-(d_pos - d_neg + cfg.margin + k * (d_pos + d_neg + abs(cfg.margin))), 0.0)
        g, s = g / (1.0 + k), np.sqrt(d_pos) + np.sqrt(d_neg)  # solve 2 t^2 + 2 s t = g for t
        room = min(room, float((g / (s + np.sqrt(s * s + 2.0 * g) + 1e-300)).min(initial=np.inf)))
    return room, re_amax, se_amax


def pretrain(
    ruleset: RuleSet, cfg: PretrainConfig, seed: int
) -> tuple[EncoderModel, list[EpochStats]]:
    """Encoders for ruleset by alternating triplet pretraining: even epochs
    update the sample encoder, odd epochs the rule encoder (0-based). Triplets
    are drawn once per run and a holdout slice of the draw tracks separation;
    only its embeddings are kept, encoded one batch at a time.

    The loop ends early, with the result of running all cfg.epochs, after two
    consecutive still epochs: each had a zero gradient on every batch, kept
    every weighted hinge clear of zero and left its encoder's bits unchanged.
    A zero-gradient Adam update shrinks at every step, so no later step can
    move a bit that a whole epoch of them did not, and frozen encoders keep
    every hinge clear. The remaining epochs repeat the last one of their phase.

    After two clear epochs it tries to certify that every weighted hinge stays
    clear wherever the remaining zero-gradient steps can move both encoders. By
    induction over those steps every later gradient is zero, so the later epochs
    take the same optimizer steps without running the batch forwards.
    """
    rng = nn.make_rng(seed)
    re, se = init_encoders(ruleset.vocab.size, BLOCK * len(ruleset), cfg, rng)
    triplets = gen_synthetic_triplets(
        ruleset, cfg.triplet_count, cfg.noise_sigma, (cfg.band_lo, cfg.band_hi), rng,
        weight_floor=cfg.weight_floor,
    )
    perm = rng.permutation(len(triplets))
    n_hold = int(round(cfg.holdout_fraction * len(triplets)))
    hold, train = perm[:n_hold], perm[n_hold:]  # rows are reached through the draw, not copied out of it
    if train.size == 0:
        raise ValidationError("holdout fraction leaves no training triplets")
    re_opt, se_opt = nn.adam(cfg.learning_rate), nn.adam(cfg.learning_rate)
    re_names, se_names = re.parameter_names(), se.parameter_names()
    history: list[EpochStats] = []
    still = 0  # consecutive still epochs
    n_batches = -(-train.size // cfg.batch_size)
    certified, was_clear, last_try = False, False, None
    for epoch in range(cfg.epochs):
        phase = "se" if epoch % 2 == 0 else "re"
        if still == 2:  # both encoders are frozen: repeat the last epoch of this phase
            repeat = replace(history[-2], epoch=epoch, zero_grad_batches=history[-2].batches, ran=False)
            history.append(repeat)
            continue
        params = se.parameters() if phase == "se" else re.parameters()
        opt, names = (se_opt, se_names) if phase == "se" else (re_opt, re_names)
        start_bits = [p.tobytes() for p in params]
        clear = True
        order = rng.permutation(train.size)
        losses, n_zero = ([0.0] * n_batches, n_batches) if certified else ([], 0)
        for _ in range(n_batches if certified else 0):  # each batch proved zero-gradient
            nn.optimizer_step(opt, params, None, names)
        for start in range(0, 0 if certified else train.size, cfg.batch_size):
            idx = train[order[start : start + cfg.batch_size]]
            rule_ids = triplets.rule_idx[idx]
            weights = ruleset.weights[rule_ids]
            # the rule encoder runs once on the R rules and each triplet takes its rule's row
            e_rule, re_cache = nn.mlp_forward(re.mlp, _rule_inputs(re, ruleset.p_idx, ruleset.q_idx))
            e_rule = e_rule[rule_ids]
            e_pos, pos_cache = nn.mlp_forward(se, triplets.pos[idx])
            e_neg, neg_cache = nn.mlp_forward(se, triplets.neg[idx])
            loss, d_pos, d_neg, coef = _triplet_hinges(e_rule, e_pos, e_neg, weights, cfg.margin)
            if not np.isfinite(loss):
                raise NumericError(f"triplet loss diverged at epoch {epoch}")
            losses.append(loss)
            grads = _triplet_grads(e_rule, e_pos, e_neg, coef) if coef.any() else None
            grads = None if grads is None or not any(g.any() for g in grads) else grads
            n_zero += grads is None
            # every weighted hinge lies below zero by far more than the last-bit
            # differences that the same row's embeddings can show in another batch
            clear = clear and grads is None and bool(np.all(
                (d_pos - d_neg + cfg.margin < -1e-9 * (d_pos + d_neg + abs(cfg.margin))) | (weights == 0)
            ))
            if grads is not None and phase == "se":
                grads = [gp + gn for gp, gn in zip(
                    nn.mlp_backward(se, pos_cache, grads[1])[0], nn.mlp_backward(se, neg_cache, grads[2])[0]
                )]
            elif grads is not None:
                cache = nn.ForwardCache(re.mlp, [a[rule_ids] for a in re_cache.activations])
                grads = _rule_encode_bwd(
                    re, ruleset.p_idx[rule_ids], ruleset.q_idx[rule_ids], cache, grads[0]
                )
            nn.optimizer_step(opt, params, grads, names)
            # dead before the next batch's forward
            e_rule = re_cache = e_pos = pos_cache = e_neg = neg_cache = grads = cache = None
        if phase == "se" and n_hold:  # an "re" epoch leaves the sample encoder as it was
            hold_pos = hold_neg = None  # the last pair is dead before the next is encoded
            hold_pos = _encode_rows(se, triplets.pos, hold, cfg.batch_size)
            hold_neg = _encode_rows(se, triplets.neg, hold, cfg.batch_size)
        e_hold = rule_encode(re, ruleset)[triplets.rule_idx[hold]]
        sep = _separation(e_hold, hold_pos, hold_neg) if n_hold else float("nan")
        history.append(EpochStats(
            epoch, phase, float(np.mean(losses)), sep, len(losses), n_zero, forward_skipped=certified
        ))
        moved = any(p.tobytes() != bits for p, bits in zip(params, start_bits))
        still = still + 1 if clear and not moved else 0
        if clear and was_clear and not certified and epoch + 1 < cfg.epochs:
            rest = range(epoch + 1, cfg.epochs)  # even epochs step the sample encoder
            re_drift = _drift(re_opt, re.parameters(), n_batches * len(rest[epoch % 2 :: 2]))
            se_drift = _drift(se_opt, se.parameters(), n_batches * len(rest[(epoch + 1) % 2 :: 2]))
            d_rule = np.tile(np.maximum(re_drift[0].max(axis=0), re_drift[1]), 2)

            def spread(re_amax, se_amax):  # t for activations within these maxima
                d_se = _reach(se, se_drift, se_amax, np.zeros(se.input_dim))
                return np.linalg.norm(d_se + _reach(re.mlp, re_drift[2:], re_amax, d_rule))

            # after a failed try, pass over the triplets again only once the drift bound
            # has shrunk enough that the last try would have held
            if last_try is None or spread(*last_try[1:]) < last_try[0]:
                last_try = _hinge_room(re, se, ruleset, triplets, train, cfg)
                certified = spread(*last_try[1:]) < last_try[0]
            del re_drift, se_drift, d_rule, spread  # not held through the remaining epochs
        was_clear = clear
    return EncoderModel(re, se, ruleset), history


def save_encoders(path, model: EncoderModel) -> None:
    """Write the encoder pair as a single JSON document with fixed key order.

    drugs names the drug of each embedding row, so a reader binds rules to
    the embeddings by name rather than by position in some claims file.
    """
    re = model.re
    doc = {
        "format_version": ENCODER_FORMAT_VERSION,
        "L": re.latent_dim,
        "d": re.index_dim,
        "ruleset_fingerprint": model.ruleset.fingerprint(),
        "drugs": list(model.ruleset.vocab.names),
        "re_weights": {"embedding": re.embedding, "mlp": nn.mlp_to_json(re.mlp)},
        "e_null": re.e_null,
        "se_weights": {"mlp": nn.mlp_to_json(model.se)},
    }
    atomic_write_text(path, dumps_canonical(doc) + "\n")


def load_encoders(path, rules_path) -> EncoderModel:
    """Encoders from path, with the rules in rules_path bound to their drug names.

    A rule naming a drug without an embedding fails to parse, and a rule set
    whose fingerprint differs from the one stored with the encoders raises
    FingerprintMismatch.
    """
    keys = [
        "format_version", "L", "d", "ruleset_fingerprint", "drugs", "re_weights", "e_null", "se_weights"
    ]
    doc = read_json_document(path, ENCODER_FORMAT_VERSION, keys, "encoder model")
    latent_dim, index_dim = json_number(path, doc, "L", True), json_number(path, doc, "d", True)
    try:
        embedding = np.asarray(doc["re_weights"]["embedding"], dtype=np.float64)
        e_null = np.asarray(doc["e_null"], dtype=np.float64)
        re_mlp, se_mlp = doc["re_weights"]["mlp"], doc["se_weights"]["mlp"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{path}: malformed encoder model: {exc}") from None
    if embedding.ndim != 2 or e_null.shape != (embedding.shape[1],):
        raise ParseError(f"{path}: embedding table and null embedding widths disagree")
    if not (np.all(np.isfinite(embedding)) and np.all(np.isfinite(e_null))):
        raise ParseError(f"{path}: non-finite embedding entries")
    re = RuleEncoderParams(embedding, e_null, nn.mlp_from_json(re_mlp, str(path)))
    se = nn.mlp_from_json(se_mlp, str(path))
    if re.mlp.input_dim != 2 * embedding.shape[1]:
        raise ParseError(f"{path}: rule network width does not match twice the index width")
    if latent_dim != re.latent_dim or latent_dim != se.output_dim:
        raise ParseError(f"{path}: latent width does not match stored networks")
    if index_dim != embedding.shape[1]:
        raise ParseError(f"{path}: index width does not match the embedding table")
    names = doc["drugs"]
    if not isinstance(names, list) or not all(isinstance(n, str) and n for n in names):
        raise ParseError(f"{path}: drugs must be a list of non-empty names")
    if len(names) != embedding.shape[0]:
        raise ParseError(
            f"{path}: {len(names)} drug names for {embedding.shape[0]} embedding rows"
        )
    try:
        drugs = Vocabulary(names)
    except ValidationError as exc:
        raise ParseError(f"{path}: {exc}") from None
    ruleset = parse_rules(rules_path, drugs)
    fp, stored = ruleset.fingerprint(), str(doc["ruleset_fingerprint"])
    if fp != stored:
        raise FingerprintMismatch(
            f"{rules_path}: rule set fingerprint {fp} does not match encoder fingerprint "
            f"{stored} in {path}"
        )
    return EncoderModel(re, se, ruleset, file_sha256=sha256_file(path))
