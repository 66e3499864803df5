"""Rule and sample encoders pretrained on synthetic rule-contrast triplets.

The rule encoder maps a rule to a latent vector by concatenating learnable
index embeddings for its drugs (a shared null embedding stands in for the
missing side of unary rules) and passing them through an MLP. The sample
encoder maps a 15R rule-contrast vector into the same latent space. Both are
pretrained with a weighted triplet loss on synthetic contrast vectors whose
rule block is strictly positive (satisfying) or strictly negative (violating),
alternating epochs between the two encoders.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import nn
from .errors import NumericError, ParseError, ValidationError
from .features import BLOCK
from .io_utils import atomic_write_text, dumps_canonical, sha256_file
from .rules import RuleSet
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
        if self.latent_dim < 1 or self.index_dim < 1:
            raise ValidationError("encoder dimensions must be positive")
        if self.margin < 0:
            raise ValidationError("margin must be non-negative")
        if not 0.0 <= self.holdout_fraction < 1.0:
            raise ValidationError("holdout fraction must lie in [0, 1)")
        if self.batch_size < 1 or self.epochs < 0 or self.triplet_count < 1:
            raise ValidationError("batch size and triplet count must be positive, epochs >= 0")
        if not 0.0 < self.band_lo < self.band_hi <= 1.0:
            raise ValidationError(
                f"band must satisfy 0 < lo < hi <= 1, got ({self.band_lo}, {self.band_hi})"
            )
        if self.learning_rate <= 0:
            raise ValidationError("learning rate must be positive")
        if self.noise_sigma < 0:
            raise ValidationError("noise sigma must be non-negative")


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
class SampleEncoderParams:
    mlp: nn.Mlp  # 15R -> ... -> L

    def parameters(self) -> list[np.ndarray]:
        return self.mlp.parameters()

    def parameter_names(self) -> list[str]:
        return [f"mlp.{n}" for n in self.mlp.parameter_names()]

    @property
    def feature_dim(self) -> int:
        return self.mlp.input_dim

    @property
    def latent_dim(self) -> int:
        return self.mlp.output_dim


def init_encoders(
    n_drugs: int, feature_dim: int, cfg: PretrainConfig, rng: np.random.Generator
) -> tuple[RuleEncoderParams, SampleEncoderParams]:
    """Fresh encoder parameters; draw order is fixed for determinism."""
    if n_drugs < 1 or feature_dim < 1:
        raise ValidationError("need at least one drug and one feature column")
    embedding = nn.he_uniform(rng, cfg.index_dim, (n_drugs, cfg.index_dim))
    e_null = nn.he_uniform(rng, cfg.index_dim, (cfg.index_dim,))
    re_dims = [2 * cfg.index_dim, *cfg.re_hidden, cfg.latent_dim]
    re_mlp = nn.init_mlp(re_dims, ["relu"] * len(cfg.re_hidden) + ["identity"], rng)
    se_dims = [feature_dim, *cfg.se_hidden, cfg.latent_dim]
    se_mlp = nn.init_mlp(se_dims, ["relu"] * len(cfg.se_hidden) + ["identity"], rng)
    return RuleEncoderParams(embedding, e_null, re_mlp), SampleEncoderParams(se_mlp)


def _rule_inputs(re: RuleEncoderParams, p_idx: np.ndarray, q_idx: np.ndarray) -> np.ndarray:
    left = re.embedding[p_idx]
    right = np.where((q_idx >= 0)[:, None], re.embedding[np.maximum(q_idx, 0)], re.e_null)
    return np.concatenate([left, right], axis=1)


def rule_encode(re: RuleEncoderParams, ruleset: RuleSet) -> np.ndarray:
    """Latent embeddings for every rule in the set, shape (R, L)."""
    out, _ = nn.mlp_forward(re.mlp, _rule_inputs(re, ruleset.p_idx, ruleset.q_idx))
    return out


def _rule_encode_fwd(re: RuleEncoderParams, p_idx: np.ndarray, q_idx: np.ndarray):
    return nn.mlp_forward(re.mlp, _rule_inputs(re, p_idx, q_idx))


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


def sample_encode(se: SampleEncoderParams, deltas: np.ndarray) -> np.ndarray:
    """Latent embeddings for a batch of contrast vectors, shape (B, L)."""
    out, _ = nn.mlp_forward(se.mlp, deltas)
    return out


@dataclass
class TripletBatch:
    """Synthetic triplets stored columnwise: rule index, satisfying and violating contrasts."""

    rule_idx: np.ndarray  # (n,) int64
    pos: np.ndarray  # (n, 15R)
    neg: np.ndarray  # (n, 15R)

    def __len__(self) -> int:
        return int(self.rule_idx.size)

    def take(self, idx: np.ndarray) -> "TripletBatch":
        return TripletBatch(self.rule_idx[idx], self.pos[idx], self.neg[idx])


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
    pos = np.clip(rng.normal(0.0, noise_sigma, (count, width)), -1.0, 1.0)
    neg = np.clip(rng.normal(0.0, noise_sigma, (count, width)), -1.0, 1.0)
    rows = np.arange(count)[:, None]
    cols = rule_idx[:, None] * BLOCK + np.arange(BLOCK)[None, :]
    pos[rows, cols] = rng.uniform(lo, hi, (count, 1))
    neg[rows, cols] = rng.uniform(-hi, -lo, (count, 1))
    return TripletBatch(rule_idx=rule_idx.astype(np.int64), pos=pos, neg=neg)


def _triplet_batch_loss(
    e_rule: np.ndarray,
    e_pos: np.ndarray,
    e_neg: np.ndarray,
    weights: np.ndarray,
    margin: float,
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Mean weighted hinge plus gradients w.r.t. the three embedding batches."""
    diff_pos = e_pos - e_rule
    diff_neg = e_neg - e_rule
    d_pos = (diff_pos**2).sum(axis=1)
    d_neg = (diff_neg**2).sum(axis=1)
    hinge = d_pos - d_neg + margin
    active = hinge > 0.0
    loss = float((weights * np.maximum(hinge, 0.0)).mean())
    coef = (weights * active) / weights.size
    d_e_pos = 2.0 * coef[:, None] * diff_pos
    d_e_neg = -2.0 * coef[:, None] * diff_neg
    d_e_rule = 2.0 * coef[:, None] * (e_neg - e_pos)
    return loss, d_e_rule, d_e_pos, d_e_neg


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


def pretrain(
    ruleset: RuleSet, cfg: PretrainConfig, seed: int
) -> tuple[RuleEncoderParams, SampleEncoderParams, list[EpochStats]]:
    """Alternating triplet pretraining: even epochs update the sample encoder,
    odd epochs the rule encoder (0-based). Triplets are drawn once per run and
    a holdout slice tracks separation.
    """
    rng = nn.make_rng(seed)
    re, se = init_encoders(ruleset.vocab.size, BLOCK * len(ruleset), cfg, rng)
    triplets = gen_synthetic_triplets(
        ruleset, cfg.triplet_count, cfg.noise_sigma, (cfg.band_lo, cfg.band_hi), rng,
        weight_floor=cfg.weight_floor,
    )
    perm = rng.permutation(len(triplets))
    n_hold = int(round(cfg.holdout_fraction * len(triplets)))
    holdout = triplets.take(perm[:n_hold])
    train = triplets.take(perm[n_hold:])
    del triplets  # train and holdout are copies; the unsplit draw is dead
    if len(train) == 0:
        raise ValidationError("holdout fraction leaves no training triplets")
    re_opt, se_opt = nn.adam(cfg.learning_rate), nn.adam(cfg.learning_rate)
    re_names, se_names = re.parameter_names(), se.parameter_names()
    # a zero output gradient backpropagates to +/-0 only, and Adam's first moment
    # (from +0) takes the same bits from +0 as from -0, so these stand in for it
    re_zero = [np.zeros_like(p) for p in re.parameters()]
    se_zero = [np.zeros_like(p) for p in se.parameters()]
    history: list[EpochStats] = []
    for epoch in range(cfg.epochs):
        phase = "se" if epoch % 2 == 0 else "re"
        order = rng.permutation(len(train))
        losses: list[float] = []
        n_zero = 0
        for start in range(0, len(train), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            rule_ids = train.rule_idx[idx]
            e_rule, re_cache = _rule_encode_fwd(re, ruleset.p_idx[rule_ids], ruleset.q_idx[rule_ids])
            e_pos, pos_cache = nn.mlp_forward(se.mlp, train.pos[idx])
            e_neg, neg_cache = nn.mlp_forward(se.mlp, train.neg[idx])
            loss, d_rule, d_pos, d_neg = _triplet_batch_loss(
                e_rule, e_pos, e_neg, ruleset.weights[rule_ids], cfg.margin
            )
            if not np.isfinite(loss):
                raise NumericError(f"triplet loss diverged at epoch {epoch}")
            losses.append(loss)
            zero = not (d_rule.any() or d_pos.any() or d_neg.any())
            n_zero += zero
            if phase == "se":
                if zero:
                    grads = se_zero
                else:
                    grads_pos, _ = nn.mlp_backward(se.mlp, pos_cache, d_pos)
                    grads_neg, _ = nn.mlp_backward(se.mlp, neg_cache, d_neg)
                    grads = [gp + gn for gp, gn in zip(grads_pos, grads_neg)]
                nn.optimizer_step(se_opt, se.parameters(), grads, se_names)
            else:
                grads = re_zero if zero else _rule_encode_bwd(
                    re, ruleset.p_idx[rule_ids], ruleset.q_idx[rule_ids], re_cache, d_rule
                )
                nn.optimizer_step(re_opt, re.parameters(), grads, re_names)
        if phase == "se":  # an "re" epoch leaves the sample encoder as it was
            hold_pos, hold_neg = sample_encode(se, holdout.pos), sample_encode(se, holdout.neg)
        e_hold = rule_encode(re, ruleset)[holdout.rule_idx]
        sep = _separation(e_hold, hold_pos, hold_neg) if len(holdout) else float("nan")
        history.append(EpochStats(epoch, phase, float(np.mean(losses)), sep, len(losses), n_zero))
    return re, se, history


@dataclass
class EncoderModel:
    """Loaded encoder pair plus the binding metadata stored alongside it."""

    re: RuleEncoderParams
    se: SampleEncoderParams
    ruleset_fingerprint: str
    drugs: Vocabulary  # the drug each embedding row belongs to
    file_sha256: str = ""

    @property
    def feature_dim(self) -> int:
        return self.se.feature_dim


def save_encoders(
    path,
    re: RuleEncoderParams,
    se: SampleEncoderParams,
    ruleset_fingerprint: str,
    drugs: Vocabulary,
) -> None:
    """Write the encoder pair as a single JSON document with fixed key order.

    drugs names the drug of each embedding row, so a reader binds rules to
    the embeddings by name rather than by position in some claims file.
    """
    doc = {
        "format_version": ENCODER_FORMAT_VERSION,
        "L": re.latent_dim,
        "d": re.index_dim,
        "ruleset_fingerprint": ruleset_fingerprint,
        "drugs": list(drugs.names),
        "re_weights": {"embedding": re.embedding, "mlp": nn.mlp_to_json(re.mlp)},
        "e_null": re.e_null,
        "se_weights": {"mlp": nn.mlp_to_json(se.mlp)},
    }
    atomic_write_text(path, dumps_canonical(doc) + "\n")


def load_encoders(path) -> EncoderModel:
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a JSON object")
    if doc.get("format_version") != ENCODER_FORMAT_VERSION:
        raise ParseError(f"{path}: unsupported format version {doc.get('format_version')!r}")
    expected = [
        "format_version", "L", "d", "ruleset_fingerprint", "drugs", "re_weights", "e_null", "se_weights"
    ]
    if list(doc.keys()) != expected:
        raise ParseError(f"{path}: expected encoder model keys {expected}")
    embedding = np.asarray(doc["re_weights"]["embedding"], dtype=np.float64)
    e_null = np.asarray(doc["e_null"], dtype=np.float64)
    if embedding.ndim != 2 or e_null.shape != (embedding.shape[1],):
        raise ParseError(f"{path}: embedding table and null embedding widths disagree")
    if not (np.all(np.isfinite(embedding)) and np.all(np.isfinite(e_null))):
        raise ParseError(f"{path}: non-finite embedding entries")
    re = RuleEncoderParams(embedding, e_null, nn.mlp_from_json(doc["re_weights"]["mlp"], str(path)))
    se = SampleEncoderParams(nn.mlp_from_json(doc["se_weights"]["mlp"], str(path)))
    if re.mlp.input_dim != 2 * embedding.shape[1]:
        raise ParseError(f"{path}: rule network width does not match twice the index width")
    if int(doc["L"]) != re.latent_dim or int(doc["L"]) != se.latent_dim:
        raise ParseError(f"{path}: latent width does not match stored networks")
    if int(doc["d"]) != embedding.shape[1]:
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
    return EncoderModel(
        re=re,
        se=se,
        ruleset_fingerprint=str(doc["ruleset_fingerprint"]),
        drugs=drugs,
        file_sha256=sha256_file(path),
    )
