"""Acceptance gate: ten numbered end-to-end checks over the whole pipeline.

Each check prints exactly one line of the form

    [C#] <what is checked>: PASS|FAIL (<measurements>)

directly to the terminal (bypassing pytest capture) and then asserts. The
checks cover: feature correctness against a brute-force oracle, analytic
gradients, transport-plan correctness, encoder pretraining quality,
pseudo-label ranking quality, the value of the alignment term, rule-group
ablations, exact metric arithmetic, the lambda = 0 reduction, and bitwise
reproducibility of the command line pipeline.
"""

import time
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import make_claims, random_claims, random_ruleset
from test_alignment import oracle_sinkhorn
from test_evaluation import brute_force_pr_auc
from test_features import brute_force_features
import oracles
from oracles import supervised_train

from clevercatch import nn
from clevercatch.alignment import AlignmentConfig, sinkhorn_stack
from clevercatch.cli import main as cli_main
from clevercatch.detector import (
    DetectorConfig,
    bce_with_grad,
    hybrid_train,
    init_detector,
    pseudo_label_classifier,
    score,
)
from clevercatch.encoders import (
    EncoderModel,
    PretrainConfig,
    pretrain,
)
from clevercatch.evaluation import (
    ablation_run,
    pr_auc,
    pr_curve,
    prf_at_threshold,
    recall_at_k,
    split_labels,
)
from clevercatch.features import build_feature_matrix
from clevercatch.ingest import parse_claims_csv, parse_labels
from clevercatch.rules import Rule, RuleSet, parse_rules
from clevercatch.simulator import SimConfig, write_sim_data
from clevercatch.vocab import Vocabulary

ROOTS = (0, 1, 2, 3, 4)

# Operating point for the simulated-claims experiments (C5-C7): a low band
# floor plus a wide margin keeps triplet gradients alive for every pair, so
# encoder distances grade rule deviation by magnitude instead of freezing
# as soon as the ordering is satisfied.
EXPERIMENT_PRETRAIN = PretrainConfig(band_lo=0.05, margin=100.0)


def verdict(capsys, cid: str, label: str, ok: bool, detail: str) -> None:
    line = f"[{cid}] {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


class Corpus:
    """Per-root simulated datasets and encoders, built lazily and cached."""

    def __init__(self, base_dir):
        self.base_dir = base_dir
        self._bundles: dict[int, SimpleNamespace] = {}
        self._encoders: dict[int, tuple[EncoderModel, float]] = {}

    def bundle(self, root: int) -> SimpleNamespace:
        if root not in self._bundles:
            cfg = SimConfig(seed=nn.derive_seed(root, "simulate"))
            _, paths = write_sim_data(cfg, self.base_dir / f"root{root}")
            claims = parse_claims_csv(paths["claims"])
            ruleset = parse_rules(paths["rules"], claims.drugs)
            features = build_feature_matrix(claims, ruleset)
            labels = parse_labels(paths["labels"], claims.prescribers)
            y, mask = labels.to_dense(claims.prescribers.size)
            assert mask.all()
            self._bundles[root] = SimpleNamespace(
                claims=claims, ruleset=ruleset, features=features, labels=labels, y=y
            )
        return self._bundles[root]

    def encoders(self, root: int) -> EncoderModel:
        if root not in self._encoders:
            b = self.bundle(root)
            model, stats = pretrain(
                b.ruleset, EXPERIMENT_PRETRAIN, nn.derive_seed(root, "pretrain")
            )
            self._encoders[root] = (model, stats[-1].holdout_separation)
        return self._encoders[root][0]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    return Corpus(tmp_path_factory.mktemp("acceptance"))


def test_c01_features_match_brute_force_oracle(capsys):
    start = time.perf_counter()
    rng = nn.make_rng(101)
    cases = []
    # Two handcrafted tables pin the edge cases: a single-year table whose
    # fill channel sums to zero, and a drug one prescriber never touches.
    zero_channel = make_claims(
        [
            ("N0", 2019, "A", 10, 0, 5, 0.0, 2),
            ("N0", 2019, "B", 30, 0, 15, 100.0, 6),
            ("N1", 2019, "B", 4, 0, 0, 8.0, 1),
        ]
    )
    cases.append(
        (
            zero_channel,
            RuleSet(
                [Rule("binary", "A", "B", 0.8), Rule("unary", "B", None, 0.5)],
                zero_channel.drugs,
            ),
        )
    )
    sparse = make_claims(
        [
            ("N0", 2019, "A", 5, 6, 30, 10.0, 2),
            ("N0", 2020, "B", 5, 6, 30, 10.0, 2),
            ("N1", 2020, "B", 9, 9, 90, 90.0, 3),
            ("N2", 2019, "C", 1, 1, 30, 5.0, 1),
        ]
    )
    cases.append(
        (sparse, RuleSet([Rule("binary", "A", "C", 1.0)], sparse.drugs))
    )
    for _ in range(18):
        claims = random_claims(
            rng,
            n_prescribers=int(rng.integers(2, 11)),
            n_drugs=int(rng.integers(2, 7)),
            n_years=int(rng.integers(1, 4)),
            density=float(rng.uniform(0.5, 0.95)),
        )
        cases.append((claims, random_ruleset(rng, claims.drugs, int(rng.integers(1, 6)))))

    max_err = 0.0
    for claims, ruleset in cases:
        got = build_feature_matrix(claims, ruleset).values
        want = brute_force_features(claims, ruleset)
        max_err = max(max_err, float(np.abs(got - want).max()))
    elapsed = time.perf_counter() - start
    ok = max_err < 1e-12 and elapsed < 5.0
    verdict(
        capsys,
        "C1",
        "rule-contrast features match the brute-force oracle",
        ok,
        f"{len(cases)} tables, max abs err {max_err:.2e}, {elapsed:.1f}s",
    )


def test_c02_analytic_gradients_match_finite_differences(capsys):
    start = time.perf_counter()
    rng = nn.make_rng(202)
    reports = []

    # (a) weighted triplet hinge w.r.t. all three embedding batches
    batch, latent = 8, 6
    shapes = [(batch, latent)] * 3
    weights = rng.uniform(0.05, 1.0, batch)
    margin = 0.5

    def triplet_loss_and_grad(theta):
        e_rule, e_pos, e_neg = oracles.unflatten_arrays(theta, shapes)
        loss, d_rule, d_pos, d_neg = oracles.triplet_batch_loss(
            e_rule, e_pos, e_neg, weights, margin
        )
        flat, _ = oracles.flatten_arrays([d_rule, d_pos, d_neg])
        return loss, flat

    theta0, _ = oracles.flatten_arrays([rng.normal(size=s) for s in shapes])
    reports.append(oracles.grad_check(triplet_loss_and_grad, theta0))

    # (b) supervised BCE w.r.t. the scores
    y_hard = (rng.random(120) < 0.5).astype(np.float64)

    def sup_loss_and_grad(s):
        return bce_with_grad(s, y_hard)

    reports.append(oracles.grad_check(sup_loss_and_grad, rng.uniform(0.05, 0.95, 120)))

    # (c) alignment BCE against soft pseudo-label targets
    y_soft = rng.uniform(0.05, 0.95, 120)

    def align_loss_and_grad(s):
        return bce_with_grad(s, y_soft)

    reports.append(oracles.grad_check(align_loss_and_grad, rng.uniform(0.05, 0.95, 120)))

    # (d) full hybrid objective through the detector network
    n, width, lam = 12, 8, 0.5
    x = rng.normal(size=(n, width))
    y = (rng.random(n) < 0.5).astype(np.float64)
    labeled = rng.random(n) < 0.6
    labeled[0] = True
    targets = rng.uniform(0.05, 0.95, n)
    mlp = init_detector(width, (10,), rng)
    param_shapes = [p.shape for p in mlp.parameters()]

    def hybrid_loss_and_grad(theta):
        for p, v in zip(mlp.parameters(), oracles.unflatten_arrays(theta, param_shapes)):
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

    theta_net, _ = oracles.flatten_arrays(mlp.parameters())
    reports.append(oracles.grad_check(hybrid_loss_and_grad, theta_net))

    elapsed = time.perf_counter() - start
    n_points = sum(r.n_coords for r in reports)
    worst = max(r.max_rel_err for r in reports)
    ok = (
        all(r.passed for r in reports)
        and all(r.n_coords >= 100 for r in reports)
        and elapsed < 60.0
    )
    verdict(
        capsys,
        "C2",
        "analytic gradients match central differences",
        ok,
        f"{n_points} points over 4 objectives (each >= 100), "
        f"max rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_c03_transport_plans_match_log_domain_oracle(capsys):
    start = time.perf_counter()
    rng = nn.make_rng(303)

    def marginal(size):
        m = rng.uniform(0.2, 1.0, size)
        return m / m.sum()

    max_marginal = max_oracle = 0.0
    all_converged = True
    for _ in range(50):
        n = int(rng.integers(2, 65))
        m = int(rng.integers(2, 33))
        cost = rng.uniform(0.0, 5.0, (n, m))
        a, b = marginal(n), marginal(m)
        epsilon = float(rng.uniform(0.05, 1.0))
        [plan], _, [converged] = sinkhorn_stack(
            cost[None], np.array([epsilon]), a=a, b=b, max_iters=20_000, tol=1e-9
        )
        all_converged &= bool(converged)
        max_marginal = max(
            max_marginal,
            float(np.abs(plan.sum(axis=1) - a).max()),
            float(np.abs(plan.sum(axis=0) - b).max()),
        )
        oracle = oracle_sinkhorn(cost, epsilon, a, b)
        max_oracle = max(max_oracle, float(np.abs(plan - oracle).max()))

    max_shift = 0.0
    for _ in range(10):
        cost = rng.uniform(0.0, 4.0, (12, 7))
        a, b = marginal(12), marginal(7)
        [base], _, _ = sinkhorn_stack(cost[None], np.array([0.3]), a=a, b=b, max_iters=20_000, tol=1e-11)
        [moved], _, _ = sinkhorn_stack(cost[None] + 2.5, np.array([0.3]), a=a, b=b, max_iters=20_000, tol=1e-11)
        max_shift = max(max_shift, float(np.abs(base - moved).max()))

    elapsed = time.perf_counter() - start
    ok = (
        all_converged
        and max_marginal < 1e-6
        and max_oracle < 1e-6
        and max_shift < 2e-6
        and elapsed < 30.0
    )
    verdict(
        capsys,
        "C3",
        "entropic transport plans match an independent fixed point",
        ok,
        f"50 problems <=64x32, marginal err {max_marginal:.2e}, "
        f"oracle err {max_oracle:.2e}, shift err {max_shift:.2e}, {elapsed:.1f}s",
    )


def test_c04_pretraining_separates_synthetic_triplets(capsys):
    start = time.perf_counter()
    vocab = Vocabulary(f"DRUG{i:02d}" for i in range(30))
    separations = []
    for seed in ROOTS:
        rng = nn.make_rng(nn.derive_seed(seed, "ruleset"))
        order = rng.permutation(vocab.size)
        w = rng.uniform(0.2, 1.0, 20)
        rules = [
            Rule("binary", vocab.names[order[2 * j]], vocab.names[order[2 * j + 1]], w[j])
            for j in range(12)
        ]
        rules += [
            Rule("unary", vocab.names[order[j]], None, w[12 + j]) for j in range(8)
        ]
        ruleset = RuleSet(rules, vocab)
        _, stats = pretrain(ruleset, PretrainConfig(), nn.derive_seed(seed, "pretrain"))
        separations.append(stats[-1].holdout_separation)
    elapsed = time.perf_counter() - start
    n_good = sum(s >= 0.90 for s in separations)
    ok = n_good == len(ROOTS) and elapsed < 120.0
    verdict(
        capsys,
        "C4",
        "pretrained encoders separate held-out triplets",
        ok,
        f"holdout separation {min(separations):.3f}..{max(separations):.3f} "
        f"over 20 mixed rules, {n_good}/5 seeds >= 0.90, {elapsed:.1f}s",
    )


def test_c05_pseudo_labels_beat_prevalence(capsys, corpus):
    aps = []
    slowest = 0.0
    for root in ROOTS:
        start = time.perf_counter()
        b = corpus.bundle(root)
        report = pseudo_label_classifier(
            b.features.values, corpus.encoders(root), AlignmentConfig(), 0.5
        )
        aps.append(pr_auc(b.y, report.labels))
        slowest = max(slowest, time.perf_counter() - start)
    n_good = sum(ap >= 0.10 for ap in aps)
    ok = n_good >= 4 and slowest < 180.0
    verdict(
        capsys,
        "C5",
        "label-free pseudo-labels rank fraud above prevalence",
        ok,
        f"pr_auc {min(aps):.3f}..{max(aps):.3f} at prevalence 0.05, "
        f"{n_good}/5 seeds >= 0.10, slowest seed {slowest:.1f}s",
    )


def test_c06_alignment_term_helps_recall(capsys, corpus):
    wins = 0
    pairs = []
    slowest = 0.0
    for root in ROOTS:
        start = time.perf_counter()
        b = corpus.bundle(root)
        train_t, eval_t = split_labels(b.labels, 0.5, nn.derive_seed(root, "split"))
        seed = nn.derive_seed(root, "detector")
        hybrid, _ = hybrid_train(
            b.features.values,
            train_t,
            DetectorConfig(lam=0.5),
            seed,
            corpus.encoders(root),
            AlignmentConfig(),
        )
        plain, _ = hybrid_train(
            b.features.values, train_t, DetectorConfig(lam=0.0), seed
        )
        y_eval = eval_t.labels
        r_hybrid = recall_at_k(
            y_eval, score(hybrid, b.features.values).scores[eval_t.idx], 100
        )
        r_plain = recall_at_k(
            y_eval, score(plain, b.features.values).scores[eval_t.idx], 100
        )
        wins += r_hybrid >= r_plain
        pairs.append((r_hybrid, r_plain))
        slowest = max(slowest, time.perf_counter() - start)
    ok = wins >= 4 and slowest < 300.0
    detail_pairs = " ".join(f"{h:.2f}/{p:.2f}" for h, p in pairs)
    verdict(
        capsys,
        "C6",
        "alignment term does not hurt top-100 recall",
        ok,
        f"hybrid/plain r@100 per seed: {detail_pairs}, "
        f"{wins}/5 wins, slowest seed {slowest:.1f}s",
    )


def test_c07_dropping_cost_rules_hurts_more(capsys, corpus):
    start = time.perf_counter()
    wins = 0
    drops = []
    for root in ROOTS:
        b = corpus.bundle(root)
        report = ablation_run(
            b.claims,
            b.labels,
            b.ruleset,
            pretrain_cfg=EXPERIMENT_PRETRAIN,
            align_cfg=AlignmentConfig(),
            detector_cfg=DetectorConfig(),
            seeds=(root,),
            ks=(100,),
            eval_fraction=0.5,
        )
        full = next(row.result.r_at_k[100] for row in report.rows if row.config == "full")
        by_config = {row.config: full - row.result.r_at_k[100] for row in report.rows}
        drops.append((by_config["minus-cost"], by_config["minus-opioid"]))
        wins += by_config["minus-cost"] > by_config["minus-opioid"]
    elapsed = time.perf_counter() - start
    ok = wins >= 4 and elapsed < 900.0
    detail = " ".join(f"{c:+.2f}/{o:+.2f}" for c, o in drops)
    verdict(
        capsys,
        "C7",
        "removing cost rules costs more top-100 recall than removing opioid rules",
        ok,
        f"cost/opioid r@100 drop per seed: {detail}, {wins}/5 wins, {elapsed:.1f}s",
    )


def test_c08_metric_arithmetic_is_exact(capsys):
    start = time.perf_counter()
    import itertools

    rng = nn.make_rng(808)
    vectors = [rng.uniform(-1.0, 1.0, 5) for _ in range(2)]
    vectors.append(np.array([0.4, 0.1, 0.4, 0.9, 0.1]))  # forces tie blocks
    exact = True
    n_checked = 0
    for pattern in itertools.product((0, 1), repeat=5):
        y = np.array(pattern)
        for s in vectors:
            # Precision/recall/F1 at a strict threshold, including one set
            # exactly on a score so the strictness is observable.
            for threshold in (0.0, float(s[2])):
                flagged = [i for i in range(5) if s[i] > threshold]
                tp = sum(1 for i in flagged if pattern[i] == 1)
                want_p = tp / len(flagged) if flagged else 0.0
                want_r = tp / sum(pattern) if sum(pattern) else 0.0
                want_f = (
                    2 * want_p * want_r / (want_p + want_r) if want_p + want_r else 0.0
                )
                got = prf_at_threshold(y, s, threshold)
                exact &= got == {"precision": want_p, "recall": want_r, "f1": want_f}
            if sum(pattern) == 0:
                continue
            exact &= pr_auc(y, s) == brute_force_pr_auc(pattern, s)
            order = sorted(range(5), key=lambda i: (-s[i], i))
            for k in (1, 3, 5):
                want = sum(1 for i in order[:k] if pattern[i] == 1) / sum(pattern)
                exact &= recall_at_k(y, s, k) == want
            n_checked += 1
    # All-tied scores collapse to a single block at the prevalence.
    exact &= pr_auc([1, 0, 0, 1], np.full(4, 0.3)) == 0.5

    scores = rng.uniform(-2.0, 2.0, 200)
    labels = (rng.random(200) < 0.2).astype(int)
    labels[0] = 1
    cubed = scores**3
    exact &= np.unique(cubed).size == np.unique(scores).size
    exact &= pr_auc(labels, cubed) == pr_auc(labels, scores)
    exact &= all(
        recall_at_k(labels, cubed, k) == recall_at_k(labels, scores, k)
        for k in (10, 100)
    )
    base, moved = pr_curve(labels, scores), pr_curve(labels, cubed)
    exact &= bool(
        np.array_equal(base.precisions, moved.precisions)
        and np.array_equal(base.recalls, moved.recalls)
    )
    elapsed = time.perf_counter() - start
    ok = exact and elapsed < 5.0
    verdict(
        capsys,
        "C8",
        "ranking metrics are exact and rank-invariant",
        ok,
        f"{n_checked} label patterns x score vectors, cube-transform exact, {elapsed:.1f}s",
    )


def test_c09_lambda_zero_reduces_to_supervised_bitwise(capsys):
    start = time.perf_counter()
    rng = nn.make_rng(909)
    features = rng.normal(size=(200, 30))
    idx = np.sort(rng.choice(200, size=120, replace=False)).astype(np.int64)
    y = (rng.random(120) < 0.3).astype(np.int64)
    y[0], y[1] = 1, 0
    from clevercatch.ingest import LabelTable

    labels = LabelTable(idx, y)
    cfg = DetectorConfig(hidden=(16, 8), lam=0.0, epochs=10)
    hybrid, _ = hybrid_train(features, labels, cfg, seed=4)
    plain, _ = supervised_train(features, labels, cfg, seed=4)
    identical = all(
        np.array_equal(a, b)
        for a, b in zip(hybrid.mlp.parameters(), plain.mlp.parameters())
    )
    identical &= np.array_equal(
        score(hybrid, features).scores, score(plain, features).scores
    )
    elapsed = time.perf_counter() - start
    ok = identical and elapsed < 30.0
    verdict(
        capsys,
        "C9",
        "lambda = 0 training is bitwise identical to the supervised loop",
        ok,
        f"all weight arrays and scores identical, {elapsed:.1f}s",
    )


def test_c10_cli_pipeline_is_bitwise_reproducible(capsys, tmp_path):
    start = time.perf_counter()
    overrides = [
        "--set", "simulator.n_providers=200",
        "--set", "simulator.fraud_rate=0.1",
        "--set", "pretrain.triplet_count=2000",
        "--set", "pretrain.epochs=10",
        "--set", "pretrain.latent_dim=16",
        "--set", "pretrain.index_dim=8",
        "--set", "pretrain.re_hidden=32",
        "--set", "pretrain.se_hidden=64,32",
        "--set", "detector.epochs=10",
        "--set", "evaluate.ks=10,50",
        "--set", "ablation.eval_fraction=0.5",
    ]
    commands = (
        "simulate",
        "featurize",
        "pretrain",
        "pseudolabel",
        "train",
        "score",
        "evaluate",
        "ablate",
    )
    for name in ("a", "b"):
        out = tmp_path / name
        for command in commands:
            argv = ["--seed", "11", "--out-dir", str(out), *overrides, command]
            assert cli_main(argv) == 0, f"{command} failed in {name}"

    def files(root):
        return {
            str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file() and not p.name.endswith("_manifest.json")
        }

    a, b = files(tmp_path / "a"), files(tmp_path / "b")
    identical = a.keys() == b.keys() and all(a[k] == b[k] for k in a)
    elapsed = time.perf_counter() - start
    ok = identical and len(a) >= 12 and elapsed < 600.0
    verdict(
        capsys,
        "C10",
        "two CLI pipeline runs produce byte-identical artifacts",
        ok,
        f"{len(a)} files compared across 8 commands, {elapsed:.1f}s",
    )
