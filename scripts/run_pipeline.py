"""End-to-end experiment on one simulated cohort.

Simulates a prescriber cohort with planted fraud, pretrains the encoders on
synthetic triplets, emits transport-calibrated pseudo-labels, then trains the
detector twice (hybrid objective and supervised-only) on half the labels and
compares ranking metrics on the held-out half.

Usage: python scripts/run_pipeline.py [--seed N] [--providers N] [--out DIR]
"""

import argparse
import dataclasses
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from clevercatch import nn
from clevercatch.alignment import AlignmentConfig
from clevercatch.detector import (
    DetectorConfig,
    hybrid_train,
    pseudo_label_classifier,
    score,
    write_pseudo_labels_csv,
)
from clevercatch.encoders import PretrainConfig, pretrain
from clevercatch.evaluation import (
    MetricsRow,
    evaluate_scores,
    pr_curve,
    split_labels,
    write_pr_curve_csv,
    write_report_csv,
    write_scores_csv,
)
from clevercatch.features import build_feature_matrix
from clevercatch.ingest import LabelTable, parse_claims_csv, parse_labels
from clevercatch.rules import parse_rules
from clevercatch.simulator import SimConfig, write_sim_data

# Pretraining operating point for simulated cohorts: a low band floor plus a
# wide margin keeps triplet gradients alive long enough for the embedding to
# grade rule distance by deviation magnitude instead of freezing early.
PRETRAIN = PretrainConfig(band_lo=0.05, margin=100.0)
EVAL_FRACTION = 0.5


def run(seed: int, providers: int, out_dir: Path) -> None:
    t0 = time.monotonic()
    sim_cfg = SimConfig(n_providers=providers, seed=nn.derive_seed(seed, "simulate"))
    data, paths = write_sim_data(sim_cfg, out_dir)
    claims = parse_claims_csv(paths["claims"])
    ruleset = parse_rules(paths["rules"], claims.drugs)
    labels = parse_labels(paths["labels"], claims.prescribers)
    print(
        f"cohort: {data.claim_rows} claim rows, {providers} prescribers, "
        f"{int(data.truth.labels.sum())} fraudulent, {len(ruleset.rules)} rules"
    )

    features = build_feature_matrix(claims, ruleset)
    print(f"features: {features.values.shape[0]} x {features.values.shape[1]}")

    encoders, stats = pretrain(ruleset, PRETRAIN, nn.derive_seed(seed, "pretrain"))
    print(
        f"pretrain: final loss {stats[-1].mean_loss:.4f}, "
        f"holdout separation {stats[-1].holdout_separation:.3f}"
    )

    align_cfg = AlignmentConfig()
    report = pseudo_label_classifier(features.values, encoders, align_cfg)
    write_pseudo_labels_csv(out_dir / "pseudo_labels.csv", features.npis, report)
    pseudo_ap = evaluate_scores(
        labels.labels, report.labels[labels.idx], ks=(100,)
    ).pr_auc
    print(f"pseudo-labels: average precision {pseudo_ap:.4f} before any training")

    train_labels, eval_labels = split_labels(
        labels, EVAL_FRACTION, nn.derive_seed(seed, "split")
    )
    rows = []
    for name, lam in (("hybrid", 0.5), ("supervised", 0.0)):
        cfg = DetectorConfig(lam=lam)
        model, _ = hybrid_train(
            features.values,
            train_labels,
            cfg,
            nn.derive_seed(seed, "detector"),
            encoders if lam > 0 else None,
            align_cfg,
        )
        scores = score(model, features.values).scores
        result = evaluate_scores(eval_labels.labels, scores[eval_labels.idx])
        rows.append(MetricsRow(name, seed, result))
        print(
            f"{name} (lambda={lam}): pr_auc {result.pr_auc:.4f}, "
            + ", ".join(f"r@{k} {v:.3f}" for k, v in result.r_at_k.items())
        )
        if name == "hybrid":
            full = score(model, features.values)
            write_scores_csv(
                out_dir / "scores.csv", list(features.npis), full.scores, full.ranks
            )
            write_pr_curve_csv(
                out_dir / "pr_curve.csv",
                pr_curve(eval_labels.labels, scores[eval_labels.idx]),
            )

    write_report_csv(out_dir / "report.csv", rows)
    lift = rows[0].result.r_at_k[100] - rows[1].result.r_at_k[100]
    print(f"alignment lift at r@100: {lift:+.3f}")
    print(f"artifacts -> {out_dir} ({time.monotonic() - t0:.1f}s)")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--providers", type=int, default=2000)
    parser.add_argument("--out", default="runs/pipeline")
    args = parser.parse_args()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    run(args.seed, args.providers, out_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
