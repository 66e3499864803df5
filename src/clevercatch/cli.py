"""Command line driver for the fraud-detection pipeline.

Eight subcommands cover the pipeline stages: simulate, featurize, pretrain,
pseudolabel, train, score, evaluate, and ablate. Every command reads its
settings from one INI configuration (optionally patched with repeated
--set section.key=value overrides), derives its stage seed from the root
--seed, and writes a <command>_manifest.json beside its outputs recording
input and output hashes, the configuration snapshot, and stage timings.

Input files resolve from [paths] in the configuration when present and
otherwise from the output directory under conventional names, so the
commands compose without a config file at all:

    clevercatch --out-dir run simulate
    clevercatch --out-dir run featurize
    clevercatch --out-dir run pretrain
    clevercatch --out-dir run train
    clevercatch --out-dir run score
    clevercatch --out-dir run evaluate

Anticipated failures (bad input files, incompatible artifacts, invalid
configuration) exit with status 1 and a single line on stderr of the form
``error: <Type>: <message>``.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, nn
from .config import ConfigError, RunConfig, load_config
from .detector import (
    hybrid_train,
    load_detector,
    pseudo_label_classifier,
    save_detector,
    score,
    write_pseudo_labels_csv,
)
from .encoders import load_encoders, pretrain, save_encoders
from .errors import CleverCatchError
from .evaluation import (
    MetricsRow,
    ablation_run,
    evaluate_scores,
    pr_curve,
    read_scores_csv,
    write_pr_curve_csv,
    write_report_csv,
    write_scores_csv,
)
from .features import build_feature_matrix, read_features_csv, write_features_csv
from .ingest import parse_claims_csv, parse_labels
from .manifest import RunManifest
from .rules import parse_rules
from .simulator import write_sim_data
from .vocab import Vocabulary

DEFAULT_NAMES = {
    "claims": "claims.csv",
    "rules": "rules.csv",
    "labels": "labels.csv",
    "features": "features.csv",
    "encoders": "encoders.json",
    "detector": "detector.json",
    "scores": "scores.csv",
}

THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def apply_thread_cap() -> None:
    """Export CLEVERCATCH_THREADS to the common numeric thread variables.

    Libraries that size their pools lazily pick the cap up from here; pools
    that were already started keep their size, so an externally exported
    OMP_NUM_THREADS remains the hard limit.
    """
    cap = os.environ.get("CLEVERCATCH_THREADS")
    if cap is None:
        return
    if not cap.isdigit() or int(cap) < 1:
        raise ConfigError(f"CLEVERCATCH_THREADS must be a positive integer, got {cap!r}")
    for var in THREAD_ENV_VARS:
        os.environ.setdefault(var, cap)


def _input_path(cfg: RunConfig, key: str, out_dir: Path) -> Path:
    """Resolve an input artifact: explicit [paths] entry, else the out dir."""
    if cfg.has_path(key):
        return cfg.path(key)
    candidate = out_dir / DEFAULT_NAMES[key]
    if not candidate.exists():
        raise ConfigError(
            f"no paths.{key} configured and {candidate} does not exist"
        )
    return candidate


def _output_path(cfg: RunConfig, key: str, out_dir: Path) -> Path:
    if cfg.has_path(key):
        path = cfg.path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        return path
    return out_dir / DEFAULT_NAMES[key]


def _load_claims_and_rules(cfg, out_dir, manifest):
    claims_path = _input_path(cfg, "claims", out_dir)
    rules_path = _input_path(cfg, "rules", out_dir)
    manifest.add_input("claims", claims_path)
    manifest.add_input("rules", rules_path)
    claims = parse_claims_csv(claims_path)
    ruleset = parse_rules(rules_path, claims.drugs)
    return claims, ruleset


def _load_features(cfg, out_dir, manifest):
    path = _input_path(cfg, "features", out_dir)
    manifest.add_input("features", path)
    return read_features_csv(path)


def _load_encoder_bundle(cfg, out_dir, manifest):
    """Encoders plus the rule set, bound to the encoders' drug names.

    A rule naming a drug the encoders have no embedding for fails to parse;
    claims.csv is not read.
    """
    encoders_path = _input_path(cfg, "encoders", out_dir)
    rules_path = _input_path(cfg, "rules", out_dir)
    manifest.add_input("encoders", encoders_path)
    manifest.add_input("rules", rules_path)
    encoders = load_encoders(encoders_path)
    return encoders, parse_rules(rules_path, encoders.drugs)


def cmd_simulate(cfg: RunConfig, root_seed: int, out_dir: Path, manifest: RunManifest):
    sim_cfg = dataclasses.replace(
        cfg.simulator, seed=nn.derive_seed(root_seed, "simulate")
    )
    manifest.start("simulate")
    data, paths = write_sim_data(sim_cfg, out_dir)
    manifest.stop("simulate")
    for name, path in paths.items():
        manifest.add_output(name, path)
    n_fraud = int(data.truth.labels.sum())
    print(
        f"simulate: {len(data.rows)} claim rows, "
        f"{len(data.truth.npis)} prescribers ({n_fraud} fraudulent), "
        f"{len(data.truth.rules)} rules -> {out_dir}"
    )


def cmd_featurize(cfg: RunConfig, root_seed: int, out_dir: Path, manifest: RunManifest):
    claims, ruleset = _load_claims_and_rules(cfg, out_dir, manifest)
    manifest.start("featurize")
    features = build_feature_matrix(claims, ruleset)
    manifest.stop("featurize")
    path = _output_path(cfg, "features", out_dir)
    write_features_csv(features, path)
    manifest.add_output("features", path)
    n, width = features.values.shape
    print(f"featurize: {n} prescribers x {width} features -> {path}")


def cmd_pretrain(cfg: RunConfig, root_seed: int, out_dir: Path, manifest: RunManifest):
    ruleset = _load_claims_and_rules(cfg, out_dir, manifest)[1]  # the claims table is not kept
    seed = nn.derive_seed(root_seed, "pretrain")
    manifest.start("pretrain")
    re_params, se_params, stats = pretrain(ruleset, cfg.pretrain, seed)
    manifest.stop("pretrain")
    path = _output_path(cfg, "encoders", out_dir)
    save_encoders(path, re_params, se_params, ruleset.fingerprint(), ruleset.vocab)
    manifest.add_output("encoders", path)
    last = stats[-1]
    print(
        f"pretrain: {len(stats)} epochs, final loss {last.mean_loss:.6f}, "
        f"holdout separation {last.holdout_separation:.3f} -> {path}"
    )


def cmd_pseudolabel(cfg: RunConfig, root_seed: int, out_dir: Path, manifest: RunManifest):
    features = _load_features(cfg, out_dir, manifest)
    encoders, ruleset = _load_encoder_bundle(cfg, out_dir, manifest)
    manifest.start("pseudolabel")
    report = pseudo_label_classifier(
        features.values, encoders, ruleset, cfg.alignment, cfg.evaluate.threshold
    )
    manifest.stop("pseudolabel")
    path = out_dir / "pseudo_labels.csv"
    write_pseudo_labels_csv(path, features.npis, report)
    manifest.add_output("pseudo_labels", path)
    flagged = int(report.predictions.sum())
    print(
        f"pseudolabel: {report.labels.size} prescribers, "
        f"{flagged} above threshold {cfg.evaluate.threshold} -> {path}"
    )


def cmd_train(cfg: RunConfig, root_seed: int, out_dir: Path, manifest: RunManifest):
    features = _load_features(cfg, out_dir, manifest)
    labels_path = _input_path(cfg, "labels", out_dir)
    manifest.add_input("labels", labels_path)
    labels = parse_labels(labels_path, Vocabulary(features.npis))
    encoders = ruleset = None
    if cfg.detector.lam > 0.0:
        encoders, ruleset = _load_encoder_bundle(cfg, out_dir, manifest)
    seed = nn.derive_seed(root_seed, "detector")
    manifest.start("train")
    model, stats = hybrid_train(
        features.values, labels, cfg.detector, seed, encoders, ruleset, cfg.alignment
    )
    manifest.stop("train")
    path = _output_path(cfg, "detector", out_dir)
    save_detector(path, model)
    manifest.add_output("detector", path)
    last = stats[-1]
    print(
        f"train: {labels.n_labeled} labeled of {features.values.shape[0]} prescribers, "
        f"lambda {cfg.detector.lam}, final losses "
        f"supervised {last.supervised_loss:.6f} alignment {last.alignment_loss:.6f} "
        f"-> {path}"
    )


def cmd_score(cfg: RunConfig, root_seed: int, out_dir: Path, manifest: RunManifest):
    features = _load_features(cfg, out_dir, manifest)
    detector_path = _input_path(cfg, "detector", out_dir)
    manifest.add_input("detector", detector_path)
    model = load_detector(detector_path)
    manifest.start("score")
    report = score(model, features.values)
    manifest.stop("score")
    path = _output_path(cfg, "scores", out_dir)
    write_scores_csv(path, list(features.npis), report.scores, report.ranks)
    manifest.add_output("scores", path)
    top = report.order[0]
    print(
        f"score: {report.scores.size} prescribers, top {features.npis[top]} "
        f"at {report.scores[top]:.6f} -> {path}"
    )


def _scores_for_evaluation(cfg, out_dir, manifest):
    """Scores plus the prescriber order they are reported in.

    A configured or previously written scores file wins; otherwise the
    detector is applied to the features in process.
    """
    scores_path = cfg.path("scores") if cfg.has_path("scores") else out_dir / DEFAULT_NAMES["scores"]
    if scores_path.exists():
        manifest.add_input("scores", scores_path)
        npis, scores = read_scores_csv(scores_path)
        return tuple(npis), scores
    features = _load_features(cfg, out_dir, manifest)
    detector_path = _input_path(cfg, "detector", out_dir)
    manifest.add_input("detector", detector_path)
    model = load_detector(detector_path)
    return features.npis, score(model, features.values).scores


def cmd_evaluate(cfg: RunConfig, root_seed: int, out_dir: Path, manifest: RunManifest):
    npis, scores = _scores_for_evaluation(cfg, out_dir, manifest)
    labels_path = _input_path(cfg, "labels", out_dir)
    manifest.add_input("labels", labels_path)
    labels = parse_labels(labels_path, Vocabulary(npis))
    y = labels.labels
    s = scores[labels.idx]
    manifest.start("evaluate")
    ks = tuple(k for k in cfg.evaluate.ks if k <= y.size)
    if not ks:
        raise CleverCatchError(
            f"all ks in {cfg.evaluate.ks} exceed the {y.size} labeled prescribers"
        )
    result = evaluate_scores(y, s, ks, cfg.evaluate.threshold)
    curve = pr_curve(y, s)
    manifest.stop("evaluate")
    report_path = out_dir / "report.csv"
    curve_path = out_dir / "pr_curve.csv"
    write_report_csv(report_path, [MetricsRow("run", root_seed, result)], ks)
    write_pr_curve_csv(curve_path, curve)
    manifest.add_output("report", report_path)
    manifest.add_output("pr_curve", curve_path)
    r_str = " ".join(f"r@{k} {result.r_at_k[k]:.4f}" for k in ks)
    print(
        f"evaluate: {y.size} labeled, pr_auc {result.pr_auc:.6f}, {r_str}, "
        f"f1 {result.f1:.4f} -> {report_path}"
    )


def cmd_ablate(cfg: RunConfig, root_seed: int, out_dir: Path, manifest: RunManifest):
    claims, ruleset = _load_claims_and_rules(cfg, out_dir, manifest)
    labels_path = _input_path(cfg, "labels", out_dir)
    manifest.add_input("labels", labels_path)
    labels = parse_labels(labels_path, claims.prescribers)
    seeds = cfg.ablation.seeds if cfg.ablation.seeds else (root_seed,)
    manifest.start("ablate")
    report = ablation_run(
        claims,
        labels,
        ruleset,
        pretrain_cfg=cfg.pretrain,
        align_cfg=cfg.alignment,
        detector_cfg=cfg.detector,
        seeds=seeds,
        ks=cfg.evaluate.ks,
        threshold=cfg.evaluate.threshold,
        eval_fraction=cfg.ablation.eval_fraction,
        groups=cfg.ablation.groups,
    )
    manifest.stop("ablate")
    path = out_dir / "ablation_report.csv"
    write_report_csv(path, report.rows, report.ks, report.deltas)
    manifest.add_output("ablation_report", path)
    for row in report.rows:
        k_max = report.ks[-1]
        print(
            f"ablate: {row.config} seed {row.seed}: pr_auc {row.result.pr_auc:.4f}, "
            f"r@{k_max} {row.result.r_at_k[k_max]:.4f}"
        )
    for note in report.notes:
        print(f"ablate: note: {note}")
    print(f"ablate: report -> {path}")


COMMANDS = {
    "simulate": (cmd_simulate, "generate synthetic claims, labels, and rules"),
    "featurize": (cmd_featurize, "build rule-contrast features from claims and rules"),
    "pretrain": (cmd_pretrain, "train the rule and sample encoders on synthetic triplets"),
    "pseudolabel": (cmd_pseudolabel, "emit transport-calibrated pseudo-labels"),
    "train": (cmd_train, "train the detector on labels plus pseudo-label alignment"),
    "score": (cmd_score, "score prescribers with a trained detector"),
    "evaluate": (cmd_evaluate, "compute ranking metrics against labels"),
    "ablate": (cmd_ablate, "retrain under rule subsets and report metric drops"),
}


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--config",
        default=argparse.SUPPRESS,
        metavar="FILE",
        help="INI run configuration (default: built-in defaults)",
    )
    shared.add_argument(
        "--seed",
        type=int,
        default=argparse.SUPPRESS,
        help="root seed; every stage derives its own from it (default: 0)",
    )
    shared.add_argument(
        "--out-dir",
        default=argparse.SUPPRESS,
        metavar="DIR",
        help="directory for outputs and default inputs (default: paths.out_dir or .)",
    )
    shared.add_argument(
        "--set",
        action="append",
        default=argparse.SUPPRESS,
        dest="overrides",
        metavar="SECTION.KEY=VALUE",
        help="override one configuration value (repeatable)",
    )
    parser = argparse.ArgumentParser(
        prog="clevercatch",
        description="knowledge-guided prescription fraud detection pipeline",
        parents=[shared],
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, (_, help_text) in COMMANDS.items():
        subparsers.add_parser(name, help=help_text, parents=[shared])
    return parser


def _single_line(text: str) -> str:
    return "; ".join(part for part in text.splitlines() if part.strip())


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        apply_thread_cap()
        cfg = load_config(
            getattr(args, "config", None), list(getattr(args, "overrides", []))
        )
        root_seed = int(getattr(args, "seed", 0))
        out_dir = getattr(args, "out_dir", None)
        if out_dir is None:
            out_dir = cfg.paths.get("out_dir", ".")
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        handler, _ = COMMANDS[args.command]
        manifest = RunManifest(args.command, root_seed, cfg)
        handler(cfg, root_seed, out_dir, manifest)
        manifest.write(out_dir / f"{args.command}_manifest.json")
    except (CleverCatchError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {_single_line(str(exc))}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
