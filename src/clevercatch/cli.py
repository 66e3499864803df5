"""Command line driver for the fraud-detection pipeline.

Eight subcommands cover the pipeline stages: simulate, featurize, pretrain,
pseudolabel, train, score, evaluate, and ablate. Every command reads its
settings from one INI configuration (optionally patched with repeated
--set section.key=value overrides), derives its stage seed from the root
--seed, and writes a <command>_manifest.json beside its outputs recording
input and output hashes, the configuration snapshot, library versions, and the
command's wall time from the entry of main to the manifest write. Timings vary
between runs, so manifests are not part of the byte-identical rerun contract
that model files and CSVs obey.

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
import logging
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from logging.handlers import MemoryHandler
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
from .errors import CleverCatchError, ValidationError
from .evaluation import (
    MetricsRow,
    ablation_run,
    evaluable_ks,
    evaluate_scores,
    pr_curve,
    read_scores_csv,
    write_pr_curve_csv,
    write_report_csv,
    write_scores_csv,
)
from .features import build_feature_matrix, read_features_csv, write_features_csv
from .ingest import parse_claims_csv, parse_labels
from .io_utils import atomic_write_text, dumps_canonical, sha256_file
from .rules import parse_rules
from .simulator import write_sim_data
from .vocab import Vocabulary

# Keys outside config.PATH_KEYS cannot be configured and always land in the
# output directory.
DEFAULT_NAMES = {
    "claims": "claims.csv",
    "rules": "rules.csv",
    "labels": "labels.csv",
    "features": "features.csv",
    "encoders": "encoders.json",
    "detector": "detector.json",
    "scores": "scores.csv",
    "pseudo_labels": "pseudo_labels.csv",
    "report": "report.csv",
    "pr_curve": "pr_curve.csv",
    "ablation_report": "ablation_report.csv",
}


@dataclass
class Run:
    """One command invocation: its settings, the files it names, and its manifest.

    Handlers ask for files by key. An input is hashed when it is asked for; an
    output is recorded, and write_manifest hashes it once the handler has
    written it.
    """

    command: str
    cfg: RunConfig
    seed: int
    out_dir: Path
    inputs: dict[str, dict] = field(default_factory=dict)
    outputs: dict[str, Path] = field(default_factory=dict)

    def path(self, key: str) -> Path:
        """The [paths] entry for key, else its conventional name in the out dir."""
        if self.cfg.has_path(key):
            return self.cfg.path(key)
        return self.out_dir / DEFAULT_NAMES[key]

    def input(self, key: str) -> Path:
        path = self.path(key)
        if not self.cfg.has_path(key) and not path.exists():
            raise ConfigError(f"no paths.{key} configured and {path} does not exist")
        self.inputs[key] = _file_record(path)
        return path

    def output(self, key: str) -> Path:
        path = self.path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        self.outputs[key] = path
        return path

    def write_manifest(self, started: float) -> None:
        """Hash the outputs, then write <command>_manifest.json with the wall
        time from started to the last hash."""
        outputs = {key: _file_record(path) for key, path in self.outputs.items()}
        doc = {
            "command": self.command,
            "seed": self.seed,
            "versions": {"clevercatch": __version__, "numpy": np.__version__},
            "config": asdict(self.cfg),
            "inputs": self.inputs,
            "outputs": outputs,
            "timings_seconds": {self.command: round(time.monotonic() - started, 6)},
        }
        path = self.out_dir / f"{self.command}_manifest.json"
        atomic_write_text(path, dumps_canonical(doc) + "\n")


def _file_record(path: Path) -> dict[str, str]:
    return {"path": str(path), "sha256": sha256_file(path)}


def _load_claims_and_rules(run: Run):
    claims_path, rules_path = run.input("claims"), run.input("rules")
    claims = parse_claims_csv(claims_path)
    return claims, parse_rules(rules_path, claims.drugs)


def cmd_simulate(run: Run):
    sim_cfg = replace(run.cfg.simulator, seed=nn.derive_seed(run.seed, "simulate"))
    run.cfg = replace(run.cfg, simulator=sim_cfg)  # the manifest records the seed used
    data, paths = write_sim_data(sim_cfg, run.out_dir)
    run.outputs.update(paths)
    n_fraud = int(data.truth.labels.sum())
    print(
        f"simulate: {data.claim_rows} claim rows, "
        f"{len(data.truth.npis)} prescribers ({n_fraud} fraudulent), "
        f"{len(data.truth.rules)} rules -> {run.out_dir}"
    )


def cmd_featurize(run: Run):
    claims, ruleset = _load_claims_and_rules(run)
    features = build_feature_matrix(claims, ruleset)
    del claims  # the table is dead before the features go out
    path = run.output("features")
    write_features_csv(features, path)
    n, width = features.values.shape
    print(f"featurize: {n} prescribers x {width} features -> {path}")


def cmd_pretrain(run: Run):
    ruleset = _load_claims_and_rules(run)[1]  # the claims table is not kept
    encoders, stats = pretrain(ruleset, run.cfg.pretrain, nn.derive_seed(run.seed, "pretrain"))
    path = run.output("encoders")
    save_encoders(path, encoders)
    last, ran = stats[-1], [s for s in stats if s.ran]
    batches = sum(s.batches for s in ran)
    print(
        f"pretrain: {len(ran)} of {len(stats)} epochs run, final loss {last.mean_loss:.6f}, "
        f"holdout separation {last.holdout_separation:.3f}, backward skipped on "
        f"{sum(s.zero_grad_batches for s in ran)} of {batches} batches, forward skipped on "
        f"{sum(s.batches for s in ran if s.forward_skipped)} of {batches} batches -> {path}"
    )


def cmd_pseudolabel(run: Run):
    cfg = run.cfg
    features = read_features_csv(run.input("features"))
    encoders = load_encoders(run.input("encoders"), run.input("rules"))
    report = pseudo_label_classifier(
        features.values, encoders, cfg.alignment, cfg.evaluate.threshold
    )
    path = run.output("pseudo_labels")
    write_pseudo_labels_csv(path, features.npis, report)
    flagged = int(report.predictions.sum())
    print(
        f"pseudolabel: {report.labels.size} prescribers, "
        f"{flagged} above threshold {cfg.evaluate.threshold} -> {path}"
    )


def cmd_train(run: Run):
    cfg = run.cfg
    features = read_features_csv(run.input("features"))
    labels = parse_labels(run.input("labels"), Vocabulary(features.npis))
    encoders = None
    if cfg.detector.lam > 0.0:
        encoders = load_encoders(run.input("encoders"), run.input("rules"))
    model, stats = hybrid_train(
        features.values, labels, cfg.detector, nn.derive_seed(run.seed, "detector"),
        encoders, cfg.alignment,
    )
    path = run.output("detector")
    save_detector(path, model)
    last = stats[-1]
    print(
        f"train: {labels.n_labeled} labeled ({int(labels.labels.sum())} positive) "
        f"of {features.values.shape[0]} prescribers, "
        f"lambda {cfg.detector.lam}, final losses "
        f"supervised {last.supervised_loss:.6f} alignment {last.alignment_loss:.6f} "
        f"-> {path}"
    )


def cmd_score(run: Run):
    features = read_features_csv(run.input("features"))
    report = score(load_detector(run.input("detector")), features.values)
    path = run.output("scores")
    write_scores_csv(path, list(features.npis), report.scores, report.ranks)
    top = report.order[0]
    print(
        f"score: {report.scores.size} prescribers, top {features.npis[top]} "
        f"at {report.scores[top]:.6f} -> {path}"
    )


def cmd_evaluate(run: Run):
    cfg = run.cfg
    npis, scores = read_scores_csv(run.input("scores"))
    labels_path = run.input("labels")
    labels = parse_labels(labels_path, Vocabulary(npis))
    if labels.n_labeled == 0:
        raise ValidationError(f"{labels_path}: no label names a scored prescriber")
    y = labels.labels
    s = scores[labels.idx]
    ks = evaluable_ks(cfg.evaluate.ks, y.size)
    result = evaluate_scores(y, s, ks, cfg.evaluate.threshold)
    curve = pr_curve(y, s)
    report_path = run.output("report")
    write_report_csv(report_path, [MetricsRow("run", run.seed, result)], ks)
    write_pr_curve_csv(run.output("pr_curve"), curve)
    r_str = " ".join(f"r@{k} {result.r_at_k[k]:.4f}" for k in ks)
    print(
        f"evaluate: {y.size} labeled, {labels.n_skipped} skipped as unscored, "
        f"pr_auc {result.pr_auc:.6f}, {r_str}, "
        f"f1 {result.f1:.4f} -> {report_path}"
    )


def cmd_ablate(run: Run):
    cfg = run.cfg
    claims, ruleset = _load_claims_and_rules(run)
    labels = parse_labels(run.input("labels"), claims.prescribers)
    report = ablation_run(
        claims,
        labels,
        ruleset,
        pretrain_cfg=cfg.pretrain,
        align_cfg=cfg.alignment,
        detector_cfg=cfg.detector,
        seeds=cfg.ablation.seeds or (run.seed,),
        ks=cfg.evaluate.ks,
        threshold=cfg.evaluate.threshold,
        eval_fraction=cfg.ablation.eval_fraction,
        groups=cfg.ablation.groups,
    )
    path = run.output("ablation_report")
    write_report_csv(path, report.rows, report.ks)
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
    started = time.monotonic()
    args = build_parser().parse_args(argv)
    # the package's log records wait for the outcome: a finished command hands them to the
    # root logger, and a failed one drops them, so its error line is all of its stderr
    package_log = logging.getLogger("clevercatch")
    held = MemoryHandler(sys.maxsize, logging.CRITICAL + 1, logging.getLogger(), flushOnClose=False)
    package_log.addHandler(held)
    package_log.propagate = False
    try:
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
        run = Run(args.command, cfg, root_seed, out_dir)
        handler(run)
        run.write_manifest(started)
        held.flush()
    except (CleverCatchError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {_single_line(str(exc))}", file=sys.stderr)
        return 1
    finally:
        package_log.removeHandler(held)
        package_log.propagate = True
        held.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
