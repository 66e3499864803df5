"""Per-layer tracing of one clevercatch CLI command, from outside the library.

The tracer replaces each traced library function at every module attribute
that binds it (``cli.parse_claims_csv``, ``evaluation.build_feature_matrix``,
``detector.align_batch``, ``nn.mlp_forward`` ...), so calls are seen whichever
name they go through. Every call opens a span; a span's self time is its
duration minus the time covered by the spans it opened. Self times are
aggregated per span name as calls arrive, so memory does not grow with the
number of calls.

Run as a script it executes one CLI command in process and writes the
aggregate as JSON::

    python3 perfbench/tracer.py OUT.json SPAWN_CLOCK -- --seed 7 --out-dir D featurize

SPAWN_CLOCK is ``time.perf_counter()`` read by the parent just before it
started this process (CLOCK_MONOTONIC, which is shared between processes on
Linux), so ``startup_s`` covers interpreter start plus ``import
clevercatch.cli``. The module imports nothing outside the standard library at
import time, so the harness can import it for the metric table.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import Counter, defaultdict
from typing import Callable

ROOT_SPAN = "cli.main"
MAX_COUNTERS = ("alignment.sinkhorn_iters_max", "alignment.cost_tensor_peak_bytes")


class Tracer:
    """Span stack with per-name call counts, total and self times."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self._stack: list[list] = []  # [name, start, time covered by child spans]
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.pair_calls: Counter = Counter()  # (parent name, name) -> calls
        self.counters: defaultdict = defaultdict(float)

    def enter(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else None
        self.pair_calls[(parent, name)] += 1
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, covered = self._stack.pop()
        duration = self.clock() - start
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - covered
        if self._stack:
            self._stack[-1][2] += duration

    def bump(self, key: str, value: float) -> None:
        self.counters[key] += value

    def raise_to(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters[key], value)

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "pair_calls": [[p, n, c] for (p, n), c in self.pair_calls.items()],
            "counters": dict(self.counters),
        }


# Observers run inside the span of the call they observe, with the call's
# bound arguments and its result. They read sizes and shapes only.


def _claim_rows(t: Tracer, args: dict, result) -> None:
    t.bump("ingest.claim_rows", result.n_records)


def _features_bytes(t: Tracer, args: dict, result) -> None:
    t.bump("features.csv_bytes", os.path.getsize(args["path"]))


def _cost_tensor(t: Tracer, args: dict, result) -> None:
    batch, latent = args["samples"].shape
    n_rules = args["rules"].shape[0]
    t.raise_to("alignment.cost_tensor_peak_bytes", batch * n_rules * latent * 8)


def _sinkhorn_plan(t: Tracer, args: dict, result) -> None:
    t.bump("alignment.sinkhorn_iters_sum", result.iterations)
    t.raise_to("alignment.sinkhorn_iters_max", result.iterations)
    t.bump("alignment.unconverged_plans", 0 if result.converged else 1)


def _ablation_rows(t: Tracer, args: dict, result) -> None:
    t.bump("evaluation.ablation_configs", len(result.rows))


def _hashed_bytes(t: Tracer, args: dict, result) -> None:
    t.bump("manifest.bytes_hashed", os.path.getsize(args["path"]))


def _written_bytes(t: Tracer, args: dict, result) -> None:
    t.bump("io_utils.bytes_written", os.path.getsize(args["path"]))


# Library functions traced, as "<defining module>.<name>", with an optional
# observer. A name that no longer exists is reported absent, not an error.
TARGETS: dict[str, Callable | None] = {
    "ingest.parse_claims_csv": _claim_rows,
    "ingest.parse_labels": None,
    "features.compute_shares": None,
    "features.build_feature_matrix": None,
    "features.write_features_csv": _features_bytes,
    "features.read_features_csv": None,
    "encoders.pretrain": None,
    "encoders.sample_encode": None,
    "encoders.save_encoders": None,
    "encoders.load_encoders": None,
    "nn.mlp_forward": None,
    "nn.mlp_backward": None,
    "nn.optimizer_step": None,
    "alignment.align_batch": None,
    "alignment.cost_matrix": _cost_tensor,
    "alignment.sinkhorn": _sinkhorn_plan,
    "detector.hybrid_train": None,
    "detector.pseudo_label_classifier": None,
    "detector.score": None,
    "detector.save_detector": None,
    "detector.load_detector": None,
    "evaluation.evaluate_scores": None,
    "evaluation.pr_curve": None,
    "evaluation.write_scores_csv": None,
    "evaluation.read_scores_csv": None,
    "evaluation.ablation_run": _ablation_rows,
    "io_utils.sha256_file": _hashed_bytes,
    "io_utils.atomic_write_text": _written_bytes,
    "io_utils.atomic_write_bytes": _written_bytes,
    "simulator.generate": None,
    "simulator.write_sim_data": None,
}


# Per-layer metrics of the timed commands: (name, unit, kind, spans).
# "self" sums self times of the spans, so the "self" metrics together add up
# to the time spent inside cli.main; "calls" counts calls of the spans;
# "counter" reads the counter of the same name that the spans' observer keeps.
SPAN_METRICS: tuple[tuple[str, str, str, tuple[str, ...]], ...] = (
    ("ingest.parse_claims_s", "s", "self", ("ingest.parse_claims_csv",)),
    ("ingest.parse_claims_calls", "count", "calls", ("ingest.parse_claims_csv",)),
    ("ingest.claim_rows", "count", "counter", ("ingest.parse_claims_csv",)),
    ("ingest.parse_labels_s", "s", "self", ("ingest.parse_labels",)),
    ("features.compute_shares_s", "s", "self", ("features.compute_shares",)),
    ("features.build_feature_matrix_s", "s", "self", ("features.build_feature_matrix",)),
    ("features.build_calls", "count", "calls", ("features.build_feature_matrix",)),
    ("features.write_csv_s", "s", "self", ("features.write_features_csv",)),
    ("features.read_csv_s", "s", "self", ("features.read_features_csv",)),
    ("features.csv_bytes", "bytes", "counter", ("features.write_features_csv",)),
    ("encoders.pretrain_s", "s", "self", ("encoders.pretrain",)),
    ("encoders.pretrain_calls", "count", "calls", ("encoders.pretrain",)),
    ("encoders.sample_encode_s", "s", "self", ("encoders.sample_encode",)),
    ("encoders.sample_encode_calls", "count", "calls", ("encoders.sample_encode",)),
    ("encoders.save_load_s", "s", "self", ("encoders.save_encoders", "encoders.load_encoders")),
    ("nn.mlp_forward_s", "s", "self", ("nn.mlp_forward",)),
    ("nn.mlp_forward_calls", "count", "calls", ("nn.mlp_forward",)),
    ("nn.mlp_backward_s", "s", "self", ("nn.mlp_backward",)),
    ("nn.mlp_backward_calls", "count", "calls", ("nn.mlp_backward",)),
    ("nn.optimizer_step_s", "s", "self", ("nn.optimizer_step",)),
    ("nn.optimizer_step_calls", "count", "calls", ("nn.optimizer_step",)),
    ("alignment.align_batch_s", "s", "self", ("alignment.align_batch",)),
    ("alignment.align_batch_calls", "count", "calls", ("alignment.align_batch",)),
    ("alignment.cost_matrix_s", "s", "self", ("alignment.cost_matrix",)),
    ("alignment.cost_tensor_peak_bytes", "bytes", "counter", ("alignment.cost_matrix",)),
    ("alignment.sinkhorn_s", "s", "self", ("alignment.sinkhorn",)),
    ("alignment.sinkhorn_calls", "count", "calls", ("alignment.sinkhorn",)),
    ("alignment.sinkhorn_iters_max", "count", "counter", ("alignment.sinkhorn",)),
    ("alignment.unconverged_plans", "count", "counter", ("alignment.sinkhorn",)),
    ("detector.hybrid_train_s", "s", "self", ("detector.hybrid_train",)),
    ("detector.pseudo_label_classifier_s", "s", "self", ("detector.pseudo_label_classifier",)),
    ("detector.score_s", "s", "self", ("detector.score",)),
    ("detector.save_load_s", "s", "self", ("detector.save_detector", "detector.load_detector")),
    ("evaluation.evaluate_scores_s", "s", "self", ("evaluation.evaluate_scores",)),
    ("evaluation.pr_curve_s", "s", "self", ("evaluation.pr_curve",)),
    ("evaluation.scores_csv_s", "s", "self", ("evaluation.write_scores_csv", "evaluation.read_scores_csv")),
    ("evaluation.ablation_run_s", "s", "self", ("evaluation.ablation_run",)),
    ("evaluation.ablation_configs", "count", "counter", ("evaluation.ablation_run",)),
    ("manifest.hash_s", "s", "self", ("io_utils.sha256_file",)),
    ("manifest.bytes_hashed", "bytes", "counter", ("io_utils.sha256_file",)),
    ("io_utils.atomic_write_s", "s", "self", ("io_utils.atomic_write_text", "io_utils.atomic_write_bytes")),
    ("io_utils.bytes_written", "bytes", "counter", ("io_utils.atomic_write_text", "io_utils.atomic_write_bytes")),
    ("cli.unattributed_s", "s", "self", (ROOT_SPAN,)),
)


def span_metrics(summary: dict, absent: set[str]) -> tuple[dict[str, float], list[str]]:
    """Per-layer values from a merged trace summary, plus notes on absent spans.

    A metric whose spans all no longer exist in the library reads 0 and gets a
    note.
    """
    values: dict[str, float] = {}
    notes: list[str] = []
    for name, _, kind, spans in SPAN_METRICS:
        if kind == "self":
            values[name] = sum(summary["self_s"].get(s, 0.0) for s in spans)
        elif kind == "calls":
            values[name] = sum(summary["calls"].get(s, 0) for s in spans)
        else:
            values[name] = summary["counters"].get(name, 0)
        if all(s in absent for s in spans):
            notes.append(f"{name}: absent, {', '.join(spans)} no longer in the library")
    if "alignment.sinkhorn" in absent:
        notes.append("alignment.sinkhorn_iters_mean: absent, alignment.sinkhorn no longer in the library")
    if "detector.hybrid_train" in absent or "nn.optimizer_step" in absent:
        notes.append("detector.train_batches: absent, detector.hybrid_train or nn.optimizer_step no longer in the library")
    sinkhorn_calls = summary["calls"].get("alignment.sinkhorn", 0)
    iters = summary["counters"].get("alignment.sinkhorn_iters_sum", 0)
    values["alignment.sinkhorn_iters_mean"] = iters / sinkhorn_calls if sinkhorn_calls else 0.0
    values["detector.train_batches"] = sum(
        c for p, n, c in summary["pair_calls"]
        if p == "detector.hybrid_train" and n == "nn.optimizer_step"
    )
    return values, notes


def merge(summaries: list[dict]) -> dict:
    """Sum several command summaries; MAX_COUNTERS take the maximum."""
    out = {"calls": Counter(), "total_s": Counter(), "self_s": Counter(), "counters": {}}
    pairs: Counter = Counter()
    for s in summaries:
        for key in ("calls", "total_s", "self_s"):
            out[key].update(s[key])
        for p, n, c in s["pair_calls"]:
            pairs[(p, n)] += c
        for key, value in s["counters"].items():
            if key in MAX_COUNTERS:
                out["counters"][key] = max(out["counters"].get(key, 0), value)
            else:
                out["counters"][key] = out["counters"].get(key, 0) + value
    out["pair_calls"] = [[p, n, c] for (p, n), c in pairs.items()]
    return {k: dict(v) if isinstance(v, Counter) else v for k, v in out.items()}


def _wrap(fn: Callable, name: str, tracer: Tracer, observe: Callable | None) -> Callable:
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
            if observe is not None:
                observe(tracer, signature.bind(*args, **kwargs).arguments, result)
            return result
        finally:
            tracer.exit()

    return traced


def install(
    tracer: Tracer, targets: dict[str, Callable | None] = TARGETS, package: str = "clevercatch"
) -> tuple[dict[str, list[str]], list[str]]:
    """Wrap every target at each module attribute of the package bound to it.

    Returns the binding sites wrapped per target and the targets absent from
    the library. Call after the package's modules are imported.
    """
    modules = {
        name[len(package) + 1:]: mod
        for name, mod in list(sys.modules.items())
        if name.startswith(package + ".") and mod is not None
    }
    sites: dict[str, list[str]] = {}
    absent: list[str] = []
    for target, observe in targets.items():
        module_name, attr = target.rsplit(".", 1)
        original = getattr(modules.get(module_name), attr, None)
        if not callable(original):
            absent.append(target)
            continue
        wrapper = _wrap(original, target, tracer, observe)
        sites[target] = []
        for mod_name, mod in modules.items():
            for binding, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, binding, wrapper)
                    sites[target].append(f"{mod_name}.{binding}")
    return sites, absent


def main(argv: list[str]) -> int:
    out_path, spawn_clock = argv[0], float(argv[1])
    cli_args = argv[3:] if argv[2] == "--" else argv[2:]
    import clevercatch.cli

    ready = time.perf_counter()
    tracer = Tracer()
    sites, absent = install(tracer)
    tracer.enter(ROOT_SPAN)
    try:
        rc = clevercatch.cli.main(cli_args)
    finally:
        tracer.exit()
    doc = {
        "rc": rc,
        "startup_s": ready - spawn_clock,
        "sites": sites,
        "absent": absent,
        **tracer.summary(),
    }
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
