#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the clevercatch CLI.

Run from the repository root:

    python3 perfbench/run.py --workload cohort-6k --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, untraced and traced

The benchmark drives the CLI as a user would: one closed-loop client that
starts one command process at a time and waits for it, with numeric
libraries pinned to the thread count recorded in reference.json. Set-up
simulates the workload's cohort from --seed; the timed commands then receive
only claims.csv, rules.csv and labels.csv, copied into a fresh directory for
every repetition.

--trace 0 measures the end-to-end metrics: repetitions run until --seconds
have passed (at least one), and each metric is the median over them.
--trace 1 runs one untraced and one traced repetition. In the traced one each
command runs in process under tracer.py, which wraps the library's public
functions, and the per-layer metrics come from its spans. Both modes check
that every command exits 0, that artifacts are byte-identical across
repetitions and between traced and untraced runs, that the cohort has the
recorded shape, and that pr_auc matches the reference at the reference seed
(at other seeds: at least twice the label prevalence). Failed checks are
counted, not raised. The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = json.loads((BENCH_DIR / "reference.json").read_text(encoding="utf-8"))

INPUTS = ("claims.csv", "rules.csv", "labels.csv")
SETUP_REPEATS = 3
RUN_BUDGET_S = 170.0  # one invocation must finish within 180 s; children past this are killed
COMMANDS = ("featurize", "pretrain", "pseudolabel", "train", "score", "evaluate", "ablate")
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "CLEVERCATCH_THREADS")


@dataclass(frozen=True)
class Workload:
    providers: int
    commands: tuple[str, ...]
    artifacts: tuple[str, ...]
    report: str  # CSV holding pr_auc
    report_row: str  # value of its config column


# Why these workloads: cohort-6k is the largest cohort whose six commands fit
# the run budget, so parsing claims (4 of 6 commands), feature building,
# features.csv I/O and Sinkhorn carry about half the time; a change to those
# layers shows here. ablate-2k is one process that parses once, then builds
# features 4x, pretrains 3x and trains 4x (one with lambda 0, no Sinkhorn);
# pretraining dominates, so reuse inside a process shows here and a faster
# claims parser should change almost nothing.
WORKLOADS = {
    "cohort-6k": Workload(
        providers=6000,
        commands=("featurize", "pretrain", "pseudolabel", "train", "score", "evaluate"),
        artifacts=(
            "features.csv", "encoders.json", "pseudo_labels.csv", "detector.json",
            "scores.csv", "report.csv", "pr_curve.csv",
        ),
        report="report.csv",
        report_row="run",
    ),
    "ablate-2k": Workload(
        providers=2000,
        commands=("ablate",),
        artifacts=("ablation_report.csv",),
        report="ablation_report.csv",
        report_row="full",
    ),
}

END_TO_END_UNITS = {
    "pipeline_s": "s",
    "prescribers_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "pr_auc": "ratio",
}

LAYER_UNITS = {
    **{name: unit for name, unit, _, _ in tracer.SPAN_METRICS},
    "alignment.sinkhorn_iters_mean": "count",
    "detector.train_batches": "count",
    "cli.startup_s": "s",
    "simulator.generate_s": "s",
    "simulator.write_s": "s",
    "trace.overhead_s": "s",
    "trace.unaccounted_s": "s",
    **{f"command.{c}_s": "s" for c in COMMANDS},
}

PROBE = """
import json, os, sys
import numpy, scipy
import clevercatch.cli
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({
    "library": os.path.dirname(clevercatch.cli.__file__),
    "nproc": len(os.sched_getaffinity(0)),
    "python": "%d.%d.%d" % sys.version_info[:3],
    "numpy": numpy.__version__,
    "scipy": scipy.__version__,
    "openblas": blas.get("version"),
}))
"""


class Gate:
    """Counts checks and failures; a failed check is reported, never raised."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", flush=True)
        return ok


@dataclass
class Proc:
    wall_s: float
    rss_mb: float
    rc: int


@dataclass
class Rep:
    walls: dict[str, float] = field(default_factory=dict)
    rss_mb: dict[str, float] = field(default_factory=dict)
    traces: dict[str, dict] = field(default_factory=dict)
    hashes: dict[str, str] = field(default_factory=dict)
    complete: bool = False

    @property
    def pipeline_s(self) -> float:
        return sum(self.walls.values())


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cap = str(REFERENCE["environment"]["blas_threads"])
    env.update({var: cap for var in BLAS_THREAD_VARS})
    return env


def run_child(cli_args: list[str], log: Path, deadline: float, trace_out: Path | None = None) -> Proc:
    """Run one CLI command to completion; peak RSS comes from this child's own rusage."""
    with open(log, "wb") as handle:
        start = time.perf_counter()
        if trace_out is None:
            argv = [sys.executable, "-m", "clevercatch", *cli_args]
        else:
            argv = [sys.executable, str(BENCH_DIR / "tracer.py"), str(trace_out), repr(start), "--", *cli_args]
        proc = subprocess.Popen(argv, stdout=handle, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(max(deadline - time.perf_counter(), 0.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(wall, usage.ru_maxrss / 1024.0, proc.returncode)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def count_lines(path: Path) -> int:
    return path.read_bytes().count(b"\n")


def last_line(path: Path) -> str:
    lines = path.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


def prepare(gate: Gate, deadline: float) -> None:
    """Import the package from source (writing its bytecode) and check which library and environment run."""
    try:
        probe = subprocess.run(
            [sys.executable, "-c", PROBE],
            env=child_env(), cwd=ROOT, capture_output=True, text=True,
            timeout=max(deadline - time.perf_counter(), 1.0),
        )
    except subprocess.TimeoutExpired:
        gate.check(False, "importing clevercatch did not finish within the run budget")
        return
    if not gate.check(probe.returncode == 0, f"import of clevercatch failed: {probe.stderr.strip()[-300:]}"):
        return
    env = json.loads(probe.stdout.strip().splitlines()[-1])
    gate.check(
        Path(env.pop("library")).resolve() == (SRC / "clevercatch").resolve(),
        "clevercatch was not imported from this checkout's src/",
    )
    expected = dict(REFERENCE["environment"])
    expected.pop("blas_threads")
    drift = [f"{k} {env.get(k)} (reference {v})" for k, v in expected.items() if env.get(k) != v]
    if drift:
        print("note: environment differs from reference.json: " + ", ".join(drift), flush=True)


def simulate(w: Workload, seed: int, out: Path, deadline: float, trace_out: Path | None = None) -> Proc:
    args = ["--seed", str(seed), "--out-dir", str(out), "--set", f"simulator.n_providers={w.providers}", "simulate"]
    return run_child(args, out.with_suffix(".log"), deadline, trace_out)


def check_cohort(name: str, seed: int, setup: Path, gate: Gate) -> int:
    """Compare cohort shapes with the reference; returns the number of positive labels."""
    ref = REFERENCE["workloads"][name]
    with open(setup / "labels.csv", encoding="utf-8") as handle:
        labels = list(csv.DictReader(handle))
    gate.check(len(labels) == ref["prescribers"], f"{len(labels)} prescribers, reference {ref['prescribers']}")
    rules = count_lines(setup / "rules.csv") - 1
    gate.check(rules == ref["rules"], f"{rules} rules, reference {ref['rules']}")
    if seed == ref["seed"]:
        rows = count_lines(setup / "claims.csv") - 1
        gate.check(rows == ref["claim_rows"], f"{rows} claim rows, reference {ref['claim_rows']}")
    return sum(int(row["label"]) for row in labels)


def same_inputs(a: Path, b: Path) -> bool:
    return all(sha256(a / f) == sha256(b / f) for f in INPUTS)


def run_pipeline(w: Workload, seed: int, setup: Path, out: Path, gate: Gate, deadline: float,
                 traced: bool = False) -> Rep:
    """One repetition of the workload's commands in a fresh directory."""
    out.mkdir(parents=True)
    for name in INPUTS:
        shutil.copyfile(setup / name, out / name)
    rep = Rep()
    for command in w.commands:
        log = out / f"{command}.log"
        trace_out = out / f"{command}.trace.json" if traced else None
        proc = run_child(["--seed", str(seed), "--out-dir", str(out), command], log, deadline, trace_out)
        rep.walls[command] = proc.wall_s
        rep.rss_mb[command] = proc.rss_mb
        if not gate.check(proc.rc == 0, f"{command} exited {proc.rc}: {last_line(log)}"):
            return rep
        if traced:
            rep.traces[command] = json.loads(trace_out.read_text(encoding="utf-8"))
    rep.hashes = {name: sha256(out / name) for name in w.artifacts if (out / name).exists()}
    rep.complete = gate.check(len(rep.hashes) == len(w.artifacts), f"artifacts missing in {out}")
    return rep


def read_pr_auc(w: Workload, out: Path) -> float | None:
    lines = [ln for ln in (out / w.report).read_text(encoding="utf-8").splitlines() if not ln.startswith("#")]
    for row in csv.DictReader(lines):
        if row.get("config") == w.report_row and row.get("pr_auc"):
            return float(row["pr_auc"])
    return None


def check_pr_auc(name: str, seed: int, pr_auc: float | None, positives: int, gate: Gate) -> None:
    ref = REFERENCE["workloads"][name]
    if pr_auc is None:
        gate.check(False, "pr_auc row missing from the report")
    elif seed == ref["seed"]:
        gate.check(abs(pr_auc - ref["pr_auc"]) < 5e-7, f"pr_auc {pr_auc:.6f}, reference {ref['pr_auc']}")
    else:
        floor = 2.0 * positives / ref["prescribers"]
        gate.check(pr_auc >= floor, f"pr_auc {pr_auc:.6f} below twice the label prevalence {floor:.4f}")


def check_feature_width(name: str, out: Path, gate: Gate) -> None:
    width = REFERENCE["workloads"][name]["feature_width"]
    if width is not None:
        with open(out / "features.csv", encoding="utf-8") as handle:
            got = len(handle.readline().split(",")) - 1
        gate.check(got == width, f"{got} feature columns, reference {width}")


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return ""
    if len(values) < 4:
        return f"  range {min(values):.4f}..{max(values):.4f}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"  q1 {q1:.4f} q3 {q3:.4f}"


def report_line(name: str, value: float, unit: str, samples: list[float] | None = None) -> None:
    n = f"n={len(samples)}" if samples is not None else ""
    print(f"  {name:<36} {value:>16.6f} {unit:<6} {n}{spread(samples or [])}", flush=True)


def measure(name: str, seed: int, seconds: float, deadline: float) -> tuple[Gate, dict[str, float]]:
    """Untraced run: the end-to-end metrics."""
    w = WORKLOADS[name]
    gate = Gate()
    prepare(gate, deadline)
    setups = [WORK / f"setup{i}" for i in range(SETUP_REPEATS)]
    setup_walls = []
    for d in setups:
        proc = simulate(w, seed, d, deadline)
        setup_walls.append(proc.wall_s)
        if not gate.check(proc.rc == 0, f"simulate exited {proc.rc}: {last_line(d.with_suffix('.log'))}"):
            return gate, {}
    for d in setups[1:]:
        gate.check(same_inputs(setups[0], d), f"simulate output in {d} differs from {setups[0]}")
    positives = check_cohort(name, seed, setups[0], gate)

    reps: list[Rep] = []
    start = time.perf_counter()
    while True:
        rep = run_pipeline(w, seed, setups[0], WORK / f"rep{len(reps)}", gate, deadline)
        if not rep.complete:
            break
        if reps:
            gate.check(rep.hashes == reps[0].hashes, f"artifacts of rep{len(reps)} differ from rep0")
        else:
            check_pr_auc(name, seed, read_pr_auc(w, WORK / "rep0"), positives, gate)
            if "featurize" in w.commands:
                check_feature_width(name, WORK / "rep0", gate)
        reps.append(rep)
        now = time.perf_counter()
        if now - start >= seconds or now + 1.25 * rep.pipeline_s > deadline:
            break
    if not reps:
        return gate, {}

    pipeline = [r.pipeline_s for r in reps]
    peak = [max(r.rss_mb.values()) for r in reps]
    metrics = {
        "pipeline_s": statistics.median(pipeline),
        "prescribers_per_s": w.providers / statistics.median(pipeline),
        "peak_rss_mb": statistics.median(peak),
        "setup_s": statistics.median(setup_walls),
        "pr_auc": read_pr_auc(w, WORK / "rep0"),
    }
    print(f"{name}: end-to-end, seed {seed}, {len(reps)} repetition(s)", flush=True)
    samples = {"pipeline_s": pipeline, "peak_rss_mb": peak, "setup_s": setup_walls,
               "prescribers_per_s": [w.providers / p for p in pipeline], "pr_auc": [metrics["pr_auc"]]}
    for metric, unit in END_TO_END_UNITS.items():
        report_line(metric, metrics[metric], unit, samples[metric])
    for command in w.commands:
        walls = [r.walls[command] for r in reps]
        report_line(f"{command}_s", statistics.median(walls), "s", walls)
        rss = [r.rss_mb[command] for r in reps]
        report_line(f"{command}_peak_rss_mb", statistics.median(rss), "MB", rss)
    report_line("failed_ops", gate.failed / gate.attempted, "ratio", None)
    return gate, metrics


def check_accounting(command: str, wall: float, doc: dict, gate: Gate) -> float:
    """Start-up plus time inside cli.main must cover the traced wall time,
    leaving only interpreter exit and the trace dump; returns that remainder."""
    remainder = wall - doc["startup_s"] - doc["total_s"][tracer.ROOT_SPAN]
    gate.check(
        -0.001 <= remainder <= 0.25 + 0.02 * wall,
        f"traced {command}: {remainder:.3f} s of {wall:.3f} s outside start-up and cli.main",
    )
    return remainder


def measure_traced(name: str, seed: int, deadline: float) -> tuple[Gate, dict[str, float]]:
    """Untraced then traced repetition: the per-layer metrics."""
    w = WORKLOADS[name]
    gate = Gate()
    prepare(gate, deadline)
    setup, setup_traced = WORK / "setup0", WORK / "setup_traced"
    proc = simulate(w, seed, setup, deadline)
    if not gate.check(proc.rc == 0, f"simulate exited {proc.rc}: {last_line(setup.with_suffix('.log'))}"):
        return gate, {}
    sim_trace = WORK / "simulate.trace.json"
    proc = simulate(w, seed, setup_traced, deadline, trace_out=sim_trace)
    if not gate.check(proc.rc == 0, f"traced simulate exited {proc.rc}"):
        return gate, {}
    gate.check(same_inputs(setup, setup_traced), "traced simulate output differs from untraced")
    positives = check_cohort(name, seed, setup, gate)

    plain = run_pipeline(w, seed, setup, WORK / "untraced", gate, deadline)
    if not plain.complete:
        return gate, {}
    check_pr_auc(name, seed, read_pr_auc(w, WORK / "untraced"), positives, gate)
    traced = run_pipeline(w, seed, setup, WORK / "traced", gate, deadline, traced=True)
    if not traced.complete:
        return gate, {}
    gate.check(traced.hashes == plain.hashes, "traced artifacts differ from untraced ones")

    docs = list(traced.traces.values())
    for command, doc in traced.traces.items():
        gate.check(doc["rc"] == 0, f"traced {command} returned {doc['rc']}")
    absent = set().union(*(doc["absent"] for doc in docs))
    values, notes = tracer.span_metrics(tracer.merge(docs), absent)
    sim = json.loads(sim_trace.read_text(encoding="utf-8"))
    sim_total = sim["total_s"]
    values["simulator.generate_s"] = sim_total.get("simulator.generate", 0.0)
    values["simulator.write_s"] = sim_total.get("simulator.write_sim_data", 0.0) - values["simulator.generate_s"]
    notes += [f"simulator: absent, {t} no longer in the library" for t in sim["absent"] if t.startswith("simulator.")]
    values["cli.startup_s"] = sum(doc["startup_s"] for doc in docs)
    values["trace.overhead_s"] = traced.pipeline_s - plain.pipeline_s
    values["trace.unaccounted_s"] = sum(
        check_accounting(c, traced.walls[c], doc, gate) for c, doc in traced.traces.items()
    )
    for command in COMMANDS:
        values[f"command.{command}_s"] = plain.walls.get(command, 0.0)

    print(f"{name}: per-layer (traced), seed {seed}, one repetition", flush=True)
    for metric, unit in LAYER_UNITS.items():
        report_line(metric, values[metric], unit)
    for note in notes:
        print(f"  note: {note}", flush=True)
    report_line("failed_ops", gate.failed / gate.attempted, "ratio", None)
    return gate, values


def run_one(name: str, seed: int, seconds: float, trace: bool) -> tuple[Gate, dict[str, dict]]:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    deadline = time.perf_counter() + RUN_BUDGET_S
    if trace:
        gate, values = measure_traced(name, seed, deadline)
        units = LAYER_UNITS
    else:
        gate, values = measure(name, seed, seconds, deadline)
        units = END_TO_END_UNITS
    if gate.failed == 0:
        shutil.rmtree(WORK, ignore_errors=True)
    return gate, {m: {"value": values[m], "unit": u} for m, u in units.items() if m in values}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "clevercatch" / "cli.py").is_file():
        print(f"error: no clevercatch sources under {SRC}", file=sys.stderr)
        return 2

    if args.workload == "all":
        runs = [(name, trace) for name in WORKLOADS for trace in (False, True)]
    else:
        runs = [(args.workload, bool(args.trace))]
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    for name, trace in runs:
        gate, found = run_one(name, args.seed, args.seconds, trace)
        attempted += gate.attempted
        failed += gate.failed
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + m: v for m, v in found.items()})
        attempted += 1
        if len(found) < len(LAYER_UNITS if trace else END_TO_END_UNITS):
            failed += 1
            print(f"check failed: {name} produced no complete measurement", flush=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
