"""Command line driver: full pipeline runs, error contract, and manifests."""

import hashlib
import json
import logging
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import clevercatch
from clevercatch.cli import main
from clevercatch.features import read_features_csv
from clevercatch.ingest import parse_claims_csv
from clevercatch.nn import derive_seed
from clevercatch.vocab import Vocabulary

# Small problem sizes so the eight-command pipeline runs in seconds.
SPEED = [
    "--set", "simulator.n_providers=60",
    "--set", "simulator.fraud_rate=0.2",
    "--set", "pretrain.triplet_count=400",
    "--set", "pretrain.epochs=4",
    "--set", "pretrain.latent_dim=8",
    "--set", "pretrain.index_dim=8",
    "--set", "pretrain.re_hidden=16",
    "--set", "pretrain.se_hidden=32,16",
    "--set", "detector.epochs=4",
    "--set", "evaluate.ks=5,10",
    "--set", "ablation.eval_fraction=0.5",
]

PIPELINE = (
    "simulate",
    "featurize",
    "pretrain",
    "pseudolabel",
    "train",
    "score",
    "evaluate",
    "ablate",
)


def run_ok(command: str, out_dir: Path, extra: list[str] | None = None) -> None:
    argv = ["--seed", "3", "--out-dir", str(out_dir), *SPEED, *(extra or []), command]
    assert main(argv) == 0, f"{command} failed"


def non_manifest_files(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file() and not p.name.endswith("_manifest.json")
    }


@pytest.fixture(scope="module")
def pipeline_dirs(tmp_path_factory):
    """The full pipeline run twice with identical settings, plus a spare copy."""
    base = tmp_path_factory.mktemp("cli")
    for name in ("a", "b"):
        out = base / name
        for command in PIPELINE:
            run_ok(command, out)
    return base


class TestPipeline:
    def test_all_artifacts_written(self, pipeline_dirs):
        out = pipeline_dirs / "a"
        expected = [
            "claims.csv",
            "labels.csv",
            "rules.csv",
            "ground_truth.json",
            "features.csv",
            "encoders.json",
            "pseudo_labels.csv",
            "detector.json",
            "scores.csv",
            "report.csv",
            "pr_curve.csv",
            "ablation_report.csv",
        ]
        expected += [f"{command}_manifest.json" for command in PIPELINE]
        for name in expected:
            assert (out / name).exists(), name

    def test_rerun_is_byte_identical(self, pipeline_dirs):
        a = non_manifest_files(pipeline_dirs / "a")
        b = non_manifest_files(pipeline_dirs / "b")
        assert a.keys() == b.keys()
        for name in a:
            assert a[name] == b[name], f"{name} differs between identical runs"

    def test_evaluate_on_partial_scores_reports_the_skipped_labels(
        self, pipeline_dirs, tmp_path, capsys, caplog
    ):
        out = tmp_path / "run"
        shutil.copytree(pipeline_dirs / "a", out)
        header, *rows = (out / "scores.csv").read_text().splitlines(keepends=True)
        (out / "scores.csv").write_text(header + "".join(rows[:20]))
        n_labels = len((out / "labels.csv").read_text().splitlines()) - 1
        with caplog.at_level("WARNING"):
            run_ok("evaluate", out)
        summary = capsys.readouterr().out
        assert f"evaluate: 20 labeled, {n_labels - 20} skipped as unscored, " in summary
        warning = f"skipped {n_labels - 20} labels for npis not among the 20 prescribers"
        assert warning in caplog.text and "claims" not in caplog.text

    def test_ablation_report_has_deltas(self, pipeline_dirs):
        text = (pipeline_dirs / "a" / "ablation_report.csv").read_text()
        for config in ("full", "minus-cost", "minus-opioid", "lambda0"):
            assert f"\n{config},3," in text
        assert "# delta vs full: config=minus-cost seed=3" in text

    def test_manifest_records_hashes_and_config(self, pipeline_dirs):
        out = pipeline_dirs / "a"
        doc = json.loads((out / "featurize_manifest.json").read_text())
        assert doc["command"] == "featurize"
        assert doc["seed"] == 3
        assert set(doc["inputs"]) == {"claims", "rules"}
        assert set(doc["outputs"]) == {"features"}
        claims_sha = hashlib.sha256((out / "claims.csv").read_bytes()).hexdigest()
        assert doc["inputs"]["claims"]["sha256"] == claims_sha
        assert doc["config"]["simulator"]["n_providers"] == 60
        assert "featurize" in doc["timings_seconds"]
        assert set(doc["versions"]) == {"clevercatch", "numpy"}

    def test_simulate_manifest_records_the_seed_it_used(self, pipeline_dirs):
        out = pipeline_dirs / "a"
        manifest = json.loads((out / "simulate_manifest.json").read_text())
        truth = json.loads((out / "ground_truth.json").read_text())
        used = manifest["config"]["simulator"]["seed"]
        assert used == truth["config"]["seed"] == derive_seed(3, "simulate")
        assert manifest["config"]["simulator"]["n_providers"] == 60

    def test_pretrain_reports_its_skipped_backward_passes(self, pipeline_dirs, tmp_path, capsys):
        out = tmp_path / "run"
        shutil.copytree(pipeline_dirs / "a", out)
        run_ok("pretrain", out)
        # 4 epochs of 360 training triplets in batches of 256: 2 batches each
        summary = (
            r"(\d+) of (\d+) epochs run, .* backward skipped on (\d+) of (\d+) batches, "
            r"forward skipped on (\d+) of (\d+) batches -> "
        )
        found = re.search(summary, capsys.readouterr().out)
        assert found is not None and found[1] == found[2] == "4" and int(found[3]) <= int(found[4]) == 8
        assert int(found[5]) <= int(found[3]) and found[6] == found[4]
        assert (out / "encoders.json").read_bytes() == (pipeline_dirs / "a" / "encoders.json").read_bytes()
        # 41 training triplets in batches of 2: 21 each. The still-epoch stop ends
        # this run early, and only the epochs that ran are counted.
        stop = ["pretrain.epochs=48", "pretrain.margin=0", "pretrain.triplet_count=46", "pretrain.batch_size=2"]
        run_ok("pretrain", out, extra=[arg for key in stop for arg in ("--set", key)])
        found = re.search(summary, capsys.readouterr().out)
        assert found is not None and int(found[1]) < int(found[2]) == 48
        assert int(found[3]) <= int(found[4]) == 21 * int(found[1])
        # certified clear epochs run no forward pass, and every batch in them has a zero gradient
        assert 0 < int(found[5]) <= int(found[3]) and found[6] == found[4]

    def test_train_reports_the_labeled_rows_of_each_class(self, pipeline_dirs, tmp_path, capsys):
        out = tmp_path / "run"
        shutil.copytree(pipeline_dirs / "a", out)
        rows = (out / "labels.csv").read_text().splitlines()[1:]
        positives = sum(row.endswith(",1") for row in rows)
        run_ok("train", out)
        found = re.search(r"^train: (\d+) labeled \((\d+) positive\) of 60 prescribers, ", capsys.readouterr().out)
        assert found is not None and (int(found[1]), int(found[2])) == (len(rows), positives)
        assert 0 < positives < len(rows)

    def test_unconverged_transport_plans_are_counted(self, pipeline_dirs, tmp_path, caplog):
        out = tmp_path / "run"
        shutil.copytree(pipeline_dirs / "a", out)
        with caplog.at_level(logging.WARNING, logger="clevercatch.alignment"):
            for command in ("pseudolabel", "train"):
                run_ok(command, out)
            assert caplog.records == []
            for command in ("pseudolabel", "train"):
                run_ok(command, out, extra=["--set", "alignment.max_iters=1"])
        # 60 prescribers in batches of 256 for 4 epochs: one plan per epoch
        assert [r.getMessage() for r in caplog.records] == [
            "pseudo_label_classifier: 1 of 1 transport plans stopped at max_iters=1 before converging",
            "hybrid_train: 4 of 4 transport plans stopped at max_iters=1 before converging",
        ]

    def test_manifests_list_inputs_and_outputs_in_order(self, pipeline_dirs):
        out = pipeline_dirs / "a"
        expected = {
            "pseudolabel": (["features", "encoders", "rules"], ["pseudo_labels"]),
            "evaluate": (["scores", "labels"], ["report", "pr_curve"]),
        }
        for command, (inputs, outputs) in expected.items():
            doc = json.loads((out / f"{command}_manifest.json").read_text())
            assert list(doc["inputs"]) == inputs
            assert list(doc["outputs"]) == outputs
            for entry in [*doc["inputs"].values(), *doc["outputs"].values()]:
                path = Path(entry["path"])
                assert path.parent == out
                assert entry["sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_manifest_timing_covers_file_reads(self, pipeline_dirs, tmp_path, monkeypatch):
        out = tmp_path / "run"
        shutil.copytree(pipeline_dirs / "a", out)

        def slow_read(path):
            time.sleep(0.3)
            return read_features_csv(path)

        monkeypatch.setattr("clevercatch.cli.read_features_csv", slow_read)
        run_ok("pseudolabel", out)
        timings = json.loads((out / "pseudolabel_manifest.json").read_text())["timings_seconds"]
        assert list(timings) == ["pseudolabel"]
        assert timings["pseudolabel"] >= 0.3


def test_traced_commands_exit_zero_with_plain_number_counters(pipeline_dirs, tmp_path):
    # perfbench/tracer.py wraps library functions and its observers read their
    # arguments and results, so a library change can break a traced run alone
    out = tmp_path / "run"
    shutil.copytree(pipeline_dirs / "a", out)
    env = dict(os.environ, PYTHONPATH=str(Path(clevercatch.__file__).parents[1]))
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    for command in ("featurize", "pretrain", "pseudolabel", "train", "score", "evaluate", "ablate"):
        trace = tmp_path / f"{command}.json"
        argv = [str(tracer), str(trace), "0", "--", "--seed", "3", "--out-dir", str(out), *SPEED, command]
        result = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True)
        assert result.returncode == 0, f"{command}: {result.stderr[-2000:]}"
        doc = json.loads(trace.read_text(), parse_constant=lambda name: name)  # NaN stays a string
        assert doc["rc"] == 0 and doc["counters"], command
        for key, value in doc["counters"].items():
            assert type(value) in (int, float), f"{command}: counter {key} = {value!r}"


class TestFlagsAndOutput:
    def test_global_flags_after_subcommand(self, tmp_path, capsys):
        argv = ["simulate", "--seed", "3", "--out-dir", str(tmp_path), *SPEED]
        assert main(argv) == 0
        assert (tmp_path / "claims.csv").exists()
        assert capsys.readouterr().out.startswith("simulate: ")

    def test_out_dir_from_config_file(self, tmp_path):
        target = tmp_path / "from_config"
        ini = tmp_path / "run.ini"
        ini.write_text(
            f"[paths]\nout_dir = {target}\n"
            "[simulator]\nn_providers = 20\nfraud_rate = 0.2\n"
        )
        assert main(["--config", str(ini), "simulate"]) == 0
        assert (target / "claims.csv").exists()

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("clevercatch ")

    def test_unknown_command_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


class TestErrorContract:
    def check_error(self, capsys, argv, error_type: str, fragment: str = ""):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {error_type}: ")
        assert err.count("\n") == 1
        assert fragment in err

    def test_missing_input_file(self, tmp_path, capsys):
        self.check_error(
            capsys,
            ["--out-dir", str(tmp_path), "featurize"],
            "ConfigError",
            "paths.claims",
        )

    def test_invalid_config_value(self, tmp_path, capsys):
        self.check_error(
            capsys,
            ["--out-dir", str(tmp_path), "--set", "simulator.boost=0.5", "simulate"],
            "ConfigError",
            "boost",
        )

    def test_negative_sigma(self, tmp_path, capsys):
        # numpy's lognormal raised ValueError: sigma < 0, with a traceback
        self.check_error(
            capsys,
            ["--out-dir", str(tmp_path), "--set", "simulator.n_providers=20",
             "--set", "simulator.price_sigma=-1", "simulate"],
            "ConfigError",
            "sigma",
        )
        assert not (tmp_path / "claims.csv").exists()

    def test_malformed_input_file(self, tmp_path, capsys):
        (tmp_path / "claims.csv").write_text("not,a,claims,file\n")
        (tmp_path / "rules.csv").write_text("kind,drug_p,drug_q,weight\n")
        self.check_error(
            capsys,
            ["--out-dir", str(tmp_path), "featurize"],
            "ParseError",
            "claims.csv",
        )

    def test_fingerprint_mismatch(self, tmp_path, capsys):
        out = tmp_path / "run"
        for command in ("simulate", "featurize", "pretrain"):
            run_ok(command, out)
        # Same drugs and rule shapes, different rule weights: the encoders
        # no longer match the rule file they would be aligned against.
        run_ok("simulate", out, extra=["--set", "simulator.opioid_rule_weight=0.9"])
        self.check_error(
            capsys,
            ["--seed", "3", "--out-dir", str(out), *SPEED, "train"],
            "FingerprintMismatch",
            f"{out / 'rules.csv'}: rule set fingerprint ",
        )

    def test_configured_scores_file_must_exist(self, pipeline_dirs, tmp_path, capsys):
        out = tmp_path / "run"
        shutil.copytree(pipeline_dirs / "a", out)
        missing = tmp_path / "missing_scores.csv"
        self.check_error(
            capsys,
            ["--seed", "3", "--out-dir", str(out), *SPEED,
             "--set", f"paths.scores={missing}", "evaluate"],
            "FileNotFoundError",
            str(missing),
        )
        before = (pipeline_dirs / "a" / "evaluate_manifest.json").read_bytes()
        assert (out / "evaluate_manifest.json").read_bytes() == before  # no fallback run

    def test_evaluate_on_positive_only_labels(self, pipeline_dirs, tmp_path, capsys):
        # every ranking of one class is perfect: evaluate once printed pr_auc 1.000000
        out = tmp_path / "run"
        shutil.copytree(pipeline_dirs / "a", out)
        header, *rows = (out / "labels.csv").read_text().splitlines(keepends=True)
        (out / "labels.csv").write_text(header + "".join(r for r in rows if r.rstrip().endswith(",1")))
        self.check_error(
            capsys,
            ["--seed", "3", "--out-dir", str(out), *SPEED, "evaluate"],
            "UndefinedMetricError",
            "ranking metrics need at least one negative label",
        )

    def test_evaluate_on_labels_that_name_no_scored_prescriber(self, pipeline_dirs, tmp_path, capsys):
        # evaluate once blamed the ks: "all ks in (5, 10) exceed the 0 labeled prescribers"
        out = tmp_path / "run"
        shutil.copytree(pipeline_dirs / "a", out)
        (out / "labels.csv").write_text("npi,label\n42,1\n43,0\n")
        self.check_error(
            capsys,
            ["--seed", "3", "--out-dir", str(out), *SPEED, "evaluate"],
            "ValidationError",
            f"{out / 'labels.csv'}: no label names a scored prescriber",
        )

    @staticmethod
    def run_cli(out: Path, command: str, extra: tuple[str, ...] = ()) -> subprocess.CompletedProcess:
        # the package warns through logging, which pytest's capture hides in process
        env = dict(os.environ, PYTHONPATH=str(Path(clevercatch.__file__).parents[1]))
        argv = ["-m", "clevercatch", "--seed", "3", "--out-dir", str(out), *SPEED, *extra, command]
        return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True)

    @pytest.mark.parametrize(
        ("command", "message"),
        [
            ("evaluate", "{labels}: no label names a scored prescriber"),
            ("train", "training needs at least one labeled prescriber"),
            ("ablate", "ablation needs labeled prescribers"),
        ],
        ids=["evaluate", "train", "ablate"],
    )
    def test_labels_that_name_no_prescriber_fail_on_one_stderr_line(
        self, pipeline_dirs, tmp_path, command, message
    ):
        # the warning about the skipped labels once came first
        out = tmp_path / "run"
        shutil.copytree(pipeline_dirs / "a", out)
        (out / "labels.csv").write_text("npi,label\n42,1\n43,0\n")
        result = self.run_cli(out, command)
        assert result.returncode == 1
        expected = "error: ValidationError: " + message.format(labels=out / "labels.csv")
        assert result.stderr.splitlines() == [expected]

    def test_skipped_labels_warn_once_the_command_succeeds(self, pipeline_dirs, tmp_path):
        out = tmp_path / "run"
        shutil.copytree(pipeline_dirs / "a", out)
        labels = out / "labels.csv"
        labels.write_text(labels.read_text() + "42,1\n")
        result = self.run_cli(out, "evaluate")
        assert result.returncode == 0, result.stderr
        assert result.stderr.splitlines() == [
            f"{labels}: skipped 1 labels for npis not among the 60 prescribers being labeled"
        ]

    def test_ablate_on_positive_only_labels(self, tmp_path, capsys):
        # without a held-out split these once trained every configuration before failing
        run_ok("simulate", tmp_path)
        header, *rows = (tmp_path / "labels.csv").read_text().splitlines(keepends=True)
        (tmp_path / "labels.csv").write_text(header + "".join(r for r in rows if r.rstrip().endswith(",1")))
        self.check_error(
            capsys,
            ["--seed", "3", "--out-dir", str(tmp_path), *SPEED,
             "--set", "ablation.eval_fraction=0", "ablate"],
            "UndefinedMetricError",
            "ranking metrics need a positive and a negative evaluated label",
        )
        assert not (tmp_path / "ablation_report.csv").exists()

    def test_evaluate_without_scores_writes_no_report(self, pipeline_dirs, tmp_path, capsys):
        # score writes scores.csv; evaluate has no second way to compute scores
        out = tmp_path / "run"
        shutil.copytree(pipeline_dirs / "a", out)
        outputs = ("scores.csv", "report.csv", "pr_curve.csv", "evaluate_manifest.json")
        for name in outputs:
            (out / name).unlink()
        self.check_error(
            capsys,
            ["--seed", "3", "--out-dir", str(out), *SPEED, "evaluate"],
            "ConfigError",
            f"no paths.scores configured and {out / 'scores.csv'} does not exist",
        )
        assert not any((out / name).exists() for name in outputs)

    def test_score_on_features_without_rows(self, pipeline_dirs, tmp_path, capsys):
        out = tmp_path / "run"
        shutil.copytree(pipeline_dirs / "a", out)
        features = out / "features.csv"
        features.write_text(features.read_text().splitlines(keepends=True)[0])
        for name in ("scores.csv", "score_manifest.json"):
            (out / name).unlink()
        self.check_error(
            capsys,
            ["--seed", "3", "--out-dir", str(out), *SPEED, "score"],
            "ParseError",
            f"{features}: no feature rows",
        )
        assert not (out / "scores.csv").exists() and not (out / "score_manifest.json").exists()

    @pytest.mark.parametrize(
        "command, artifact",
        [("pseudolabel", "pseudo_labels.csv"), ("train", "detector.json"), ("score", "scores.csv")],
    )
    def test_features_with_a_repeated_npi(self, pipeline_dirs, tmp_path, capsys, command, artifact):
        # score once wrote both rows, and evaluate failed one command late on scores.csv
        out = tmp_path / "run"
        shutil.copytree(pipeline_dirs / "a", out)
        features = out / "features.csv"
        header, first, *rest = features.read_text().splitlines(keepends=True)
        features.write_text(header + first + first + "".join(rest))
        for name in (artifact, f"{command}_manifest.json"):
            (out / name).unlink()
        npi = first.split(",")[0]
        self.check_error(
            capsys,
            ["--seed", "3", "--out-dir", str(out), *SPEED, command],
            "ParseError",
            f"{features}: line 3: duplicate npi {npi!r}",
        )
        assert not (out / artifact).exists() and not (out / f"{command}_manifest.json").exists()

    @pytest.mark.parametrize(
        "command, key, artifact",
        [("pretrain", "pretrain.epochs", "encoders.json"), ("train", "detector.epochs", "detector.json")],
    )
    def test_zero_epochs_fail_before_any_write(
        self, pipeline_dirs, tmp_path, capsys, command, key, artifact
    ):
        out = tmp_path / "run"
        shutil.copytree(pipeline_dirs / "a", out)
        (out / artifact).unlink()
        (out / f"{command}_manifest.json").unlink()
        self.check_error(
            capsys,
            ["--seed", "3", "--out-dir", str(out), *SPEED, "--set", f"{key}=0", command],
            "ConfigError",
            "epochs",
        )
        assert not (out / artifact).exists()
        assert not (out / f"{command}_manifest.json").exists()

    def test_error_in_an_ablation_worker(self, tmp_path, capsys):
        run_ok("simulate", tmp_path)
        assert len((tmp_path / "rules.csv").read_text().splitlines()) == 1 + 7
        # two triplets cannot cover seven rules: raised while pretraining in a worker process
        self.check_error(
            capsys,
            ["--seed", "3", "--out-dir", str(tmp_path), *SPEED,
             "--set", "pretrain.triplet_count=2", "ablate"],
            "ValidationError",
            "need at least 7 triplets to cover 7 rules, got 2",
        )
        assert multiprocessing.active_children() == []
        assert not (tmp_path / "ablation_report.csv").exists()

    def test_a_failed_ablate_prints_only_its_error_line(self, tmp_path):
        # full fails to pretrain; the minus-configurations, already running in workers,
        # train on and warn about unconverged plans, which once reached stderr first
        run_ok("simulate", tmp_path)
        extra = ("--set", "pretrain.triplet_count=5", "--set", "alignment.max_iters=1")
        result = self.run_cli(tmp_path, "ablate", extra)
        assert result.returncode == 1
        assert result.stderr.splitlines() == [
            "error: ValidationError: need at least 7 triplets to cover 7 rules, got 5"
        ]

    def test_ablate_drops_ks_beyond_the_held_out_labels(self, tmp_path, capsys):
        # 60 labeled prescribers, half held out: r@100 cannot be taken, as in evaluate
        run_ok("simulate", tmp_path)
        run_ok("ablate", tmp_path, ["--set", "evaluate.ks=5,100"])
        report = (tmp_path / "ablation_report.csv").read_text().splitlines()
        assert report[1] == "config,seed,pr_auc,r@5,precision,recall,f1"
        assert "r@100" not in capsys.readouterr().out
        self.check_error(
            capsys,
            ["--seed", "3", "--out-dir", str(tmp_path), *SPEED, "--set", "evaluate.ks=100", "ablate"],
            "ValidationError",
            "all ks in (100,) exceed the 30 labeled prescribers",
        )


BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("3", "3")])
def test_import_defaults_blas_threads_to_one(preset, expected):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = str(Path(clevercatch.__file__).parents[1])
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    probe = f"import json, os, clevercatch; print(json.dumps([os.environ[v] for v in {BLAS_THREAD_VARS!r}]))"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert json.loads(result.stdout) == ["1", expected, "1"]


def test_commands_and_ablation_workers_do_not_import_scipy():
    env = dict(os.environ, PYTHONPATH=str(Path(clevercatch.__file__).parents[1]))
    # a spawned ablate worker imports clevercatch.evaluation after the entry point
    probe = "import sys, clevercatch.cli, clevercatch.evaluation; print('scipy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"


def test_commands_leak_no_warning_to_stderr(tmp_path):
    # -W error turns any warning, numpy's "input contained no data" among them, into a crash
    env = dict(os.environ, PYTHONPATH=str(Path(clevercatch.__file__).parents[1]))

    def run(command):
        argv = [sys.executable, "-W", "error", "-m", "clevercatch", "--seed", "3", "--out-dir", str(tmp_path)]
        return subprocess.run([*argv, *SPEED, command], env=env, capture_output=True, text=True)

    for command in ("simulate", "featurize", "pretrain", "train", "score"):
        result = run(command)
        assert (result.returncode, result.stderr) == (0, ""), command
    features = tmp_path / "features.csv"
    features.write_text(features.read_text().splitlines(keepends=True)[0])
    result = run("score")
    assert result.returncode == 1
    assert result.stderr == f"error: ParseError: {features}: no feature rows\n"


def _set(doc, key, value):
    doc[key] = value


# faults in a model file that json.loads reads; each once raised a bare ValueError or TypeError
MODEL_FAULTS = {
    "encoders-latent-width-text": ("encoders.json", "pseudolabel", lambda doc: _set(doc, "L", "x")),
    "encoders-re-weights-list": ("encoders.json", "pseudolabel",
                                 lambda doc: _set(doc, "re_weights", list(doc["re_weights"].values()))),
    "encoders-null-embedding-text": ("encoders.json", "pseudolabel", lambda doc: _set(doc, "e_null", "abc")),
    "encoders-embedding-entry-text": ("encoders.json", "pseudolabel",
                                      lambda doc: _set(doc["re_weights"]["embedding"][0], 0, "a")),
    "detector-input-width-text": ("detector.json", "score", lambda doc: _set(doc, "input_width", "x")),
    "detector-lambda-text": ("detector.json", "score", lambda doc: _set(doc, "lambda", "x")),
    "detector-ragged-weight": ("detector.json", "score", lambda doc: doc["weights"][0]["weight"][0].pop()),
}


@pytest.mark.parametrize("name, command, edit", MODEL_FAULTS.values(), ids=MODEL_FAULTS.keys())
def test_a_malformed_model_file_is_one_parse_error_line(pipeline_dirs, tmp_path, capsys, name, command, edit):
    out = tmp_path / "run"
    shutil.copytree(pipeline_dirs / "a", out)
    doc = json.loads((out / name).read_text(encoding="utf-8"))
    edit(doc)
    (out / name).write_text(json.dumps(doc), encoding="utf-8")
    assert main(["--seed", "3", "--out-dir", str(out), *SPEED, command]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: ParseError: {out / name}: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("name, command", [
    ("claims.csv", "featurize"),
    ("rules.csv", "featurize"),
    ("labels.csv", "evaluate"),
    ("features.csv", "score"),
    ("scores.csv", "evaluate"),
    ("encoders.json", "pseudolabel"),
    ("detector.json", "score"),
])
def test_an_input_that_is_not_utf8_is_one_parse_error_line(pipeline_dirs, tmp_path, name, command):
    out = tmp_path / "run"
    shutil.copytree(pipeline_dirs / "a", out)
    with open(out / name, "ab") as handle:
        handle.write(b"\xff")
    env = dict(os.environ, PYTHONPATH=str(Path(clevercatch.__file__).parents[1]))
    argv = [sys.executable, "-m", "clevercatch", "--seed", "3", "--out-dir", str(out), *SPEED, command]
    result = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert (result.returncode, result.stderr) == (1, f"error: ParseError: {out / name}: not UTF-8 text\n")


@pytest.mark.parametrize("setting, section, message", [
    ("pretrain.se_hidden=0", "pretrain", "encoder dimensions and hidden widths"),
    ("pretrain.re_hidden=0", "pretrain", "encoder dimensions and hidden widths"),
    ("pretrain.se_hidden=-3", "pretrain", "encoder dimensions and hidden widths"),
    ("detector.hidden=64,0", "detector", "epochs, batch size and hidden widths"),
])
def test_a_hidden_width_below_one_is_one_config_error_line(tmp_path, setting, section, message):
    env = dict(os.environ, PYTHONPATH=str(Path(clevercatch.__file__).parents[1]))
    argv = [sys.executable, "-m", "clevercatch", "--out-dir", str(tmp_path), "--set", setting, "pretrain"]
    result = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert result.returncode == 1
    assert result.stderr == f"error: ConfigError: [{section}] {message} must be positive\n"


class TestEncoderBinding:
    """pseudolabel and train bind rules to the encoders' drug names, not to claims.csv."""

    def test_claims_row_order_does_not_move_outputs(self, tmp_path):
        out = tmp_path / "run"
        for command in ("simulate", "featurize", "pretrain", "pseudolabel", "train"):
            run_ok(command, out)
        before = {name: (out / name).read_bytes() for name in ("pseudo_labels.csv", "detector.json")}
        claims = out / "claims.csv"
        header, *rows = claims.read_text(encoding="utf-8").splitlines(keepends=True)
        permuted = [rows[i] for i in np.random.default_rng(0).permutation(len(rows))]
        claims.write_text(header + "".join(permuted), encoding="utf-8")
        # the permuted file meets the drugs in another order, which once
        # reassigned every embedding row to another drug
        trained_on = json.loads((out / "encoders.json").read_text())["drugs"]
        assert parse_claims_csv(claims).drugs != Vocabulary(trained_on)
        for command in ("pseudolabel", "train"):
            run_ok(command, out)
        claims.unlink()  # neither command reads claims at all
        for command in ("pseudolabel", "train"):
            run_ok(command, out)
            doc = json.loads((out / f"{command}_manifest.json").read_text())
            assert "claims" not in doc["inputs"]
        for name, data in before.items():
            assert (out / name).read_bytes() == data, name

    def test_rule_on_a_drug_without_embedding(self, tmp_path, capsys):
        out = tmp_path / "run"
        for command in ("simulate", "featurize", "pretrain"):
            run_ok(command, out)
        rules = out / "rules.csv"
        rules.write_text(rules.read_text() + "unary,NotADrug,,0.5\n")
        assert main(["--seed", "3", "--out-dir", str(out), *SPEED, "pseudolabel"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ParseError: ") and "unknown drug name 'NotADrug'" in err
