"""The walkthroughs in scripts/ and the README's "Library use" block run."""

import subprocess
import sys
from pathlib import Path

from clevercatch.simulator import SimConfig, write_sim_data

ROOT = Path(__file__).resolve().parents[1]


def test_run_pipeline_script_smoke(tmp_path):
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_pipeline.py"),
         "--seed", "0", "--providers", "300", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    for name in (
        "claims.csv", "labels.csv", "rules.csv", "ground_truth.json",
        "pseudo_labels.csv", "scores.csv", "pr_curve.csv", "report.csv",
    ):
        assert (tmp_path / name).stat().st_size > 0, name
    assert "features: 300 x " in result.stdout
    assert "alignment lift at r@100" in result.stdout


def test_run_ablation_script_smoke(tmp_path):
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_ablation.py"),
         "--seeds", "0", "--providers", "300", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    report = (tmp_path / "ablation_report.csv").read_text()
    for config in ("full", "minus-cost", "minus-opioid", "lambda0"):
        assert f"\n{config},0," in report
        assert f"seed 0 {config:>13}: pr_auc " in result.stdout
    assert "# delta vs full: config=minus-cost seed=0" in report
    assert (tmp_path / "seed0" / "claims.csv").stat().st_size > 0


def test_readme_library_use_block_runs(tmp_path, monkeypatch, library_use_block):
    write_sim_data(SimConfig(n_providers=300, seed=0), tmp_path)
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(library_use_block, "README.md", "exec"), namespace)
    assert namespace["ranked"].scores.shape == (300,)
