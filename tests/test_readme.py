"""The README's "Library use" block runs as written."""

import math

from clevercatch.simulator import SimConfig, write_sim_data


def test_readme_library_use_block_runs(tmp_path, monkeypatch, library_use_block):
    write_sim_data(SimConfig(n_providers=300, seed=0), tmp_path)
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(library_use_block, "README.md", "exec"), namespace)
    assert namespace["ranked"].scores.shape == (300,)
    pseudo_ap = namespace["pseudo_ap"]
    assert math.isfinite(pseudo_ap) and 0.0 < pseudo_ap <= 1.0
