"""INI run configuration: parsing, typed overrides, and rejection messages."""

import pytest

from clevercatch.config import (
    _SECTION_SPECS,
    PATH_KEYS,
    RunConfig,
    _dataclass_kinds,
    load_config,
)
from clevercatch.errors import ConfigError


def write_ini(tmp_path, text: str):
    path = tmp_path / "run.ini"
    path.write_text(text)
    return path


class TestDefaults:
    def test_empty_config_is_all_defaults(self):
        cfg = load_config()
        assert cfg == RunConfig()
        assert cfg.simulator.n_providers == 2000
        assert cfg.pretrain.latent_dim == 32
        assert cfg.detector.lam == 0.5
        assert cfg.evaluate.ks == (10, 20, 50, 100)
        assert cfg.ablation.groups == ("cost_preference", "opioid")
        assert cfg.paths == {}

    def test_path_accessors(self):
        cfg = RunConfig(paths={"claims": "/data/claims.csv"})
        assert cfg.has_path("claims")
        assert str(cfg.path("claims")) == "/data/claims.csv"
        assert not cfg.has_path("rules")
        with pytest.raises(ConfigError, match="missing paths.rules"):
            cfg.path("rules")
        with pytest.raises(ConfigError, match="unknown path key"):
            cfg.path("nonsense")


class TestIniParsing:
    def test_sections_map_to_stage_configs(self, tmp_path):
        path = write_ini(
            tmp_path,
            """
            [paths]
            claims = /tmp/claims.csv
            out_dir = /tmp/out

            [simulator]
            n_providers = 500
            fraud_rate = 0.1

            [pretrain]
            latent_dim = 16
            margin = 2.5

            [alignment]
            epsilon_scale = 0.1
            weighted_marginals = yes

            [detector]
            lambda = 0.25
            epochs = 7

            [evaluate]
            ks = 5, 10
            threshold = 0.4

            [ablation]
            groups = opioid
            seeds = 1, 2, 3
            eval_fraction = 0.5
            """,
        )
        cfg = load_config(path)
        assert cfg.paths == {"claims": "/tmp/claims.csv", "out_dir": "/tmp/out"}
        assert cfg.simulator.n_providers == 500
        assert cfg.simulator.fraud_rate == 0.1
        assert cfg.simulator.n_drugs == 24  # untouched default
        assert cfg.pretrain.latent_dim == 16
        assert cfg.pretrain.margin == 2.5
        assert cfg.alignment.epsilon_scale == 0.1
        assert cfg.alignment.weighted_marginals is True
        assert cfg.detector.lam == 0.25
        assert cfg.detector.epochs == 7
        assert cfg.evaluate.ks == (5, 10)
        assert cfg.evaluate.threshold == 0.4
        assert cfg.ablation.groups == ("opioid",)
        assert cfg.ablation.seeds == (1, 2, 3)
        assert cfg.ablation.eval_fraction == 0.5

    def test_unknown_section_and_keys(self, tmp_path):
        with pytest.raises(ConfigError, match=r"unknown config section \[wat\]"):
            load_config(write_ini(tmp_path, "[wat]\nx = 1\n"))
        with pytest.raises(ConfigError, match="unknown key simulator.bogus"):
            load_config(write_ini(tmp_path, "[simulator]\nbogus = 1\n"))
        with pytest.raises(ConfigError, match="unknown key paths.bogus"):
            load_config(write_ini(tmp_path, "[paths]\nbogus = x\n"))
        # features.channels is gone: the 15R layout is the only one
        with pytest.raises(ConfigError, match=r"unknown config section \[features\]"):
            load_config(write_ini(tmp_path, "[features]\nchannels = full\n"))

    def test_bad_values_name_section_and_key(self, tmp_path):
        with pytest.raises(ConfigError, match="simulator.n_providers"):
            load_config(write_ini(tmp_path, "[simulator]\nn_providers = many\n"))
        with pytest.raises(ConfigError, match="alignment.weighted_marginals"):
            load_config(write_ini(tmp_path, "[alignment]\nweighted_marginals = maybe\n"))

    @pytest.mark.parametrize("section,key", [
        (section, key) for section, (cls, _) in _SECTION_SPECS.items()
        for key, kind in _dataclass_kinds(cls).items() if kind is float
    ])
    @pytest.mark.parametrize("text", ["nan", "inf", "-Infinity"])
    def test_non_finite_floats_rejected_from_file_and_override(self, tmp_path, section, key, text):
        message = rf"^{section}\.{key}: must be finite, got '{text}'$"
        with pytest.raises(ConfigError, match=message):
            load_config(write_ini(tmp_path, f"[{section}]\n{key} = {text}\n"))
        with pytest.raises(ConfigError, match=message):
            load_config(overrides=[f"{section}.{key}={text}"])

    def test_stage_validation_errors_become_config_errors(self, tmp_path):
        with pytest.raises(ConfigError, match=r"\[simulator\]"):
            load_config(write_ini(tmp_path, "[simulator]\nboost = 0.5\n"))
        with pytest.raises(ConfigError, match=r"\[ablation\] unknown ablation group 'bogus'"):
            load_config(write_ini(tmp_path, "[ablation]\ngroups = bogus\n"))
        with pytest.raises(ConfigError, match=r"\[ablation\] ablation groups must be distinct"):
            load_config(None, ["ablation.groups=opioid,opioid"])

    @pytest.mark.parametrize("ks", ["10,10", "100,10", "10,50,20"])
    def test_ks_must_be_distinct_and_ascending(self, tmp_path, ks):
        # a repeated k would write two r@k report columns, and ablate reports
        # recall at the last k as the largest
        message = r"^\[evaluate\] ks must be distinct and ascending$"
        with pytest.raises(ConfigError, match=message):
            load_config(write_ini(tmp_path, f"[evaluate]\nks = {ks}\n"))
        with pytest.raises(ConfigError, match=message):
            load_config(overrides=[f"evaluate.ks={ks}"])

    def test_ablation_seeds_must_be_distinct(self, tmp_path):
        # a repeated seed would train every configuration twice and write its rows twice
        message = r"^\[ablation\] ablation seeds must be distinct$"
        with pytest.raises(ConfigError, match=message):
            load_config(write_ini(tmp_path, "[ablation]\nseeds = 3, 1, 3\n"))
        with pytest.raises(ConfigError, match=message):
            load_config(overrides=["ablation.seeds=3,3"])

    def test_empty_groups_select_full_and_lambda0_only(self, tmp_path):
        # the hybrid against supervised-only comparison in the README
        assert load_config(overrides=["ablation.groups="]).ablation.groups == ()
        assert load_config(write_ini(tmp_path, "[ablation]\ngroups =\n")).ablation.groups == ()

    def test_malformed_ini_reports_the_file(self, tmp_path):
        path = write_ini(tmp_path, "not an ini file at all\n")
        with pytest.raises(ConfigError, match="run.ini"):
            load_config(path)


class TestOverrides:
    def test_overrides_apply_without_a_file(self):
        cfg = load_config(overrides=["simulator.n_years=4", "detector.lambda=0"])
        assert cfg.simulator.n_years == 4
        assert cfg.detector.lam == 0.0

    def test_overrides_beat_file_values(self, tmp_path):
        path = write_ini(tmp_path, "[simulator]\nn_providers = 500\nn_years = 2\n")
        cfg = load_config(path, overrides=["simulator.n_providers=250"])
        assert cfg.simulator.n_providers == 250
        assert cfg.simulator.n_years == 2

    def test_simulator_seed_is_not_a_setting(self, tmp_path):
        # simulate derives its seed from --seed; a configured one was ignored
        with pytest.raises(ConfigError, match="unknown key simulator.seed"):
            load_config(overrides=["simulator.seed=123"])
        with pytest.raises(ConfigError, match="unknown key simulator.seed"):
            load_config(write_ini(tmp_path, "[simulator]\nseed = 1\n"))

    def test_override_paths(self):
        cfg = load_config(overrides=["paths.scores=/tmp/s.csv"])
        assert cfg.paths["scores"] == "/tmp/s.csv"
        with pytest.raises(ConfigError, match=r"unknown config section \[features\]"):
            load_config(overrides=["features.channels=full"])

    def test_value_may_contain_equals_sign(self):
        cfg = load_config(overrides=["paths.out_dir=/tmp/a=b"])
        assert cfg.paths["out_dir"] == "/tmp/a=b"

    def test_malformed_override_rejected(self):
        for bad in ["simulator.seed", "seed=1", "=1", "simulator=1"]:
            with pytest.raises(ConfigError, match="must look like section.key=value"):
                load_config(overrides=[bad])

    def test_unknown_override_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key pretrain.n_triplets"):
            load_config(overrides=["pretrain.n_triplets=10"])


class TestPathKeys:
    def test_all_documented_keys_accepted(self, tmp_path):
        lines = "\n".join(f"{key} = /tmp/{key}" for key in PATH_KEYS)
        cfg = load_config(write_ini(tmp_path, f"[paths]\n{lines}\n"))
        assert set(cfg.paths) == set(PATH_KEYS)
