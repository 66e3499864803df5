"""Synthetic claims generator: determinism, planted signal, and file output."""

import json

import numpy as np
import pytest

from clevercatch.errors import ValidationError
from clevercatch.features import build_feature_matrix
from clevercatch.ingest import parse_claims_csv, parse_labels
from clevercatch.rules import RuleSet, parse_rules
from clevercatch.simulator import SimConfig, generate, write_sim_data


def small_config(**overrides) -> SimConfig:
    base = dict(n_providers=150, n_drugs=24, fraud_rate=0.2, seed=7)
    base.update(overrides)
    return SimConfig(**base)


class TestDeterminism:
    def test_generate_is_reproducible(self):
        cfg = small_config(n_providers=40)
        a, b = generate(cfg), generate(cfg)
        assert a.rows == b.rows
        np.testing.assert_array_equal(a.truth.labels, b.truth.labels)
        assert a.truth.scenarios == b.truth.scenarios
        assert a.truth.prices == b.truth.prices

    def test_written_files_are_byte_identical(self, tmp_path):
        cfg = small_config(n_providers=40)
        _, paths_a = write_sim_data(cfg, tmp_path / "a")
        _, paths_b = write_sim_data(cfg, tmp_path / "b")
        assert paths_a.keys() == paths_b.keys()
        for key in paths_a:
            assert paths_a[key].read_bytes() == paths_b[key].read_bytes(), key

    def test_seed_changes_the_data(self):
        a = generate(small_config(n_providers=40, seed=1))
        b = generate(small_config(n_providers=40, seed=2))
        assert a.rows != b.rows

    def test_rules_depend_only_on_drug_count_and_rule_weight(self, tmp_path):
        a = generate(small_config(n_providers=50, seed=1))
        b = generate(small_config(n_providers=80, seed=9))
        assert a.truth.rules == b.truth.rules
        _, paths_a = write_sim_data(small_config(n_providers=50, seed=1), tmp_path / "a")
        _, paths_b = write_sim_data(small_config(n_providers=80, seed=9), tmp_path / "b")
        assert paths_a["rules"].read_bytes() == paths_b["rules"].read_bytes()
        c = generate(small_config(n_providers=50, seed=1, n_drugs=32))
        assert c.truth.rules != a.truth.rules


class TestGroundTruth:
    def test_prevalence_and_scenario_mix(self):
        data = generate(small_config())
        # round(0.2 * 150) fraud providers, round(0.7 * 30) of them cost-type.
        assert int(data.truth.labels.sum()) == 30
        scenarios = list(data.truth.scenarios.values())
        assert len(scenarios) == 30
        kinds = [s["scenario"] for s in scenarios]
        assert kinds.count("cost_preference") == 21
        assert kinds.count("opioid") == 9

    def test_labels_match_scenarios(self):
        data = generate(small_config())
        flagged = {npi for npi, label in zip(data.truth.npis, data.truth.labels) if label}
        assert flagged == set(data.truth.scenarios)

    def test_scenario_pairs_come_from_planted_pairs(self):
        data = generate(small_config())
        pairs = set(map(tuple, data.truth.pairs))
        for info in data.truth.scenarios.values():
            if info["scenario"] == "cost_preference":
                assert tuple(info["pair"]) in pairs
            else:
                assert info["drugs"] == data.truth.opioid_drugs

    def test_rule_inventory(self):
        data = generate(small_config())
        # 24 drugs: 3 equivalence pairs and 4 opioid drugs.
        binary = [r for r in data.truth.rules if r.kind == "binary"]
        unary = [r for r in data.truth.rules if r.kind == "unary"]
        assert [(r.p, r.q) for r in binary] == data.truth.pairs
        assert [r.p for r in unary] == data.truth.opioid_drugs
        assert all(0 < r.weight <= 1 for r in data.truth.rules)
        assert {r.weight for r in unary} == {data.config.opioid_rule_weight}

    def test_pair_prices_keep_the_planted_gap(self):
        data = generate(small_config())
        gaps = {(p, q): None for p, q in data.truth.pairs}
        for (p, q), _ in gaps.items():
            ratio = data.truth.prices[p] / data.truth.prices[q]
            assert ratio > 1.5  # every planted gap is at least 0.6


class TestCoverageGuards:
    @pytest.mark.parametrize("seed", range(4))
    def test_every_rule_drug_appears_in_the_rows(self, seed):
        # A single sparse provider leaves many drugs unsampled; guard rows
        # must still make every rule drug parseable and bindable.
        cfg = SimConfig(n_providers=1, n_years=1, fraud_rate=0.0, seed=seed)
        data = generate(cfg)
        row_drugs = {r.drug for r in data.rows}
        for rule in data.truth.rules:
            assert rule.p in row_drugs
            if rule.q is not None:
                assert rule.q in row_drugs

    def test_guard_rows_are_minimal_single_claims(self):
        cfg = SimConfig(n_providers=1, n_years=1, fraud_rate=0.0, seed=0)
        data = generate(cfg)
        multinomial_drugs = set()
        guards = []
        for row in data.rows:
            if row.claims == 1 and row.fills == 1 and row.bene == 1 and (
                row.cost == round(data.truth.prices[row.drug], 2)
            ):
                guards.append(row)
            else:
                multinomial_drugs.add(row.drug)
        rule_drugs = {r.p for r in data.truth.rules} | {
            r.q for r in data.truth.rules if r.q is not None
        }
        assert rule_drugs - multinomial_drugs <= {g.drug for g in guards}
        for g in guards:
            assert g.year == cfg.base_year
            assert g.days == 30


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    data, paths = write_sim_data(small_config(), out)
    claims = parse_claims_csv(paths["claims"])
    ruleset = parse_rules(paths["rules"], claims.drugs)
    features = build_feature_matrix(claims, ruleset)
    labels = parse_labels(paths["labels"], claims.prescribers)
    return data, claims, ruleset, features, labels


class TestPlantedSignal:
    def test_files_parse_and_bind(self, pipeline):
        data, claims, ruleset, features, labels = pipeline
        assert claims.prescribers.size == 150
        assert len(ruleset) == len(data.truth.rules)
        assert features.values.shape[1] == 15 * len(ruleset)
        assert labels.n_labeled == 150
        np.testing.assert_array_equal(
            labels.labels, data.truth.labels[labels.idx]
        )

    def test_claims_totals_survive_the_round_trip(self, pipeline):
        data, claims, _, _, _ = pipeline
        assert int(claims.metrics[:, 0].sum()) == sum(r.claims for r in data.rows)

    def test_cost_preference_providers_show_positive_pair_contrast(self, pipeline):
        data, claims, ruleset, features, _ = pipeline
        rule_pos = {(r.p, r.q): j for j, r in enumerate(ruleset.rules)}
        honest = [
            i
            for i, npi in enumerate(features.npis)
            if npi not in data.truth.scenarios
        ]
        planted_values = []
        for npi, info in data.truth.scenarios.items():
            if info["scenario"] != "cost_preference":
                continue
            j = rule_pos[tuple(info["pair"])]
            col = features.columns.index(f"rule{j + 1}_clm_mean")
            row = features.npis.index(npi)
            value = features.values[row, col]
            # Planted split is boost:1 over at least pair_floor of the mass.
            assert value > 0.0
            planted_values.append(value)
            honest_mean = float(features.values[honest, col].mean())
            assert value > honest_mean
        assert np.mean(planted_values) > 0.1

    def test_opioid_providers_show_elevated_unary_shares(self, pipeline):
        data, claims, ruleset, features, _ = pipeline
        unary_cols = [
            features.columns.index(f"rule{j + 1}_clm_mean")
            for j, r in enumerate(ruleset.rules)
            if r.kind == "unary"
        ]
        opioid_rows = [
            features.npis.index(npi)
            for npi, info in data.truth.scenarios.items()
            if info["scenario"] == "opioid"
        ]
        honest_rows = [
            i for i, npi in enumerate(features.npis) if npi not in data.truth.scenarios
        ]
        planted = features.values[np.ix_(opioid_rows, unary_cols)].sum(axis=1).mean()
        honest = features.values[np.ix_(honest_rows, unary_cols)].sum(axis=1).mean()
        assert planted > 2.0 * honest


class TestOutputFiles:
    def test_ground_truth_manifest(self, tmp_path):
        data, paths = write_sim_data(small_config(n_providers=40), tmp_path)
        manifest = json.loads(paths["ground_truth"].read_text())
        assert manifest["config"]["n_providers"] == 40
        assert set(manifest["config"]) >= {"seed", "fraud_rate", "boost"}
        for key in ("claims", "labels", "rules", "ground_truth"):
            assert paths[key].exists()

    def test_claims_csv_costs_have_two_decimals(self, tmp_path):
        _, paths = write_sim_data(small_config(n_providers=10), tmp_path)
        lines = paths["claims"].read_text().splitlines()
        header = lines[0].split(",")
        cost_col = header.index("total_cost")
        for line in lines[1:]:
            cost = line.split(",")[cost_col]
            assert "." in cost and len(cost.split(".")[1]) == 2


class TestConfigValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"n_providers": 0},
            {"n_years": 0},
            {"n_drugs": 3},
            {"fraud_rate": 1.0},
            {"fraud_rate": -0.1},
            {"n_providers": 10, "fraud_rate": 0.04},
            {"scenario_mix": 1.2},
            {"boost": 1.0},
            {"dirichlet_alpha": 0.0},
            {"pair_floor": 1.0},
            {"price_median": 0.0},
            {"min_volume": 0},
            {"opioid_rule_weight": 1.5},
        ],
    )
    def test_bad_values_rejected(self, overrides):
        with pytest.raises(ValidationError):
            SimConfig(**{**dict(seed=0), **overrides})
