"""Rule-contrast features against an independent brute-force oracle."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clevercatch import io_utils, nn
from clevercatch.errors import ParseError, ValidationError
from clevercatch.features import (
    BLOCK,
    FeatureMatrix,
    aggregate_over_years,
    build_feature_matrix,
    compute_shares,
    feature_columns,
    read_features_csv,
    write_features_csv,
)
from clevercatch.ingest import CHANNELS
from clevercatch.rules import Rule, RuleSet
from clevercatch.vocab import Vocabulary

from conftest import make_claims, random_claims, random_ruleset
from oracles import rule_contrast

N_CHANNELS = len(CHANNELS)


def brute_force_features(claims, ruleset):
    """Dict-based reimplementation of shares, contrasts, and aggregation."""
    totals = {}
    sums = {}
    for pos in range(claims.n_records):
        i = int(claims.npi_idx[pos])
        t = int(claims.year[pos])
        d = int(claims.drug_idx[pos])
        for m in range(N_CHANNELS):
            value = float(claims.metrics[pos, m])
            totals[(i, t, d, m)] = totals.get((i, t, d, m), 0.0) + value
            sums[(i, t, m)] = sums.get((i, t, m), 0.0) + value

    def share(i, t, d, m):
        s = sums.get((i, t, m), 0.0)
        if s == 0.0:
            return 0.0
        return totals.get((i, t, d, m), 0.0) / s

    n = claims.prescribers.size
    out = np.zeros((n, BLOCK * len(ruleset)))
    for i in range(n):
        years = sorted({int(t) for pi, t in zip(claims.npi_idx, claims.year) if pi == i})
        if not years:
            continue
        col = 0
        for j, rule in enumerate(ruleset.rules):
            p = claims.drugs.index(rule.p)
            q = claims.drugs.index(rule.q) if rule.q is not None else None
            for m in range(N_CHANNELS):
                deltas = []
                for t in years:
                    value = share(i, t, p, m)
                    if q is not None:
                        value -= share(i, t, q, m)
                    deltas.append(value)
                out[i, col] = min(deltas)
                out[i, col + 1] = sum(deltas) / len(deltas)
                out[i, col + 2] = max(deltas)
                col += 3
    return out


def test_single_prescriber_share_example():
    claims = make_claims(
        [
            ("N0", 2019, "A", 20, 0, 0, 0, 0),
            ("N0", 2019, "B", 80, 0, 0, 0, 0),
        ]
    )
    shares = compute_shares(claims)
    drug_idx, values = shares.groups[(0, 2019)]
    assert drug_idx.tolist() == [0, 1]
    assert values[:, 0].tolist() == [0.2, 0.8]
    # channels with an all-zero total give all-zero shares
    assert values[:, 1].tolist() == [0.0, 0.0]


def test_contrast_and_unary_examples():
    claims = make_claims(
        [
            ("N0", 2019, "A", 70, 0, 0, 0, 0),
            ("N0", 2019, "B", 10, 0, 0, 0, 0),
            ("N0", 2019, "C", 20, 0, 0, 0, 0),
        ]
    )
    shares = compute_shares(claims)
    binary = Rule("binary", "A", "B", 1.0)
    unary = Rule("unary", "C", None, 1.0)
    assert rule_contrast(shares, binary, 0, 2019)[0] == pytest.approx(0.6)
    assert rule_contrast(shares, unary, 0, 2019)[0] == pytest.approx(0.2)
    # a prescriber-year with no records contrasts to zero
    assert rule_contrast(shares, binary, 0, 2028).tolist() == [0.0] * N_CHANNELS


def test_aggregate_over_years_example():
    values = np.array([[-0.1], [0.2], [0.5]])
    stats = aggregate_over_years(values)
    assert stats[0].tolist() == pytest.approx([-0.1, 0.2, 0.5], abs=1e-15)
    with pytest.raises(ValidationError):
        aggregate_over_years(np.empty((0, 1)))


def test_feature_columns_layout():
    cols = feature_columns(2)
    assert len(cols) == 2 * BLOCK
    assert cols[0] == "rule1_clm_min"
    assert cols[1] == "rule1_clm_mean"
    assert cols[2] == "rule1_clm_max"
    assert cols[3] == "rule1_fill30_min"
    assert cols[BLOCK] == "rule2_clm_min"
    assert feature_columns(3, "mean-claims-only") == (
        "rule1_clm_mean",
        "rule2_clm_mean",
        "rule3_clm_mean",
    )
    with pytest.raises(ValidationError):
        feature_columns(1, "everything")


def test_width_formula():
    # 5 channels x 3 statistics per rule; 413 rules would give 6195 columns
    assert BLOCK == 15
    assert len(feature_columns(413)) == 6195


def test_matches_brute_force_oracle():
    rng = nn.make_rng(11)
    for trial in range(20):
        claims = random_claims(
            rng,
            n_prescribers=int(rng.integers(1, 11)),
            n_drugs=int(rng.integers(2, 7)),
            n_years=int(rng.integers(1, 4)),
        )
        ruleset = random_ruleset(rng, claims.drugs, int(rng.integers(1, 6)))
        features = build_feature_matrix(claims, ruleset)
        oracle = brute_force_features(claims, ruleset)
        assert np.max(np.abs(features.values - oracle)) < 1e-12, f"trial {trial}"


def test_zero_denominator_channel():
    claims = make_claims(
        [
            ("N0", 2019, "A", 10, 0, 0, 100.0, 0),
            ("N0", 2019, "B", 30, 0, 0, 300.0, 0),
        ]
    )
    ruleset = RuleSet([Rule("binary", "A", "B", 1.0)], claims.drugs)
    features = build_feature_matrix(claims, ruleset)
    oracle = brute_force_features(claims, ruleset)
    assert np.max(np.abs(features.values - oracle)) < 1e-12
    # fill30, days, bene channels all zero-sum: their contrasts are exactly 0
    cols = dict(zip(features.columns, features.values[0]))
    assert cols["rule1_fill30_mean"] == 0.0
    assert cols["rule1_days_max"] == 0.0
    assert cols["rule1_bene_min"] == 0.0
    assert cols["rule1_clm_mean"] == pytest.approx(-0.5)
    assert cols["rule1_cost_mean"] == pytest.approx(-0.5)


def test_mean_claims_only_matches_full():
    rng = nn.make_rng(5)
    claims = random_claims(rng, 6, 5, 3)
    ruleset = random_ruleset(rng, claims.drugs, 4)
    full = build_feature_matrix(claims, ruleset)
    slim = build_feature_matrix(claims, ruleset, "mean-claims-only")
    assert slim.width == len(ruleset)
    for j in range(len(ruleset)):
        full_col = full.columns.index(f"rule{j + 1}_clm_mean")
        assert np.allclose(slim.values[:, j], full.values[:, full_col], atol=1e-15)


def test_vocabulary_binding_enforced():
    claims = make_claims([("N0", 2019, "A", 1, 1, 1, 1, 1)])
    other_vocab = Vocabulary(["A", "B"])
    ruleset = RuleSet([Rule("unary", "A", None, 1.0)], other_vocab)
    with pytest.raises(ValidationError, match="vocabulary"):
        build_feature_matrix(claims, ruleset)


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10_000))
def test_features_bounded_and_antisymmetric(seed):
    rng = nn.make_rng(seed)
    claims = random_claims(rng, 4, 4, 2)
    vocab = claims.drugs
    forward = RuleSet([Rule("binary", vocab.names[0], vocab.names[1], 1.0)], vocab)
    backward = RuleSet([Rule("binary", vocab.names[1], vocab.names[0], 1.0)], vocab)
    f = build_feature_matrix(claims, forward).values
    b = build_feature_matrix(claims, backward).values
    assert np.all(f >= -1.0) and np.all(f <= 1.0)
    # swapping p and q negates every contrast, so min/max swap and negate
    stat_of = {"min": 0, "mean": 1, "max": 2}
    for m in range(N_CHANNELS):
        base = 3 * m
        assert np.allclose(f[:, base + stat_of["mean"]], -b[:, base + stat_of["mean"]], atol=1e-15)
        assert np.allclose(f[:, base + stat_of["min"]], -b[:, base + stat_of["max"]], atol=1e-15)
        assert np.allclose(f[:, base + stat_of["max"]], -b[:, base + stat_of["min"]], atol=1e-15)


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 10_000))
def test_shares_sum_to_one_or_zero(seed):
    rng = nn.make_rng(seed)
    claims = random_claims(rng, 3, 5, 2)
    shares = compute_shares(claims)
    for (_, _), (_, values) in shares.groups.items():
        sums = values.sum(axis=0)
        for m in range(N_CHANNELS):
            assert sums[m] == pytest.approx(1.0, abs=1e-12) or sums[m] == 0.0


def test_feature_csv_round_trip(tmp_path):
    rng = nn.make_rng(2)
    claims = random_claims(rng, 5, 4, 2)
    ruleset = random_ruleset(rng, claims.drugs, 3)
    features = build_feature_matrix(claims, ruleset)
    path = tmp_path / "features.csv"
    write_features_csv(features, path)
    again = read_features_csv(path)
    assert again.columns == features.columns
    assert again.npis == features.npis
    assert np.array_equal(again.values, features.values)  # %.17g is lossless
    bad = tmp_path / "bad.csv"
    bad.write_text("wrong,header\n", encoding="utf-8")
    with pytest.raises(ParseError):
        read_features_csv(bad)


def test_write_features_csv_leaves_earlier_file_on_failure(tmp_path, monkeypatch):
    rng = nn.make_rng(4)
    claims = random_claims(rng, 4, 3, 2)
    features = build_feature_matrix(claims, random_ruleset(rng, claims.drugs, 2))
    path = tmp_path / "features.csv"
    write_features_csv(features, path)
    before = path.read_bytes()

    def fail(src, dst):
        raise OSError("no space left on device")

    monkeypatch.setattr(io_utils.os, "replace", fail)
    doubled = FeatureMatrix(2.0 * features.values, features.columns, features.npis)
    with pytest.raises(OSError):
        write_features_csv(doubled, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["features.csv"]
