"""Rule-contrast features against the per-prescriber reference and a brute-force oracle."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from clevercatch import io_utils, nn
from clevercatch.errors import ParseError, ValidationError
from clevercatch.features import (
    BLOCK,
    FeatureMatrix,
    build_feature_matrix,
    feature_columns,
    read_features_csv,
    write_features_csv,
)
from clevercatch.ingest import CHANNELS, ClaimsTable
from clevercatch.rules import Rule, RuleSet
from clevercatch.vocab import Vocabulary

from conftest import make_claims, random_claims, random_ruleset

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
    shares = oracles.compute_shares(claims)
    drug_idx, values = shares.groups[(0, 2019)]
    assert drug_idx.tolist() == [0, 1]
    assert values[:, 0].tolist() == [0.2, 0.8]
    # channels with an all-zero total give all-zero shares
    assert values[:, 1].tolist() == [0.0, 0.0]
    ruleset = RuleSet([Rule("unary", "A", None, 1.0), Rule("unary", "B", None, 1.0)], claims.drugs)
    features = build_feature_matrix(claims, ruleset)
    cols = dict(zip(features.columns, features.values[0]))
    assert [cols["rule1_clm_min"], cols["rule1_clm_mean"], cols["rule1_clm_max"]] == [0.2] * 3
    assert cols["rule2_clm_mean"] == 0.8
    assert cols["rule1_fill30_mean"] == cols["rule2_bene_max"] == 0.0


def test_contrast_and_unary_examples():
    claims = make_claims(
        [
            ("N0", 2019, "A", 70, 0, 0, 0, 0),
            ("N0", 2019, "B", 10, 0, 0, 0, 0),
            ("N0", 2019, "C", 20, 0, 0, 0, 0),
        ]
    )
    shares = oracles.compute_shares(claims)
    binary = Rule("binary", "A", "B", 1.0)
    unary = Rule("unary", "C", None, 1.0)
    assert oracles.rule_contrast(shares, binary, 0, 2019)[0] == pytest.approx(0.6)
    assert oracles.rule_contrast(shares, unary, 0, 2019)[0] == pytest.approx(0.2)
    # a prescriber-year with no records contrasts to zero
    assert oracles.rule_contrast(shares, binary, 0, 2028).tolist() == [0.0] * N_CHANNELS
    features = build_feature_matrix(claims, RuleSet([binary, unary], claims.drugs))
    cols = dict(zip(features.columns, features.values[0]))
    assert cols["rule1_clm_mean"] == pytest.approx(0.6)
    assert cols["rule2_clm_mean"] == pytest.approx(0.2)


def test_aggregate_over_years_example():
    # the A-over-B contrast is -0.1, 0.2 and 0.5 in three years
    claims = make_claims(
        [
            ("N0", 2019, "A", 45, 0, 0, 0, 0),
            ("N0", 2019, "B", 55, 0, 0, 0, 0),
            ("N0", 2020, "A", 60, 0, 0, 0, 0),
            ("N0", 2020, "B", 40, 0, 0, 0, 0),
            ("N0", 2021, "A", 75, 0, 0, 0, 0),
            ("N0", 2021, "B", 25, 0, 0, 0, 0),
        ]
    )
    ruleset = RuleSet([Rule("binary", "A", "B", 1.0)], claims.drugs)
    values = build_feature_matrix(claims, ruleset).values[0]
    assert values[:3].tolist() == pytest.approx([-0.1, 0.2, 0.5], abs=1e-15)
    shares = oracles.compute_shares(claims)
    per_year = np.array([oracles.rule_contrast(shares, ruleset.rules[0], 0, t) for t in (2019, 2020, 2021)])
    assert np.array_equal(values.reshape(N_CHANNELS, 3), oracles.aggregate_over_years(per_year))
    with pytest.raises(ValidationError):
        oracles.aggregate_over_years(np.empty((0, 1)))


def test_feature_columns_layout():
    cols = feature_columns(2)
    assert len(cols) == 2 * BLOCK
    assert cols[0] == "rule1_clm_min"
    assert cols[1] == "rule1_clm_mean"
    assert cols[2] == "rule1_clm_max"
    assert cols[3] == "rule1_fill30_min"
    assert cols[BLOCK] == "rule2_clm_min"


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
    # one unary rule per drug: in a single year the rule shares of a channel
    # sum to 1, or to 0 when the channel total is 0
    rng = nn.make_rng(seed)
    claims = random_claims(rng, 3, 5, 1)
    ruleset = RuleSet([Rule("unary", d, None, 1.0) for d in claims.drugs], claims.drugs)
    means = build_feature_matrix(claims, ruleset).values.reshape(3, -1, N_CHANNELS, 3)[..., 1]
    sums = means.sum(axis=1)
    totals = np.zeros((3, N_CHANNELS))
    np.add.at(totals, claims.npi_idx, claims.metrics)
    assert np.allclose(sums, np.where(totals > 0, 1.0, 0.0), rtol=0, atol=1e-12)


@st.composite
def shuffled_claims_and_rules(draw):
    """A claims table in random row order with -0 metrics and gaps in the years, plus rules."""
    n_prescribers = draw(st.integers(1, 6))
    n_drugs = draw(st.integers(2, 6))
    n_years = draw(st.integers(1, 4))
    records = []
    for i in range(n_prescribers):
        years = draw(st.sets(st.integers(0, n_years - 1), min_size=1))
        if n_years >= 3 and draw(st.booleans()):
            years = (years | {0, n_years - 1}) - {1}  # a missing middle year
        for t in sorted(years):
            drugs = draw(st.sets(st.integers(0, n_drugs - 1), min_size=1))
            for d in sorted(drugs):
                metrics = draw(
                    st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.5, 7.0, 1e-3, 40.0, 1e6]), min_size=5, max_size=5)
                )
                records.append((f"N{i}", 2019 + t, f"D{d}", *metrics))
    vocab = Vocabulary(f"D{d}" for d in range(n_drugs))
    claims = make_claims(records, drugs=vocab)
    perm = np.array(draw(st.permutations(range(claims.n_records))), dtype=np.int64)
    claims = ClaimsTable(
        npi_idx=claims.npi_idx[perm],
        year=claims.year[perm],
        drug_idx=claims.drug_idx[perm],
        metrics=claims.metrics[perm],
        drugs=claims.drugs,
        prescribers=claims.prescribers,
    )
    rules = []
    for p, q in draw(
        st.lists(
            st.tuples(st.integers(0, n_drugs - 1), st.one_of(st.none(), st.integers(0, n_drugs - 1))),
            min_size=1,
            max_size=6,
            unique=True,
        )
    ):
        if q == p:
            q = None
        rule = Rule("unary" if q is None else "binary", f"D{p}", None if q is None else f"D{q}", 0.5)
        if rule.key() not in {r.key() for r in rules}:
            rules.append(rule)
    return claims, RuleSet(rules, vocab)


@settings(deadline=None, max_examples=200)
@given(case=shuffled_claims_and_rules())
def test_feature_pass_matches_per_prescriber_reference_bitwise(case):
    claims, ruleset = case
    got = build_feature_matrix(claims, ruleset)
    want = oracles.feature_matrix(claims, ruleset)
    assert got.columns == want.columns and got.npis == want.npis
    assert got.values.tobytes() == want.values.tobytes()  # bitwise, signs of zero included


def test_build_feature_matrix_peak_memory_per_row():
    """The feature pass allocates at most 150 B per claim row at 7 rules (about 105 measured)."""
    rng = np.random.default_rng(0)
    n_prescribers, n_drugs, n_years = 2_000, 25, 2
    npi_idx = np.repeat(np.arange(n_prescribers), n_drugs * n_years)
    year = np.tile(np.repeat(2019 + np.arange(n_years), n_drugs), n_prescribers)
    drug_idx = np.concatenate([rng.permutation(n_drugs) for _ in range(n_prescribers * n_years)])
    claims = ClaimsTable(
        npi_idx=npi_idx,
        year=year,
        drug_idx=drug_idx,
        metrics=rng.integers(0, 500, size=(npi_idx.size, N_CHANNELS)).astype(float),
        drugs=Vocabulary(f"D{d}" for d in range(n_drugs)),
        prescribers=Vocabulary(f"N{i}" for i in range(n_prescribers)),
    )
    ruleset = random_ruleset(nn.make_rng(3), claims.drugs, 7)
    tracemalloc.start()
    try:
        features = build_feature_matrix(claims, ruleset)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert features.values.shape == (n_prescribers, 7 * BLOCK)
    assert peak / claims.n_records <= 150, f"{peak / claims.n_records:.0f} B per row"


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


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_read_features_csv_rejects_non_finite_values(tmp_path, value):
    path = tmp_path / "features.csv"
    path.write_text(f"npi,f1,f2\nA,0.5,-0.25\n\nB,0.125,{value}\n", encoding="utf-8")
    with pytest.raises(ParseError, match="line 4: feature values must be finite"):
        read_features_csv(path)


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
