"""Rule schema, serialization, and the two rule-derivation helpers."""

import pytest
from hypothesis import given, strategies as st

from clevercatch.errors import ParseError, ValidationError
from clevercatch.rules import (
    GapThresholds,
    PriceStats,
    Rule,
    RuleSet,
    derive_cost_preference_rules,
    derive_opioid_rules,
    jaccard,
    load_drug_targets,
    load_opioid_annotations,
    parse_rules,
    write_rules_csv,
)
from clevercatch.vocab import Vocabulary


def test_rule_invariants():
    Rule("binary", "A", "B", 0.5)
    Rule("unary", "A", None, 1.0)
    with pytest.raises(ValidationError):
        Rule("binary", "A", "A", 0.5)
    with pytest.raises(ValidationError):
        Rule("binary", "A", None, 0.5)
    with pytest.raises(ValidationError):
        Rule("unary", "A", "B", 0.5)
    with pytest.raises(ValidationError):
        Rule("binary", "A", "B", 1.2)
    with pytest.raises(ValidationError):
        Rule("ratio", "A", "B", 0.5)


def test_ruleset_binding_and_duplicates(toy_vocab):
    rules = [Rule("binary", "DrugA", "DrugB", 0.8), Rule("unary", "DrugA", None, 0.5)]
    rs = RuleSet(rules, toy_vocab)
    assert len(rs) == 2
    assert rs.p_idx.tolist() == [0, 0]
    assert rs.q_idx.tolist() == [1, -1]
    assert rs.weights.tolist() == [0.8, 0.5]
    with pytest.raises(ValidationError, match="duplicate"):
        RuleSet(rules + [Rule("binary", "DrugA", "DrugB", 0.3)], toy_vocab)
    with pytest.raises(ValidationError):
        RuleSet([], toy_vocab)


def test_parse_rules_round_trip(tmp_path, toy_vocab, toy_ruleset):
    path = tmp_path / "rules.csv"
    write_rules_csv(toy_ruleset.rules, path)
    again = parse_rules(path, toy_vocab)
    assert again.rules == toy_ruleset.rules
    assert again.fingerprint() == toy_ruleset.fingerprint()
    # serialize -> parse -> serialize is a fixed point
    path2 = tmp_path / "rules2.csv"
    write_rules_csv(again.rules, path2)
    assert path2.read_bytes() == path.read_bytes()


def test_rules_csv_round_trips_names_that_need_quoting(tmp_path):
    vocab = Vocabulary(["Drug, extended release", 'Drug "X"', "DrugY"])
    rules = [
        Rule("binary", "Drug, extended release", 'Drug "X"', 0.8),
        Rule("unary", "Drug, extended release", None, 0.5),
        Rule("binary", "DrugY", 'Drug "X"', 0.25),
    ]
    path = tmp_path / "rules.csv"
    write_rules_csv(rules, path)
    assert list(parse_rules(path, vocab).rules) == rules
    plain = [Rule("binary", "DrugY", "DrugZ", 0.25), Rule("unary", "DrugZ", None, 1.0)]
    write_rules_csv(plain, path)
    expected = "kind,drug_p,drug_q,weight\nbinary,DrugY,DrugZ,0.25\nunary,DrugZ,,1\n"
    assert path.read_text(encoding="utf-8") == expected


def test_parse_rules_single_lines(tmp_path):
    vocab = Vocabulary(["DrugX", "DrugY", "OpioidZ"])
    path = tmp_path / "rules.csv"
    path.write_text(
        "kind,drug_p,drug_q,weight\nbinary,DrugX,DrugY,0.8\nunary,OpioidZ,,0.6\n",
        encoding="utf-8",
    )
    rs = parse_rules(path, vocab)
    assert rs.rules[0] == Rule("binary", "DrugX", "DrugY", 0.8)
    assert rs.rules[1] == Rule("unary", "OpioidZ", None, 0.6)


def test_parse_rules_errors(tmp_path, toy_vocab):
    out_of_range = tmp_path / "w.csv"
    out_of_range.write_text(
        "kind,drug_p,drug_q,weight\nbinary,DrugA,DrugB,1.2\n", encoding="utf-8"
    )
    with pytest.raises(ParseError, match="weight"):
        parse_rules(out_of_range, toy_vocab)
    unknown = tmp_path / "u.csv"
    unknown.write_text(
        "kind,drug_p,drug_q,weight\nbinary,DrugA,Ghost,0.5\n", encoding="utf-8"
    )
    with pytest.raises(ParseError, match="unknown drug"):
        parse_rules(unknown, toy_vocab)


def test_fingerprint_sensitivity(toy_vocab):
    base = RuleSet([Rule("binary", "DrugA", "DrugB", 0.8)], toy_vocab)
    reweighted = RuleSet([Rule("binary", "DrugA", "DrugB", 0.7)], toy_vocab)
    swapped = RuleSet([Rule("binary", "DrugB", "DrugA", 0.8)], toy_vocab)
    assert base.fingerprint() != reweighted.fingerprint()
    assert base.fingerprint() != swapped.fingerprint()


def test_subset(toy_ruleset):
    unary_only = toy_ruleset.subset(lambda r: r.kind == "unary")
    assert len(unary_only) == 1
    assert unary_only.rules[0].kind == "unary"
    assert toy_ruleset.subset(lambda r: False) is None


def test_jaccard_values():
    assert jaccard({"t1"}, {"t1"}) == 1.0
    assert jaccard({"t1"}, {"t2"}) == 0.0
    assert jaccard({"t1", "t2"}, {"t2", "t3"}) == pytest.approx(1 / 3)
    with pytest.raises(ValidationError):
        jaccard(set(), {"t1"})


@given(
    a=st.sets(st.integers(0, 8), min_size=1, max_size=6),
    b=st.sets(st.integers(0, 8), min_size=1, max_size=6),
)
def test_jaccard_properties(a, b):
    a = {str(x) for x in a}
    b = {str(x) for x in b}
    j = jaccard(a, b)
    assert 0.0 <= j <= 1.0
    assert j == jaccard(b, a)
    assert (j == 1.0) == (a == b)


def test_derive_cost_preference_rules():
    targets = {
        "Brand": frozenset({"t1", "t2"}),
        "Generic": frozenset({"t1", "t2"}),
        "Other": frozenset({"t9"}),
    }
    stats = {
        "Brand": PriceStats(total_cost=3000.0, total_claims=10.0),
        "Generic": PriceStats(total_cost=1000.0, total_claims=10.0),
        "Other": PriceStats(total_cost=100.0, total_claims=1.0),
    }
    candidates = derive_cost_preference_rules(targets, stats)
    assert len(candidates) == 1
    cand = candidates[0]
    # cost/claim 300 vs 100: gap (300-100)/100 = 2.0, the extreme tier
    assert cand.rule.p == "Brand" and cand.rule.q == "Generic"
    assert cand.gap == pytest.approx(2.0)
    assert cand.tier == "extreme"
    assert cand.rule.weight == pytest.approx(1.0)


def test_derive_cost_preference_skips():
    targets = {
        "A": frozenset({"t"}),
        "B": frozenset({"t"}),
        "C": frozenset({"u", "v"}),
        "D": frozenset({"u"}),
    }
    equal_price = {
        "A": PriceStats(100.0, 1.0),
        "B": PriceStats(100.0, 1.0),
        "C": PriceStats(500.0, 1.0),
        "D": PriceStats(100.0, 1.0),
    }
    # equal prices emit nothing; jaccard 0.5 pair excluded regardless of gap
    assert derive_cost_preference_rules(targets, equal_price) == []
    below_moderate = {
        "A": PriceStats(120.0, 1.0),
        "B": PriceStats(100.0, 1.0),
        "C": PriceStats(500.0, 1.0),
        "D": PriceStats(100.0, 1.0),
    }
    assert derive_cost_preference_rules(targets, below_moderate) == []
    missing = dict(below_moderate)
    del missing["B"]
    assert derive_cost_preference_rules(targets, missing) == []


def test_gap_thresholds():
    t = GapThresholds()
    assert t.tier(0.4) is None
    assert t.tier(0.5) == "moderate"
    assert t.tier(1.0) == "high"
    assert t.tier(2.0) == "extreme"
    with pytest.raises(ValidationError):
        GapThresholds(moderate=2.0, high=1.0, extreme=3.0)


def test_derive_opioid_rules(tmp_path):
    path = tmp_path / "opioids.csv"
    lines = ["drug,likelihood,weight"]
    lines += [f"Op{i},high," for i in range(37)]
    lines += ["Benign,low,", "Special,high,0.9"]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    annotations = load_opioid_annotations(path)
    rules = derive_opioid_rules(annotations)
    assert len(rules) == 38  # 37 defaults plus the explicit-weight drug
    assert all(r.kind == "unary" and r.q is None for r in rules)
    assert sum(1 for r in rules if r.weight == 0.5) == 37
    assert rules[-1].p == "Special" and rules[-1].weight == 0.9
    assert derive_opioid_rules([("X", "low", None)]) == []


def test_load_opioid_annotations_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("drug,likelihood\nOpA,maybe\n", encoding="utf-8")
    with pytest.raises(ParseError, match="low or high"):
        load_opioid_annotations(path)


def test_load_drug_targets(tmp_path):
    path = tmp_path / "targets.csv"
    path.write_text("drug,target\nA,t1\nA,t2\nB,t1\n", encoding="utf-8")
    targets = load_drug_targets(path)
    assert targets == {"A": frozenset({"t1", "t2"}), "B": frozenset({"t1"})}
