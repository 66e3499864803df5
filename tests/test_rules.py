"""Rule schema, rule sets and rules.csv serialization."""

import pytest

from clevercatch.errors import ParseError, ValidationError
from clevercatch.rules import Rule, RuleSet, parse_rules, write_rules_csv
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
