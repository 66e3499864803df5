"""Shared builders for the test suite."""

import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from clevercatch.ingest import CHANNELS, ClaimsTable
from clevercatch.rules import Rule, RuleSet
from clevercatch.vocab import Vocabulary


def make_claims(records, drugs=None, prescribers=None):
    """ClaimsTable from (npi, year, drug, clm, fill30, days, cost, bene) tuples."""
    if drugs is None:
        drugs = Vocabulary(dict.fromkeys(r[2] for r in records))
    if prescribers is None:
        prescribers = Vocabulary(dict.fromkeys(r[0] for r in records))
    npi_idx = np.array([prescribers.index(r[0]) for r in records], dtype=np.int64)
    years = np.array([r[1] for r in records], dtype=np.int64)
    drug_idx = np.array([drugs.index(r[2]) for r in records], dtype=np.int64)
    metrics = np.array([r[3:8] for r in records], dtype=np.float64)
    return ClaimsTable(
        npi_idx=npi_idx,
        year=years,
        drug_idx=drug_idx,
        metrics=metrics,
        drugs=drugs,
        prescribers=prescribers,
    )


def traced_peak(fn, *args):
    """The tracemalloc peak, in bytes, of the allocations fn(*args) makes."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def random_claims(rng, n_prescribers, n_drugs, n_years, density=0.7):
    """Random small claims table; some (prescriber, year, drug) cells are absent."""
    drugs = Vocabulary(f"D{j}" for j in range(n_drugs))
    prescribers = Vocabulary(f"N{i}" for i in range(n_prescribers))
    records = []
    for i in range(n_prescribers):
        # every prescriber gets at least one record so the vocabulary is total
        forced = (
            int(rng.integers(n_years)),
            int(rng.integers(n_drugs)),
        )
        for t in range(n_years):
            for d in range(n_drugs):
                if (t, d) != forced and rng.random() > density:
                    continue
                metrics = rng.integers(0, 40, size=len(CHANNELS)).astype(float)
                records.append(
                    (f"N{i}", 2019 + t, f"D{d}", *metrics)
                )
    return make_claims(records, drugs=drugs, prescribers=prescribers)


def random_ruleset(rng, vocab, n_rules):
    """Random mixed unary/binary rules without duplicates."""
    n_rules = min(n_rules, vocab.size * (vocab.size - 1) + vocab.size)
    rules = []
    seen = set()
    while len(rules) < n_rules:
        if vocab.size >= 2 and rng.random() < 0.6:
            p, q = rng.choice(vocab.size, size=2, replace=False)
            rule = Rule("binary", vocab.names[p], vocab.names[q], float(rng.uniform(0.1, 1.0)))
        else:
            p = int(rng.integers(vocab.size))
            rule = Rule("unary", vocab.names[p], None, float(rng.uniform(0.1, 1.0)))
        if rule.key() in seen:
            continue
        seen.add(rule.key())
        rules.append(rule)
    return RuleSet(rules, vocab)


@pytest.fixture
def toy_vocab():
    return Vocabulary(["DrugA", "DrugB", "DrugC", "DrugD"])


@pytest.fixture
def toy_ruleset(toy_vocab):
    return RuleSet(
        [
            Rule("binary", "DrugA", "DrugB", 0.8),
            Rule("unary", "DrugC", None, 0.6),
        ],
        toy_vocab,
    )


@pytest.fixture(scope="session")
def library_use_block():
    """The Python block under the README's "Library use" heading."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    match = re.search(r"^## Library use\n.*?^```python\n(.*?)^```", readme, re.M | re.S)
    assert match, "README.md has no python block under '## Library use'"
    return match.group(1)
