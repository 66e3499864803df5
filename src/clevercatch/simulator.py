"""Synthetic claims generator with planted fraud for desk-scale verification.

Honest providers draw per-year drug shares from a sparse Dirichlet prior.
Cost-preference frauds get an assigned interchangeable pair whose combined
share mass is floored at pair_floor and then split boost:1 in favor of the
expensive member, so the planted claim-share contrast is reliably positive.
Opioid frauds have their opioid-drug shares multiplied by the boost factor
and renormalized. Metric channels derive from multinomially sampled claim
counts through fixed per-channel multipliers, so the five channels correlate
without being identical. Everything is a pure function of the seed.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import nn
from .errors import ValidationError
from .ingest import CLAIMS_HEADER, LABELS_HEADER
from .io_utils import atomic_write_text, dumps_canonical
from .rules import Rule, write_rules_csv

SPECIALTY = "general_practice"

PAIR_GAP_CYCLE = (0.6, 1.2, 2.5)
# the relative price gap at which a pair's rule reaches full weight
GAP_FULL_WEIGHT = 2.0

FILLS_PER_CLAIM = 1.2
DAYS_PER_FILL = 30
BENE_PER_CLAIM = 0.6
COST_NOISE = 0.1


@dataclass
class SimConfig:
    n_providers: int = 2000
    n_drugs: int = 24
    n_years: int = 3
    fraud_rate: float = 0.05
    scenario_mix: float = 0.7
    boost: float = 4.0
    seed: int = 0
    dirichlet_alpha: float = 0.3
    base_year: int = 2019
    pair_floor: float = 0.25
    price_median: float = 50.0
    price_sigma: float = 0.6
    volume_median: float = 1200.0
    volume_sigma: float = 0.4
    min_volume: int = 50
    opioid_rule_weight: float = 0.7

    def __post_init__(self):
        if self.n_providers < 1 or self.n_years < 1:
            raise ValidationError("need at least one provider and one year")
        if self.n_drugs < 4:
            raise ValidationError("need at least 4 drugs to form equivalence pairs")
        if not 0.0 <= self.fraud_rate < 1.0:
            raise ValidationError("fraud rate must lie in [0, 1)")
        if self.fraud_rate > 0.0 and round(self.fraud_rate * self.n_providers) < 1:
            raise ValidationError(
                "fraud rate times provider count must reach at least one provider"
            )
        if not 0.0 <= self.scenario_mix <= 1.0:
            raise ValidationError("scenario mix must lie in [0, 1]")
        if self.boost <= 1.0:
            raise ValidationError("boost must be greater than 1")
        if self.dirichlet_alpha <= 0.0:
            raise ValidationError("dirichlet concentration must be positive")
        if not 0.0 < self.pair_floor < 1.0:
            raise ValidationError("pair floor must lie strictly between 0 and 1")
        if self.price_median <= 0 or self.volume_median <= 0 or self.min_volume < 1:
            raise ValidationError("prices and volumes must be positive")
        if not 0.0 <= self.opioid_rule_weight <= 1.0:
            raise ValidationError("opioid rule weight must lie in [0, 1]")


@dataclass
class GroundTruth:
    npis: list[str]
    labels: np.ndarray  # (n_providers,) of {0, 1}
    rules: list[Rule]  # planted pairs plus unary opioid rules
    scenarios: dict[str, dict]  # npi -> scenario description
    pairs: list[tuple[str, str]]  # (expensive, cheap) drug names
    opioid_drugs: list[str]
    prices: dict[str, float]


@dataclass
class ClaimRow:
    npi: str
    year: int
    drug: str
    claims: int
    fills: int
    days: int
    cost: float
    bene: int


@dataclass
class SimData:
    config: SimConfig
    rows: list[ClaimRow]
    truth: GroundTruth


def _drug_roles(cfg: SimConfig) -> tuple[list[tuple[int, int, float]], list[int]]:
    """Assign drug indices to pairs (expensive, cheap, gap) and opioid roles."""
    n_pairs = max(1, round(cfg.n_drugs / 8))
    n_opioid = max(2, round(cfg.n_drugs / 6))
    if 2 * n_pairs + n_opioid > cfg.n_drugs:
        n_pairs = max(1, (cfg.n_drugs - 2) // 2)
        n_opioid = cfg.n_drugs - 2 * n_pairs
    pairs = [
        (2 * j, 2 * j + 1, PAIR_GAP_CYCLE[j % len(PAIR_GAP_CYCLE)])
        for j in range(n_pairs)
    ]
    opioids = list(range(2 * n_pairs, 2 * n_pairs + n_opioid))
    return pairs, opioids


def _plant_cost(shares: np.ndarray, p: int, q: int, boost: float, floor: float) -> np.ndarray:
    """Floor the pair's mass and split it boost:1 expensive:cheap."""
    out = shares.copy()
    pair_mass = max(float(out[p] + out[q]), floor)
    others = np.ones(out.size, dtype=bool)
    others[[p, q]] = False
    other_mass = float(out[others].sum())
    if other_mass > 0.0:
        out[others] *= (1.0 - pair_mass) / other_mass
    out[p] = pair_mass * boost / (boost + 1.0)
    out[q] = pair_mass / (boost + 1.0)
    return out / out.sum()


def _plant_opioid(shares: np.ndarray, opioids: list[int], boost: float) -> np.ndarray:
    out = shares.copy()
    out[opioids] *= boost
    return out / out.sum()


def generate(cfg: SimConfig) -> SimData:
    """Generate the full dataset; the draw order below is part of the contract.

    Order: drug prices, fraud assignment permutation, then per provider and
    year a Dirichlet share draw, a volume draw, a multinomial claims draw, and
    a cost-noise vector. Coverage-guard rows (one claim of any rule drug never
    sampled anywhere) are appended afterwards without consuming randomness.
    """
    rng = nn.make_rng(cfg.seed)
    drugs = [f"D{i:03d}" for i in range(cfg.n_drugs)]
    npis = [str(1000000000 + i) for i in range(cfg.n_providers)]
    pairs, opioids = _drug_roles(cfg)

    prices = rng.lognormal(math.log(cfg.price_median), cfg.price_sigma, cfg.n_drugs)
    for p, q, gap in pairs:
        base = min(prices[p], prices[q])
        prices[q] = base
        prices[p] = base * (1.0 + gap)

    n_fraud = int(round(cfg.fraud_rate * cfg.n_providers))
    n_cost = int(round(cfg.scenario_mix * n_fraud))
    order = rng.permutation(cfg.n_providers)
    cost_ids = sorted(int(i) for i in order[:n_cost])
    opioid_ids = sorted(int(i) for i in order[n_cost:n_fraud])
    labels = np.zeros(cfg.n_providers, dtype=np.int64)
    labels[cost_ids] = 1
    labels[opioid_ids] = 1
    scenario_by_provider: dict[int, dict] = {}
    for rank, i in enumerate(cost_ids):
        p, q, _ = pairs[rank % len(pairs)]
        scenario_by_provider[i] = {
            "scenario": "cost_preference",
            "pair": [drugs[p], drugs[q]],
        }
    for i in opioid_ids:
        scenario_by_provider[i] = {
            "scenario": "opioid",
            "drugs": [drugs[d] for d in opioids],
        }

    pair_index = {drugs[p]: (p, q) for p, q, _ in pairs}
    rows: list[ClaimRow] = []
    seen_drugs = np.zeros(cfg.n_drugs, dtype=bool)
    alpha = np.full(cfg.n_drugs, cfg.dirichlet_alpha)
    for i in range(cfg.n_providers):
        scenario = scenario_by_provider.get(i)
        for t in range(cfg.n_years):
            shares = rng.dirichlet(alpha)
            if scenario is not None:
                if scenario["scenario"] == "cost_preference":
                    p, q = pair_index[scenario["pair"][0]]
                    shares = _plant_cost(shares, p, q, cfg.boost, cfg.pair_floor)
                else:
                    shares = _plant_opioid(shares, opioids, cfg.boost)
            volume = max(
                cfg.min_volume,
                int(np.rint(rng.lognormal(math.log(cfg.volume_median), cfg.volume_sigma))),
            )
            claims = rng.multinomial(volume, shares / shares.sum())
            noise = rng.uniform(1.0 - COST_NOISE, 1.0 + COST_NOISE, cfg.n_drugs)
            for d in np.flatnonzero(claims):
                c = int(claims[d])
                fills = int(np.rint(FILLS_PER_CLAIM * c))
                rows.append(
                    ClaimRow(
                        npi=npis[i],
                        year=cfg.base_year + t,
                        drug=drugs[d],
                        claims=c,
                        fills=fills,
                        days=DAYS_PER_FILL * fills,
                        cost=round(c * float(prices[d]) * float(noise[d]), 2),
                        bene=int(np.rint(BENE_PER_CLAIM * c)),
                    )
                )
                seen_drugs[d] = True

    rule_drugs = sorted({d for p, q, _ in pairs for d in (p, q)} | set(opioids))
    guard_targets = [d for d in rule_drugs if not seen_drugs[d]]
    honest = [i for i in range(cfg.n_providers) if labels[i] == 0] or list(
        range(cfg.n_providers)
    )
    for j, d in enumerate(guard_targets):
        i = honest[j % len(honest)]
        rows.append(
            ClaimRow(
                npi=npis[i],
                year=cfg.base_year,
                drug=drugs[d],
                claims=1,
                fills=1,
                days=DAYS_PER_FILL,
                cost=round(float(prices[d]), 2),
                bene=1,
            )
        )

    rules = [
        Rule(kind="binary", p=drugs[p], q=drugs[q], weight=min(1.0, gap / GAP_FULL_WEIGHT))
        for p, q, gap in pairs
    ]
    rules += [
        Rule(kind="unary", p=drugs[d], q=None, weight=cfg.opioid_rule_weight)
        for d in opioids
    ]

    truth = GroundTruth(
        npis=npis,
        labels=labels,
        rules=rules,
        scenarios={npis[i]: scenario_by_provider[i] for i in sorted(scenario_by_provider)},
        pairs=[(drugs[p], drugs[q]) for p, q, _ in pairs],
        opioid_drugs=[drugs[d] for d in opioids],
        prices={drugs[d]: float(prices[d]) for d in range(cfg.n_drugs)},
    )
    return SimData(config=cfg, rows=rows, truth=truth)


def write_claims_csv(path, rows: list[ClaimRow]) -> None:
    lines = [",".join(CLAIMS_HEADER)]
    for r in rows:
        lines.append(
            f"{r.npi},{r.year},{SPECIALTY},{r.drug},{r.claims},{r.fills},"
            f"{r.days},{r.cost:.2f},{r.bene}"
        )
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_labels_csv(path, npis: list[str], labels: np.ndarray) -> None:
    lines = [",".join(LABELS_HEADER)]
    for npi, label in zip(npis, labels):
        lines.append(f"{npi},{int(label)}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_sim_data(cfg: SimConfig, out_dir) -> tuple[SimData, dict[str, Path]]:
    """Generate and write claims, labels, rules, and the ground-truth manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    data = generate(cfg)
    paths = {
        "claims": out / "claims.csv",
        "labels": out / "labels.csv",
        "rules": out / "rules.csv",
        "ground_truth": out / "ground_truth.json",
    }
    write_claims_csv(paths["claims"], data.rows)
    write_labels_csv(paths["labels"], data.truth.npis, data.truth.labels)
    write_rules_csv(data.truth.rules, paths["rules"])
    manifest = {
        "config": asdict(cfg),
        "planted_rules": [
            {"kind": r.kind, "p": r.p, "q": r.q, "weight": r.weight}
            for r in data.truth.rules
        ],
        "scenarios": data.truth.scenarios,
        "opioid_drugs": data.truth.opioid_drugs,
        "prices": data.truth.prices,
    }
    atomic_write_text(paths["ground_truth"], dumps_canonical(manifest) + "\n")
    return data, paths
