"""Tests of the benchmark's tracer and of BENCHMARK.json's agreement with it.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import json
import sys
import types
from pathlib import Path

import pytest

import run
import tracer


def _clock(times):
    ticks = iter(times)
    return lambda: next(ticks)


def test_self_times_of_nested_and_sibling_spans():
    # root [0, 10] opens a [1, 4] (which opens b [2, 3]), a again [5, 6], c [7, 9].
    t = tracer.Tracer(clock=_clock([0, 1, 2, 3, 4, 5, 6, 7, 9, 10]))
    t.enter("root")
    t.enter("a")
    t.enter("b")
    t.exit()
    t.exit()
    t.enter("a")
    t.exit()
    t.enter("c")
    t.exit()
    t.exit()
    assert dict(t.total_s) == {"b": 1, "a": 4, "c": 2, "root": 10}
    assert dict(t.self_s) == {"b": 1, "a": 3, "c": 2, "root": 4}
    assert sum(t.self_s.values()) == t.total_s["root"]
    assert t.calls == {"root": 1, "a": 2, "b": 1, "c": 1}
    assert t.pair_calls == {(None, "root"): 1, ("root", "a"): 2, ("a", "b"): 1, ("root", "c"): 1}


@pytest.fixture
def fake_package(monkeypatch):
    lib = types.ModuleType("fakepkg.lib")

    def work(path):
        return path * 2

    def outer(path):
        return lib.work(path) + 1

    lib.work, lib.outer = work, outer
    user = types.ModuleType("fakepkg.user")
    user.work = work  # as bound by "from .lib import work"
    monkeypatch.setitem(sys.modules, "fakepkg.lib", lib)
    monkeypatch.setitem(sys.modules, "fakepkg.user", user)
    return lib, user


def test_install_wraps_every_binding_site_and_reports_absent_names(fake_package):
    lib, user = fake_package
    seen = []
    t = tracer.Tracer()
    targets = {
        "lib.work": lambda tr, args, result: seen.append((args["path"], result)),
        "lib.outer": None,
        "lib.deleted": None,
        "gone.module": None,
    }
    sites, absent = tracer.install(t, targets, package="fakepkg")
    assert sorted(sites["lib.work"]) == ["lib.work", "user.work"]
    assert absent == ["lib.deleted", "gone.module"]
    assert user.work(3) == 6
    assert lib.outer(4) == 9
    assert t.calls == {"lib.work": 2, "lib.outer": 1}
    assert t.pair_calls[("lib.outer", "lib.work")] == 1
    assert seen == [(3, 6), (4, 8)]


def test_absent_spans_read_zero_with_a_note():
    summary = tracer.merge([tracer.Tracer().summary()])
    values, notes = tracer.span_metrics(summary, absent={"features.compute_shares"})
    assert values["features.compute_shares_s"] == 0
    assert any(n.startswith("features.compute_shares_s: absent") for n in notes)
    assert not any(n.startswith("features.build_feature_matrix_s") for n in notes)


def test_merge_sums_counts_and_keeps_maxima():
    a = {"calls": {"x": 1}, "total_s": {"x": 1.0}, "self_s": {"x": 0.5}, "pair_calls": [[None, "x", 1]],
         "counters": {"alignment.sinkhorn_iters_max": 9, "ingest.claim_rows": 10}}
    b = {"calls": {"x": 2}, "total_s": {"x": 2.0}, "self_s": {"x": 1.5}, "pair_calls": [[None, "x", 2]],
         "counters": {"alignment.sinkhorn_iters_max": 4, "ingest.claim_rows": 5}}
    merged = tracer.merge([a, b])
    assert merged["calls"] == {"x": 3}
    assert merged["self_s"] == {"x": 2.0}
    assert merged["pair_calls"] == [[None, "x", 3]]
    assert merged["counters"] == {"alignment.sinkhorn_iters_max": 9, "ingest.claim_rows": 15}


def test_benchmark_json_lists_the_metrics_and_workloads_the_harness_reports():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    assert set(run.REFERENCE["workloads"]) == set(run.WORKLOADS)
