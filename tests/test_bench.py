"""Bench bookkeeping: trajectory routing, the machine fingerprint and
the shard speedup gate."""

from __future__ import annotations

import os
from pathlib import Path

from repro.experiments import bench, registry
from repro.experiments.scenario import ScenarioConfig
from repro.units import us


def test_every_scenario_keeps_its_trajectory_file():
    """The gate metric routes each record to the file its prefix names."""
    engine = Path("out") / "BENCH_engine.json"
    for name in registry.names():
        if name.startswith("rpc-"):
            expect = "BENCH_rpc.json"
        elif name.startswith(("flowsim-", "hybrid-")):
            expect = "BENCH_flowsim.json"
        else:
            expect = "BENCH_engine.json"
        path = bench.trajectory_file(bench.gate_metric_for(name), engine)
        assert path == engine.with_name(expect), name


def test_fingerprint_changes_with_the_usable_cpu_count(monkeypatch):
    monkeypatch.setattr(bench, "available_cpus", lambda: 2)
    two = bench.machine_fingerprint()
    monkeypatch.setattr(bench, "available_cpus", lambda: 8)
    eight = bench.machine_fingerprint()
    assert two != eight
    assert "/2cpu/" in two and "/8cpu/" in eight


def test_shard_gate_counts_usable_cpus_not_installed_ones(monkeypatch):
    """Affinity, not ``os.cpu_count``, decides whether the gate can arm."""
    monkeypatch.setattr(bench, "available_cpus", lambda: 1)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    cfg = ScenarioConfig(n_tors=4, hosts_per_tor=2, duration=us(100), shards=2, seed=2)
    spec = bench.BenchScenario("shard-fattree-a2a", "tiny shard run", (cfg,))
    rec = bench.run_bench_scenario(spec, repeats=1)
    assert rec["cpus"] == 1 and rec["shards"] == 2
    _, messages = bench.check_gate({spec.name: rec}, {})
    assert any(m.startswith("gate skip shard-fattree-a2a") for m in messages)
