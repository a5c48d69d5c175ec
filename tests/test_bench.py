"""Bench bookkeeping: trajectory routing and the machine fingerprint."""

from __future__ import annotations

from pathlib import Path

from repro.experiments import bench, registry


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
