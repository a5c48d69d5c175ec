"""Hybrid fidelity: hot-rack selection, boundary conservation, determinism."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.experiments.runner import run_scenario
from repro.experiments.scenario import Scenario, ScenarioConfig
from repro.hybrid import select_hot_racks
from repro.simcheck.determinism import check_repeatable
from repro.simcheck.sanitizer import SanitizerConfig
from repro.units import us


def tiny_cfg(**overrides) -> ScenarioConfig:
    base = dict(
        fidelity="hybrid",
        flow_control="floodgate",
        n_tors=3,
        hosts_per_tor=2,
        duration=us(200),
        seed=5,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def mix_cfg(**overrides) -> ScenarioConfig:
    """A workload dense enough that hot-rack hosts also *send* to cold
    racks, exercising the absorption direction of the boundary."""
    base = dict(
        fidelity="hybrid",
        flow_control="floodgate",
        n_tors=4,
        hosts_per_tor=4,
        n_spines=2,
        pattern="incastmix",
        poisson_load=0.6,
        incast_load=0.8,
        duration=us(400),
        max_runtime_factor=16.0,
        seed=5,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


# -- hot-rack selection -------------------------------------------------------


def test_auto_selection_picks_the_incast_victim_rack():
    sc = Scenario(tiny_cfg(pattern="incast", incast_fan_in=4))
    hot = select_hot_racks(sc)
    assert hot == (sc.rack_of()[sc.config.incast_dst],)


def test_auto_selection_falls_back_to_busiest_destination():
    # a light Poisson load keeps every host far below the 70%-of-line-
    # rate threshold; the selector must still return a non-empty set
    sc = Scenario(
        tiny_cfg(pattern="poisson", poisson_load=0.5, duration=us(400))
    )
    assert sc.flows, "workload surprisingly empty; pick a denser load"
    rack_of = sc.rack_of()
    arrival = {}
    for spec in sc.flows:
        arrival[spec.dst] = arrival.get(spec.dst, 0) + spec.size
    busiest = max(sorted(arrival), key=lambda d: arrival[d])
    hot = select_hot_racks(sc)
    assert hot == (rack_of[busiest],)


def test_explicit_hot_racks_override_auto_selection():
    result = run_scenario(tiny_cfg(hot_racks=(1,)))
    assert result.scenario.hybrid.hot_racks == (1,)


def test_out_of_range_hot_rack_raises():
    with pytest.raises(ValueError, match="out of range"):
        run_scenario(tiny_cfg(hot_racks=(7,)))


# -- boundary conservation ----------------------------------------------------


def test_inbound_boundary_conserves_bytes_under_sanitizer():
    """Cold sources to a hot destination: every fluid flow materializes
    as paced injections and the sanitizer's per-direction boundary
    ledger (injected vs fluid progress vs delivered) stays clean."""
    result = run_scenario(
        tiny_cfg(pattern="incast", incast_fan_in=4, sanitize=SanitizerConfig())
    )
    hybrid = result.scenario.hybrid
    assert result.sanitizer_violations == []
    assert result.completed_flows == result.total_flows
    assert hybrid.injected_packets > 0
    assert hybrid.injected_bytes > 0
    # nothing crossed outward in a pure fan-in
    assert hybrid.absorbed_packets == 0
    assert hybrid.boundary_errors(final=True) == []


def test_outbound_boundary_conserves_bytes_under_sanitizer():
    """Hot-rack sources to cold destinations: packets absorbed at the
    uplink must all re-surface as tunnel deliveries, and with Floodgate
    on, every absorbed data packet echoes one synthesized credit."""
    result = run_scenario(mix_cfg(sanitize=SanitizerConfig()))
    hybrid = result.scenario.hybrid
    assert result.sanitizer_violations == []
    assert result.completed_flows == result.total_flows
    assert hybrid.absorbed_packets > 0
    assert hybrid.tunnel_delivered_packets == hybrid.absorbed_packets
    assert hybrid.synthesized_credit_frames == hybrid.absorbed_packets
    assert hybrid.boundary_errors(final=True) == []


def test_outbound_boundary_without_flow_control():
    result = run_scenario(mix_cfg(flow_control="none", sanitize=SanitizerConfig()))
    hybrid = result.scenario.hybrid
    assert result.sanitizer_violations == []
    assert hybrid.absorbed_packets > 0
    # no Floodgate extension, so no credits to synthesize
    assert hybrid.synthesized_credit_frames == 0


# -- determinism --------------------------------------------------------------


def test_hybrid_same_seed_runs_are_byte_identical():
    rep = check_repeatable(mix_cfg())
    assert rep["ok"], rep
    assert rep["violations"] == []
    assert len(set(rep["event_digests"])) == 1
    assert len(set(rep["summary_digests"])) == 1


def test_hybrid_flow_population_matches_packet():
    hybrid = run_scenario(mix_cfg())
    packet = run_scenario(
        replace(mix_cfg(), fidelity="packet", hot_racks=())
    )
    assert hybrid.total_flows == packet.total_flows


def test_paranoid_maxmin_accepts_the_hybrid_run():
    result = run_scenario(mix_cfg(paranoid_maxmin=True))
    assert result.completed_flows == result.total_flows


# -- validation plumbing ------------------------------------------------------


def test_validation_configs_flip_fidelity_only():
    """The packet reference differs from a tier's run of a validation
    config in fidelity and the tier-only knobs alone."""
    from repro.experiments import validate as harness

    base = harness.validation_configs("incast256")
    assert base and all(b.flow_control == "floodgate" for b in base)
    for b in base:
        hybrid = replace(b, fidelity="hybrid", hot_racks=(0,), paranoid_maxmin=True)
        assert harness.packet_reference(hybrid) == b


def comparison(**overrides):
    from repro.experiments.validate import Comparison

    base = dict(
        scenario="incast256",
        config_index=0,
        fidelity="hybrid",
        hot_racks=(0,),
        matched_flows=10,
        packet_only_flows=0,
        tier_only_flows=0,
        packet_wall=6.0,
        tier_wall=1.0,
        p50_packet_ns=1000,
        p50_tier_ns=1000,
        p99_packet_ns=2000,
        p99_tier_ns=2000,
    )
    base.update(overrides)
    return Comparison(**base)


def test_hybrid_divergence_above_ten_percent_fails_on_fattree_too():
    from repro.experiments.validate import judge

    assert judge("hybrid", [comparison(p99_tier_ns=2150)])[0]
    ok, messages = judge(
        "hybrid", [comparison(scenario="fattree-a2a", p99_tier_ns=2300)]
    )
    assert not ok and "above 10%" in messages[0]


def test_hybrid_speedup_gate_spans_every_config():
    from repro.experiments.validate import judge

    fast = comparison()
    slow = comparison(scenario="fattree-a2a", packet_wall=1.0)
    # 7 s packet over 2 s hybrid: 3.5x aggregate, below the 5x budget,
    # although incast256 alone clears it
    ok, messages = judge("hybrid", [fast, slow])
    assert not ok
    assert messages[-1].startswith("FAIL hybrid all configs: aggregate speedup 3.5x")
    assert judge("hybrid", [fast, slow], min_speedup=3.0)[0]


def test_each_packet_reference_runs_once(monkeypatch):
    """Both tiers validate incast256 and fattree-a2a by default; each of
    their packet references runs once, not once per tier."""
    from repro.experiments import validate as harness

    seen = []

    def counting_run(cfg, *args, **kwargs):
        seen.append(cfg)
        return run_scenario(cfg, *args, **kwargs)

    monkeypatch.setattr(harness, "run_scenario", counting_run)
    tiny = replace(mix_cfg(), fidelity="packet")
    monkeypatch.setattr(harness, "validation_configs", lambda name: (tiny,))
    _, comparisons, _ = harness.validate(min_speedup=0)
    # every run is the validation config with only its fidelity flipped
    assert all(replace(cfg, fidelity="packet") == tiny for cfg in seen)
    runs = [cfg.fidelity for cfg in seen]
    # quick, incast256, fattree-a2a on flow; incast256, fattree-a2a on hybrid
    assert runs.count("packet") == 3
    assert runs.count("flow") == 3
    assert runs.count("hybrid") == 2
    assert [(c.fidelity, c.scenario) for c in comparisons] == [
        ("flow", "quick"),
        ("flow", "incast256"),
        ("flow", "fattree-a2a"),
        ("hybrid", "incast256"),
        ("hybrid", "fattree-a2a"),
    ]
    assert all(c.matched_flows > 0 for c in comparisons)


def test_hybrid_validate_module_keeps_compare_config():
    from repro.hybrid.validate import DEFAULT_TOLERANCE, compare_config

    cmp = compare_config("mix", 0, mix_cfg())
    assert DEFAULT_TOLERANCE == 0.10
    assert cmp.fidelity == "hybrid" and cmp.hot_racks
    assert cmp.matched_hot_flows == cmp.matched_flows > 0
    assert cmp.p50_divergence >= 0.0 and cmp.p99_divergence >= 0.0


def test_telemetry_counters_are_exported():
    from repro.telemetry.registry import TelemetryConfig

    result = run_scenario(mix_cfg(telemetry=TelemetryConfig()))
    assert result.telemetry.counter_value("hybrid.injected_packets") > 0
    assert result.telemetry.counter_value("hybrid.absorbed_packets") > 0
