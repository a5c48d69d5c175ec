"""The benchmark's workloads: seed-generated, open-loop flow traces.

Each workload is a traffic family, not a captured trace.  The seed the
benchmark receives picks every random draw (Poisson arrivals, flow
sizes, incast jitter) through ``ScenarioConfig.seed``; nothing else
varies between seeds.  A workload built from several traces gives
trace ``i`` of seed ``s`` the config seed ``s * SUBSEED_STRIDE + i``,
so two seeds never share a trace.

``scale="full"`` is what the benchmark measures.  ``scale="tiny"`` is
the same traffic family on a small fabric for a short time; the
benchmark's tests drive it through the same code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from repro.experiments import ScenarioConfig
from repro.units import ms, us

SUBSEED_STRIDE = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    #: which fidelity tier runs it: packet | flow | hybrid
    tier: str
    build: Callable[[int, str], Tuple[ScenarioConfig, ...]]


def _incastmix_packet(seed: int, scale: str) -> Tuple[ScenarioConfig, ...]:
    # §6.1 incastmix at CI scale: 4 ToRs x 8 hosts, 2 spines, webserver
    # Poisson background plus a 16-way periodic incast, DCQCN with
    # Floodgate's per-dst windows, credits and VOQs switched on.  One
    # trace: the host cost of a packet-level event hardly depends on
    # the trace (within ~4 % across seeds), so repeating one trace
    # measures it as well as several would.
    return (
        ScenarioConfig(
            fidelity="packet",
            workload="webserver",
            pattern="incastmix",
            cc="dcqcn",
            flow_control="floodgate",
            n_tors=4,
            hosts_per_tor=8,
            buffer_bytes=500_000,
            incast_load=0.8,
            incast_fan_in=16,
            duration=ms(1) if scale == "full" else us(100),
            seed=seed,
        ),
    )


def _fattree_flow(seed: int, scale: str) -> Tuple[ScenarioConfig, ...]:
    # fluid tier on a k=8 fat-tree (128 hosts): websearch incastmix
    # under Floodgate, whose per-dst windows the fluid model turns
    # into VOQ rate caps.  A fluid event re-solves max-min over the
    # flows active at that moment, so its cost follows how many
    # websearch elephants overlap, which the seed decides.  At the
    # default 0.8 background load one 5 ms trace's cost per event
    # varies by about +-25 % across seeds; at 0.3 by about +-8 %, and
    # six traces per run average that down.
    if scale == "full":
        traces, k, per_edge, duration = 6, 8, 4, ms(5)
    else:
        traces, k, per_edge, duration = 1, 4, 2, us(200)
    return tuple(
        ScenarioConfig(
            fidelity="flow",
            topology="fat-tree",
            fat_tree_k=k,
            hosts_per_edge=per_edge,
            workload="websearch",
            pattern="incastmix",
            poisson_load=0.3,
            cc="dcqcn",
            flow_control="floodgate",
            duration=duration,
            seed=seed * SUBSEED_STRIDE + i,
        )
        for i in range(traces)
    )


def _incast_hybrid(seed: int, scale: str) -> Tuple[ScenarioConfig, ...]:
    # the Floodgate periodic-incast degree sweep on a 256-host
    # leaf-spine (16 ToRs x 16 hosts, 4 spines), the victim rack at
    # packet level over a fluid background.  The buffer fits a burst
    # and the hard stop lets it drain: the validate-hybrid variant, so
    # the tier runs inside the envelope it claims accuracy for.  At
    # fan-in 255 a burst recurs every ~13 ms; 14 ms covers several
    # bursts of the smaller fan-ins and at least one of each.
    if scale == "full":
        tors, per_tor, spines, fan_ins, duration = 16, 16, 4, (64, 128, 255), ms(14)
    else:
        tors, per_tor, spines, fan_ins, duration = 4, 8, 2, (8, 24), us(500)
    return tuple(
        ScenarioConfig(
            fidelity="hybrid",
            workload="websearch",
            pattern="incast",
            cc="dcqcn",
            flow_control="floodgate",
            n_tors=tors,
            hosts_per_tor=per_tor,
            n_spines=spines,
            buffer_bytes=2_000_000,
            max_runtime_factor=64.0,
            incast_fan_in=fan_in,
            incast_load=0.8,
            duration=duration,
            seed=seed,
        )
        for fan_in in fan_ins
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("incastmix-packet", "packet", _incastmix_packet),
        Workload("fattree-flow", "flow", _fattree_flow),
        Workload("incast-hybrid", "hybrid", _incast_hybrid),
    )
}
