"""ECMP modes, oversubscription, and topology variants."""

from collections import Counter

import pytest

from repro.experiments.runner import run_scenario
from repro.experiments.scenario import Scenario, ScenarioConfig
from repro.net.packet import Packet, PacketKind
from repro.net.switch import Switch
from repro.sim.engine import Simulator
from repro.units import gbps, ms
from tests.conftest import MiniNet


class TestEcmp:
    def test_per_dst_uses_single_spine(self):
        net = MiniNet("leaf-spine")
        tor = net.topo.switches_of_kind("tor")[1]
        remote = 0  # host 0 lives on tor0
        ports = {
            tor.route(Packet(PacketKind.DATA, 4, remote, 1000, flow_id=f))
            for f in range(50)
        }
        assert len(ports) == 1

    def test_per_flow_spreads_over_spines(self):
        net = MiniNet("leaf-spine")
        tor = net.topo.switches_of_kind("tor")[1]
        for sw in net.topo.switches:
            sw.per_flow_ecmp = True
        ports = Counter(
            tor.route(Packet(PacketKind.DATA, 4, 0, 1000, flow_id=f))
            for f in range(100)
        )
        assert len(ports) == 2
        # both spines carry a meaningful share
        assert min(ports.values()) > 20

    def test_per_flow_mode_still_delivers(self):
        cfg = ScenarioConfig(
            per_flow_ecmp=True,
            workload="memcached",
            n_tors=3,
            hosts_per_tor=2,
            duration=100_000,
        )
        r = run_scenario(cfg)
        assert r.completion_rate == 1.0


class TestOversubscription:
    def test_oversubscribed_fabric_congests_uplinks(self):
        # 4 hosts x 10G feeding a single 10G uplink: ToR-Up queues grow
        cfg = ScenarioConfig(
            n_spines=1,
            fabric_bandwidth=gbps(10),
            workload="websearch",
            poisson_load=0.5,
            pattern="poisson",
            n_tors=3,
            hosts_per_tor=4,
            duration=200_000,
            max_runtime_factor=30.0,
        )
        r = run_scenario(cfg)
        assert r.stats.max_port_buffer_by_role("tor-up") > 0

    def test_nonblocking_fabric_has_idle_uplinks(self):
        over = ScenarioConfig(
            n_spines=1,
            fabric_bandwidth=gbps(10),
            workload="websearch",
            pattern="poisson",
            poisson_load=0.5,
            n_tors=3,
            hosts_per_tor=4,
            duration=200_000,
            max_runtime_factor=30.0,
        )
        non = ScenarioConfig(
            n_spines=1,
            fabric_bandwidth=gbps(40),
            workload="websearch",
            pattern="poisson",
            poisson_load=0.5,
            n_tors=3,
            hosts_per_tor=4,
            duration=200_000,
            max_runtime_factor=30.0,
        )
        r_over = run_scenario(over)
        r_non = run_scenario(non)
        assert (
            r_non.stats.max_port_buffer_by_role("tor-up")
            <= r_over.stats.max_port_buffer_by_role("tor-up")
        )


class TestPaperScaleBuild:
    def test_paper_scale_topology_builds_and_moves_packets(self):
        """The full 160-host, 100/400G fabric is constructible and
        functional (we only run it briefly — full runs are for real
        reproduction hardware)."""
        from repro.experiments.scenario import Scale

        cfg = ScenarioConfig(
            scale=Scale.PAPER,
            pattern="none",
            duration=1_000_000,
        )
        sc = Scenario(cfg)
        assert len(sc.topology.hosts) == 160
        assert len(sc.topology.switches) == 14
        f = sc.topology.make_flow(1, 0, 159, 100_000, 0)
        sc.topology.start_flow(f)
        sc.sim.run(until=ms(1))
        assert f.receiver_done

    def test_paper_scale_floodgate_windows(self):
        from repro.experiments.scenario import Scale

        cfg = ScenarioConfig(
            scale=Scale.PAPER,
            flow_control="floodgate",
            pattern="none",
            duration=1_000_000,
        )
        sc = Scenario(cfg)
        ext = sc.extensions[0]
        # paper-scale windows: BDP_hop + C*T at 400G/10us ~ 500+ KB
        win_pkts = ext._initial_window(120)
        assert win_pkts > 100  # hundreds of packets, as in the paper


class TestFlatRoutes:
    def _switch(self) -> Switch:
        return Switch(Simulator(), 1_000_000, "sw", buffer_capacity=100_000)

    def test_flat_table_agrees_with_dict_fallback(self):
        sw = self._switch()
        sw.set_route(3, 0)
        sw.set_route(7, 1)
        sw.set_route(9, (0, 1, 2))  # ECMP group
        for dst in (3, 7, 9):
            pkt = Packet(PacketKind.DATA, 0, dst, 1000, flow_id=dst)
            assert sw.route(pkt) == sw._route_slow(dst, pkt.flow_id)
            assert sw.route_for_dst(dst) == sw._route_slow(dst, None)

    def test_huge_dst_uses_the_dict_fallback(self):
        sw = self._switch()
        big = 1 << 20  # beyond the flat-table bound
        sw.set_route(big, 2)
        assert len(sw._route_flat) < big
        assert sw.route_for_dst(big) == 2
        pkt = Packet(PacketKind.DATA, 0, big, 1000, flow_id=1)
        assert sw.route(pkt) == 2

    def test_unknown_dst_still_raises_keyerror(self):
        sw = self._switch()
        sw.set_route(3, 0)
        with pytest.raises(KeyError):
            sw.route_for_dst(4)
        with pytest.raises(KeyError):
            sw.route(Packet(PacketKind.DATA, 0, 99, 1000, flow_id=1))

    def test_route_update_overwrites_flat_entry(self):
        sw = self._switch()
        sw.set_route(5, 0)
        assert sw.route_for_dst(5) == 0
        sw.set_route(5, 3)
        assert sw.route_for_dst(5) == 3
