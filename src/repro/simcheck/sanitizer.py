"""Runtime invariant sanitizer: conservation checks for live runs.

``SimSanitizer`` is the opt-in runtime half of :mod:`repro.simcheck`.
It follows the faults/telemetry discipline — hot paths pay nothing
when it is off (the counters it reads are unconditional integer
increments that exist anyway; the rare control branches pay one
``sanitizer is None`` check) — and verifies, periodically during a
run and again at the end:

1. **Packet conservation** — DATA packets injected by hosts equal
   packets delivered + dropped (switch admission, link loss, injected
   faults) + trimmed (NDP) + still in flight (egress queues, VOQs,
   the event heap).
2. **Buffer consistency** — each switch's shared-buffer occupancy
   equals the sum of its per-ingress charges *and* the sum of its
   per-port occupancy, never negative, never above capacity.
3. **Pause/resume pairing** — PFC PAUSE/RESUME per port, and
   Floodgate's per-dst pause per (host, dst), strictly alternate.
   (BFC's queue-level pauses are exempt: two switch queues may
   legitimately pause the same upstream queue.)
4. **Theorem-1 bound** — no Floodgate per-dst window goes negative
   (in-flight beyond the VOQ window) or above its initial value,
   except after a forced overflow bypass, which the paper's bound
   explicitly excludes.
5. **Credit conservation** — Floodgate credit frames sent equal
   frames applied upstream + unclaimed + dropped + in flight.
6. **Rate conservation** (fluid tier only) — the max-min allocation
   never oversubscribes a directed link or Floodgate VOQ cap: the sum
   of allocated flow rates on each resource stays within its capacity.

Violations are collected (with sim timestamps) rather than raised,
unless ``strict=True``.  Enable per run via
``ScenarioConfig(sanitize=SanitizerConfig())`` or the CLI's
``check --sanitize``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.net.packet import Packet, PacketKind
from repro.sim.process import PeriodicTask
from repro.units import us


class SanitizerError(AssertionError):
    """Raised at the point of violation when ``strict`` is set."""


@dataclass(frozen=True)
class SanitizerConfig:
    """Knobs for :class:`SimSanitizer` (frozen: hashes into cache keys)."""

    #: ns between periodic invariant sweeps during the run
    check_interval: int = us(100)
    #: raise :class:`SanitizerError` at the first violation instead of
    #: collecting messages
    strict: bool = False
    #: cap on collected messages (a broken invariant re-detected every
    #: sweep would otherwise flood the report)
    max_violations: int = 100


class SimSanitizer:
    """Invariant checker wired onto one built :class:`Scenario`."""

    def __init__(self, scenario, config: Optional[SanitizerConfig] = None) -> None:
        self.scenario = scenario
        self.config = config or SanitizerConfig()
        self.sim = scenario.sim
        self.topology = scenario.topology
        self.violations: List[str] = []
        #: messages dropped once ``max_violations`` was reached
        self.truncated = 0
        self.checks_run = 0
        #: lazily resolved: pause/resume pairing assumes lossless
        #: control delivery, so lossy/faulted links switch it off
        self._pairing: Optional[bool] = None
        #: True only during ``final_check``: the hybrid boundary sweep
        #: adds end-of-run equalities that mid-run inflight would fail
        self._final = False
        self._task = self._make_task()
        # rare-path hooks: pause/resume pairing is event-driven, so the
        # nodes get a back-reference (None on unsanitized runs)
        for node in (*self.topology.hosts, *self.topology.switches):
            node.sanitizer = self

    def _make_task(self) -> Optional[PeriodicTask]:
        """Periodic sweep driver; :class:`ShardedSanitizer` returns None.

        Observer-tagged: sweeps read state, so the determinism digests
        exclude their ticks (a sharded run sweeps at executor barriers
        instead of on heap events).
        """
        return PeriodicTask(
            self.sim, self.config.check_interval, self.check_now,
            observer=True,
        )

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        if self._task is not None:
            self._task.start()

    def stop(self) -> None:
        if self._task is not None:
            self._task.stop()

    # -- violation plumbing ------------------------------------------------

    def record(self, message: str) -> None:
        message = f"t={self.sim.now}ns: {message}"
        if self.config.strict:
            raise SanitizerError(message)
        if len(self.violations) < self.config.max_violations:
            self.violations.append(message)
        else:
            self.truncated += 1

    # -- event-driven pairing hooks (called from rare control branches) ----

    def _pairing_applicable(self) -> bool:
        """Pairing is only sound when control frames cannot be lost.

        Resolved at the first pause/resume event (loss/fault config is
        final by then): a dropped PAUSE would make the later RESUME
        look unmatched, which is loss, not a protocol bug.
        """
        if self._pairing is None:
            self._pairing = not any(
                link.loss_rate > 0.0 or link.fault is not None
                for link in self.topology.links
            )
        return self._pairing

    def note_pfc(self, node, port_index: int, pause: bool, was_paused: bool) -> None:
        """A PFC PAUSE/RESUME frame reached ``node`` on ``port_index``."""
        if not self._pairing_applicable():
            return
        if pause and was_paused:
            self.record(
                f"double PFC PAUSE at {node.name} port {port_index} "
                "(already paused; pauses must strictly alternate with resumes)"
            )
        elif not pause and not was_paused:
            self.record(
                f"PFC RESUME without matching PAUSE at {node.name} "
                f"port {port_index}"
            )

    def note_dst_pause(self, host, dst: int, pause: bool, was_paused: bool) -> None:
        """A Floodgate dstPause/dstResume frame reached ``host``."""
        if not self._pairing_applicable():
            return
        if pause and was_paused:
            self.record(
                f"double dstPause at {host.name} for dst {dst} "
                "(ToR must not re-pause an already-paused source)"
            )
        elif not pause and not was_paused:
            self.record(
                f"dstResume without matching dstPause at {host.name} "
                f"for dst {dst}"
            )

    # -- in-flight walk ----------------------------------------------------

    def _inflight(self) -> Tuple[int, int]:
        """(DATA, CREDIT) packets at rest anywhere in the system.

        Pure read-only walk: egress queues, extension VOQs, and live
        heap entries whose args carry a packet (propagation and
        serialization events).
        """
        data = credit = 0
        kinds = PacketKind
        for node in (*self.topology.hosts, *self.topology.switches):
            for port in node.ports:
                for queue in port.queues:
                    for pkt in queue:
                        if pkt.kind == kinds.DATA:
                            data += 1
                        elif pkt.kind == kinds.CREDIT:
                            credit += 1
        for ext in self.scenario.extensions:
            pool = getattr(ext, "pool", None)
            if pool is None:
                continue
            for voq in pool.voqs:
                for pkt in voq.packets:
                    if pkt.kind == kinds.DATA:
                        data += 1
                    elif pkt.kind == kinds.CREDIT:
                        credit += 1
        for _time, _fn, args in self.sim.pending_items():
            for arg in args:
                if isinstance(arg, Packet):
                    if arg.kind == kinds.DATA:
                        data += 1
                    elif arg.kind == kinds.CREDIT:
                        credit += 1
        return data, credit

    # -- the invariant sweeps ----------------------------------------------

    def check_now(self) -> None:
        """Run every pull-based invariant against current state."""
        self.checks_run += 1
        inflight_data, inflight_credit = self._inflight()
        self._check_data_conservation(inflight_data)
        self._check_buffers()
        self._check_windows()
        self._check_credits(inflight_credit)
        self._check_flow_rates()
        self._check_hybrid_boundary()

    def final_check(self) -> None:
        """End-of-run sweep (the periodic task must be stopped first)."""
        self.stop()
        self._final = True
        self.check_now()

    def _check_data_conservation(self, inflight: int) -> None:
        topo = self.topology
        injected = sum(h.tx_data_packets for h in topo.hosts)
        delivered = sum(h.rx_data_packets for h in topo.hosts)
        dropped = sum(sw.dropped_packets for sw in topo.switches)
        link_dropped = fault_dropped = 0
        for link in topo.links:
            link_dropped += link.dropped_data_packets
            if link.fault is not None:
                fault_dropped += link.fault.injected_drops_data
        trimmed = sum(
            getattr(ext, "trimmed_packets", 0) for ext in self.scenario.extensions
        )
        accounted = delivered + dropped + link_dropped + fault_dropped + trimmed
        if injected != accounted + inflight:
            self.record(
                "DATA packet conservation broken: "
                f"injected={injected} != delivered={delivered} "
                f"+ switch-dropped={dropped} + link-dropped={link_dropped} "
                f"+ fault-dropped={fault_dropped} + trimmed={trimmed} "
                f"+ in-flight={inflight} (= {accounted + inflight}, "
                f"off by {injected - accounted - inflight})"
            )

    # -- sweep scope (ShardedSanitizer narrows these to one domain) --------

    def _swept_switches(self):
        return self.topology.switches

    def _swept_extensions(self):
        return self.scenario.extensions

    def _check_buffers(self) -> None:
        for sw in self._swept_switches():
            buf = sw.buffer
            if buf is None:
                continue
            name = sw.name
            if buf.used < 0:
                self.record(f"{name}: shared-buffer occupancy negative ({buf.used})")
            if buf.used > buf.capacity:
                self.record(
                    f"{name}: shared-buffer occupancy {buf.used} exceeds "
                    f"capacity {buf.capacity}"
                )
            negative = [i for i, b in enumerate(buf.ingress_bytes) if b < 0]
            if negative:
                self.record(
                    f"{name}: negative per-ingress buffer charge on "
                    f"port(s) {negative}"
                )
            ingress_total = sum(buf.ingress_bytes)
            if buf.used != ingress_total:
                self.record(
                    f"{name}: shared-buffer occupancy {buf.used} != "
                    f"sum of per-ingress charges {ingress_total}"
                )
            port_total = sum(sw._port_bytes)
            if buf.used != port_total:
                self.record(
                    f"{name}: shared-buffer occupancy {buf.used} != "
                    f"sum of per-port occupancy {port_total}"
                )

    def _check_windows(self) -> None:
        for ext in self._swept_extensions():
            windows = getattr(ext, "windows", None)
            if windows is None:
                continue
            pool = getattr(ext, "pool", None)
            if pool is not None and pool.overflow_bypasses:
                # forced bypasses send without consuming window; the
                # Theorem-1 bound explicitly excludes them
                continue
            name = ext.switch.name
            for dst in sorted(windows.window):
                win = windows.window[dst]
                init = windows.initial.get(dst, win)
                if win < 0:
                    self.record(
                        f"{name}: per-dst in-flight exceeds the VOQ window "
                        f"for dst {dst} (window={win} < 0, initial={init}; "
                        "Theorem-1 bound violated)"
                    )
                elif win > init:
                    self.record(
                        f"{name}: window overshoot for dst {dst} "
                        f"(window={win} > initial={init}: more credits "
                        "returned than packets sent)"
                    )

    def _check_credits(self, inflight: int) -> None:
        sent = applied = 0
        have_floodgate = False
        for ext in self.scenario.extensions:
            credits = getattr(ext, "credits", None)
            if credits is None:
                continue
            have_floodgate = True
            sent += credits.credits_sent
            applied += ext.credit_frames_rx
        if not have_floodgate:
            return
        hybrid = getattr(self.scenario, "hybrid", None)
        if hybrid is not None:
            # boundary absorption synthesizes the credit the absorbed
            # fabric would have generated; it is applied at the hot ToR
            # like any other, so it joins the sent side of the ledger
            sent += hybrid.synthesized_credit_frames
        unclaimed = sum(
            sw.unclaimed_credit_frames for sw in self.topology.switches
        )
        dropped = 0
        for link in self.topology.links:
            dropped += link.dropped_credit_packets
            if link.fault is not None:
                dropped += link.fault.injected_drops_credit
        accounted = applied + unclaimed + dropped + inflight
        if sent != accounted:
            self.record(
                "credit conservation broken: "
                f"generated={sent} != applied={applied} "
                f"+ unclaimed={unclaimed} + dropped={dropped} "
                f"+ in-flight={inflight} (= {accounted}, "
                f"off by {sent - accounted})"
            )

    def _check_flow_rates(self) -> None:
        """Fluid-tier rate conservation (no-op on packet-level runs).

        The packet sweeps above all pass vacuously in flow mode (zero
        packets anywhere); this is the invariant that actually bites
        there — allocated rates must fit inside every link and VOQ cap.
        """
        fluid = getattr(self.scenario, "fluid", None)
        if fluid is None:
            return
        for message in fluid.conservation_errors():
            self.record(message)

    def _check_hybrid_boundary(self) -> None:
        """Hybrid-tier byte conservation at the fluid/packet boundary."""
        hybrid = getattr(self.scenario, "hybrid", None)
        if hybrid is None:
            return
        for message in hybrid.boundary_errors(final=self._final):
            self.record(message)

    # -- reporting ----------------------------------------------------------

    def summary(self) -> Dict[str, int]:
        """Picklable counters for experiment plumbing."""
        return {
            "checks_run": self.checks_run,
            "violations": len(self.violations),
            "violations_truncated": self.truncated,
        }


# ---------------------------------------------------------------------------
# sharded execution (repro.sim.sharded)
# ---------------------------------------------------------------------------


def conservation_violations(
    ledgers: List[Dict[str, int]],
    extra_data: int = 0,
    extra_credit: int = 0,
) -> List[str]:
    """Sum per-domain ledgers and evaluate the conservation equations.

    Message text matches the serial sanitizer's exactly (minus the
    ``t=`` prefix the caller adds): the per-domain ledgers are disjoint
    partial sums of the serial fabric-wide walk, so the summed ledger
    feeds the very same arithmetic.  ``extra_data`` / ``extra_credit``
    count packets at rest in inter-domain transit (mailbox or wire
    boxes) that no domain's heap can see.
    """

    def total(key: str) -> int:
        return sum(ledger[key] for ledger in ledgers)

    messages: List[str] = []
    injected = total("injected")
    delivered = total("delivered")
    dropped = total("switch_dropped")
    link_dropped = total("link_dropped")
    fault_dropped = total("fault_dropped")
    trimmed = total("trimmed")
    inflight = total("inflight_data") + extra_data
    accounted = delivered + dropped + link_dropped + fault_dropped + trimmed
    if injected != accounted + inflight:
        messages.append(
            "DATA packet conservation broken: "
            f"injected={injected} != delivered={delivered} "
            f"+ switch-dropped={dropped} + link-dropped={link_dropped} "
            f"+ fault-dropped={fault_dropped} + trimmed={trimmed} "
            f"+ in-flight={inflight} (= {accounted + inflight}, "
            f"off by {injected - accounted - inflight})"
        )
    if any(ledger["have_floodgate"] for ledger in ledgers):
        sent = total("credit_sent")
        applied = total("credit_applied")
        unclaimed = total("credit_unclaimed")
        credit_dropped = total("credit_dropped")
        credit_inflight = total("inflight_credit") + extra_credit
        credit_accounted = applied + unclaimed + credit_dropped + credit_inflight
        if sent != credit_accounted:
            messages.append(
                "credit conservation broken: "
                f"generated={sent} != applied={applied} "
                f"+ unclaimed={unclaimed} + dropped={credit_dropped} "
                f"+ in-flight={credit_inflight} (= {credit_accounted}, "
                f"off by {sent - credit_accounted})"
            )
    return messages


class _ShardClock:
    """Clock facade standing in for the single engine a serial run has.

    ``now`` is assigned by the executor at each sweep barrier (there is
    no one authoritative engine clock between barriers); ``pending_items``
    chains every domain heap plus, optionally, in-transit boundary
    messages that live in no heap.
    """

    __slots__ = ("sims", "extra", "now")

    def __init__(self, sims, extra=None) -> None:
        self.sims = sims
        self.extra = extra
        self.now = 0

    def pending_items(self):
        for sim in self.sims:
            yield from sim.pending_items()
        if self.extra is not None:
            yield from self.extra()


class ShardedSanitizer(SimSanitizer):
    """Domain-local invariant sweeps for the sharded engine.

    The serial sanitizer's fabric-wide walks would read other domains'
    state mid-window — exactly the aliasing SIM005 and the isolation
    sanitizer forbid.  This variant keeps every sweep domain-local:

    * each domain contributes a **conservation ledger** of the counters
      its own hosts/switches/links/extensions hold; summing the ledgers
      in domain order reproduces the serial equations exactly (the
      partials are disjoint),
    * buffer/window sweeps run against one domain's slice at a time,
    * in worker mode (``my_domain`` set) conservation is skipped — no
      worker sees the whole fabric — and the final ledger ships to the
      parent, which sums all of them via :func:`conservation_violations`.

    Sweeps are driven from executor barriers (``check_now`` at every
    ``check_interval`` boundary), not from a heap task, so they never
    appear in event streams and digests stay serial-comparable.  At a
    barrier every domain has executed precisely the events before the
    sweep time, so the state read is the serial cut.
    """

    def __init__(
        self,
        scenario,
        sims,
        domain_of: Dict[int, int],
        config: Optional[SanitizerConfig] = None,
        my_domain: Optional[int] = None,
        extra_pending=None,
    ) -> None:
        self.sims = sims
        self.domain_of = domain_of
        self.my_domain = my_domain
        self._extra_pending = extra_pending
        super().__init__(scenario, config)
        # replace the engine handle with the barrier-driven facade
        self.sim = _ShardClock(sims, extra_pending)

    def _make_task(self) -> Optional[PeriodicTask]:
        return None  # swept from executor barriers, not a heap task

    # -- domain scoping ----------------------------------------------------

    def _domain_hosts(self, d: int):
        return [h for h in self.topology.hosts if self.domain_of[h.node_id] == d]

    def _domain_switches(self, d: int):
        return [
            sw for sw in self.topology.switches
            if self.domain_of[sw.node_id] == d
        ]

    def _domain_extensions(self, d: int):
        return [
            ext for ext in self.scenario.extensions
            if self.domain_of[ext.switch.node_id] == d
        ]

    def _swept_switches(self):
        if self.my_domain is None:
            return self.topology.switches
        return self._domain_switches(self.my_domain)

    def _swept_extensions(self):
        if self.my_domain is None:
            return self.scenario.extensions
        return self._domain_extensions(self.my_domain)

    # -- per-domain ledger -------------------------------------------------

    def domain_ledger(self, d: int) -> Dict[str, int]:
        """Conservation counters owned by domain ``d``.

        Link attribution: an in-process run holds each link object once
        and charges it to ``node_a``'s domain, so every link is counted
        exactly once.  A worker counts *every* link in its private copy
        — only events the worker actually ran increment those counters,
        so worker ledgers are still disjoint partials of the serial
        totals (a boundary link accrues send-side drops in the sender's
        copy and nothing in the receiver's).
        """
        hosts = self._domain_hosts(d)
        switches = self._domain_switches(d)
        exts = self._domain_extensions(d)
        if self.my_domain is not None:
            links = self.topology.links
        else:
            links = [
                link for link in self.topology.links
                if self.domain_of[link.node_a.node_id] == d
            ]

        kinds = PacketKind
        data = credit = 0
        for node in (*hosts, *switches):
            for port in node.ports:
                for queue in port.queues:
                    for pkt in queue:
                        if pkt.kind == kinds.DATA:
                            data += 1
                        elif pkt.kind == kinds.CREDIT:
                            credit += 1
        for ext in exts:
            pool = getattr(ext, "pool", None)
            if pool is None:
                continue
            for voq in pool.voqs:
                for pkt in voq.packets:
                    if pkt.kind == kinds.DATA:
                        data += 1
                    elif pkt.kind == kinds.CREDIT:
                        credit += 1
        for _time, _fn, args in self.sims[d].pending_items():
            for arg in args:
                if isinstance(arg, Packet):
                    if arg.kind == kinds.DATA:
                        data += 1
                    elif arg.kind == kinds.CREDIT:
                        credit += 1

        link_dropped = fault_dropped = credit_dropped = 0
        for link in links:
            link_dropped += link.dropped_data_packets
            credit_dropped += link.dropped_credit_packets
            if link.fault is not None:
                fault_dropped += link.fault.injected_drops_data
                credit_dropped += link.fault.injected_drops_credit

        credit_sent = credit_applied = 0
        have_floodgate = False
        for ext in exts:
            credits = getattr(ext, "credits", None)
            if credits is None:
                continue
            have_floodgate = True
            credit_sent += credits.credits_sent
            credit_applied += ext.credit_frames_rx

        return {
            "injected": sum(h.tx_data_packets for h in hosts),
            "delivered": sum(h.rx_data_packets for h in hosts),
            "switch_dropped": sum(sw.dropped_packets for sw in switches),
            "link_dropped": link_dropped,
            "fault_dropped": fault_dropped,
            "trimmed": sum(getattr(e, "trimmed_packets", 0) for e in exts),
            "inflight_data": data,
            "credit_sent": credit_sent,
            "credit_applied": credit_applied,
            "credit_unclaimed": sum(
                sw.unclaimed_credit_frames for sw in switches
            ),
            "credit_dropped": credit_dropped,
            "inflight_credit": credit,
            "have_floodgate": have_floodgate,
        }

    def _transit_packets(self) -> Tuple[int, int]:
        """(DATA, CREDIT) packets in inter-domain transit boxes."""
        if self._extra_pending is None:
            return 0, 0
        data = credit = 0
        kinds = PacketKind
        for _time, _fn, args in self._extra_pending():
            for arg in args:
                if isinstance(arg, Packet):
                    if arg.kind == kinds.DATA:
                        data += 1
                    elif arg.kind == kinds.CREDIT:
                        credit += 1
        return data, credit

    # -- the sweep ---------------------------------------------------------

    def check_now(self) -> None:
        self.checks_run += 1
        if self.my_domain is None:
            extra_data, extra_credit = self._transit_packets()
            ledgers = [self.domain_ledger(d) for d in range(len(self.sims))]
            for message in conservation_violations(
                ledgers, extra_data, extra_credit
            ):
                self.record(message)
        # worker mode: conservation needs the whole fabric, so it moves
        # to the parent — workers ship their final ledger instead
        self._check_buffers()
        self._check_windows()
        self._check_flow_rates()

