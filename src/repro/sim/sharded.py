"""Conservative-parallel sharded execution of one big topology.

The serial engine runs one heap over the whole fabric.  This module
partitions a built :class:`~repro.experiments.scenario.Scenario` into
``shards`` simulation *domains* — per-pod on fat trees, per-ToR-group
on leaf-spine fabrics — each with its own :class:`Simulator` heap and
node set, synchronized by classic conservative lookahead: the minimum
propagation delay over the links that cross a domain boundary.
Domains advance independently inside a window no wider than that
lookahead, then exchange boundary deliveries through deterministic
ordered channels.

Why the result is *identical* to serial, not merely statistically
equivalent: the engine's heap key is ``(time, lid, seq)`` where every
link delivery carries the per-direction link id it crossed and local
events carry ``lid=0`` (see :mod:`repro.sim.engine`).  Two events in
different domains can only interact through a link delivery, and a
boundary delivery's full key is computed on the *sending* side.
Within a domain, events execute in the serial order restricted to that
domain (induction on the event sequence: identical state implies
identical scheduling actions implies identical keys); across domains,
keys at the same instant are ordered by ``lid``, which names the
sending domain for boundary traffic.  So per-domain execution order —
and therefore every measured quantity — is independent of how the
domains interleave in wall time.

Three executors share that argument:

* ``lockstep`` — in-process reference: one merged loop always runs the
  globally smallest key, all domain sims share one sequence counter,
  so the interleaved stream replays the serial order *exactly* (the
  equivalence harness hashes it against a serial run);
* ``barrier`` — in-process conservative windows: domains run
  sequentially to each barrier, boundary deliveries are exchanged at
  the barrier.  Needed for closed-loop rpc workloads, whose driver
  state (requests, the growing flow table) must share one address
  space;
* ``process`` — the speedup path: one forked worker per domain, each
  inheriting the built scenario and running only its own domain;
  boundary deliveries and barrier control ride pipes, and per-domain
  stats hubs are merged (:meth:`StatsHub.merge_from`) at the end.

Fault plans, telemetry, and the sanitizer all run under shards.  Each
is installed *after* domain binding so its state is domain-local:
fault transitions are scheduled on the faulted link's own simulator
(plans touching boundary links are rejected up front), telemetry
samples per-domain hub shards merged in deterministic domain order
(:mod:`repro.telemetry.shard`), and the sanitizer keeps per-domain
conservation ledgers summed at barrier windows
(:class:`~repro.simcheck.sanitizer.ShardedSanitizer`).  The optional
isolation sanitizer (``check --sharded --isolate``) tags hot objects
with their owning domain and asserts every executed callback ran under
that domain (:mod:`repro.simcheck.isolation`).

Remaining restrictions (enforced by ``ScenarioConfig.__post_init__``
and this module): packet fidelity only; the rpc closed loop and the
stall watchdog need one address space, so they run under the
in-process executors only.
"""

from __future__ import annotations

import time as _time
from heapq import heappop, heappush
from typing import Dict, List, Optional, Tuple

from repro.net.packet import PacketKind
from repro.sim.engine import Simulator

__all__ = [
    "partition_nodes",
    "boundary_lookahead",
    "run_sharded_scenario",
]


# ---------------------------------------------------------------------------
# partitioning
# ---------------------------------------------------------------------------


def partition_nodes(scenario, shards: int) -> Dict[int, int]:
    """Map every node id (hosts and switches) to a domain index.

    Fat trees partition per pod (``pod * shards // k``) with core
    switches block-distributed across domains; every other built
    topology partitions its ToRs into contiguous groups
    (``tor * shards // n_tors``), hosts follow their rack, and
    spines/cores are block-distributed.  The rules are pure functions
    of the build, so every worker process computes the same map.
    """
    cfg = scenario.config
    topo = scenario.topology
    domain: Dict[int, int] = {}
    if cfg.topology == "fat-tree":
        k = cfg.fat_tree_k
        half = k // 2
        n_cores = half * half
        for i, sw in enumerate(topo.switches):
            if i < n_cores:
                domain[sw.node_id] = i * shards // n_cores
            else:
                # per pod: half aggs then half edges, k switches total
                pod = (i - n_cores) // k
                domain[sw.node_id] = pod * shards // k
        hosts_per_pod = half * cfg.hosts_per_edge
        for h in topo.hosts:
            pod = h.node_id // hosts_per_pod
            domain[h.node_id] = pod * shards // k
    else:
        tors = [s for s in topo.switches if s.level == 0]
        spines = [s for s in topo.switches if s.level != 0]
        n_tors = len(tors)
        for t, sw in enumerate(tors):
            domain[sw.node_id] = t * shards // n_tors
        for s, sw in enumerate(spines):
            domain[sw.node_id] = s * shards // len(spines)
        for h in topo.hosts:
            tor = h.links[0].peer_of(h)
            domain[h.node_id] = domain[tor.node_id]
    populated = set(domain.values())
    if populated != set(range(shards)):
        empty = sorted(set(range(shards)) - populated)
        raise ValueError(
            f"shards={shards} leaves domain(s) {empty} empty on this "
            f"topology; use fewer shards"
        )
    return domain


def boundary_lookahead(topology, domain_of: Dict[int, int]) -> int:
    """Conservative lookahead: min propagation delay crossing domains."""
    lookahead: Optional[int] = None
    for link in topology.links:
        if domain_of[link.node_a.node_id] != domain_of[link.node_b.node_id]:
            if lookahead is None or link.delay < lookahead:
                lookahead = link.delay
    if lookahead is None:
        raise ValueError(
            "no links cross a domain boundary; a connected topology "
            "partitioned into 2+ non-empty domains always has some"
        )
    if lookahead <= 0:
        raise ValueError("boundary links must have positive delay")
    return lookahead


# ---------------------------------------------------------------------------
# domain binding
# ---------------------------------------------------------------------------


class _SharedSeqSimulator(Simulator):
    """A domain simulator drawing sequence numbers from a shared cell.

    The lockstep executor interleaves domain heaps in global key
    order; sharing one counter across the domains makes every tie at
    ``(time, lid=0)`` break in the same global scheduling order a
    serial run would produce, so the merged stream replays serial
    execution exactly.
    """

    def __init__(self, cell: List[int]) -> None:
        # the property below routes _seq through the cell, so the cell
        # must exist before Simulator.__init__ assigns _seq = 0
        self._seq_cell = cell
        super().__init__()

    @property
    def _seq(self) -> int:
        return self._seq_cell[0]

    @_seq.setter
    def _seq(self, value: int) -> None:
        self._seq_cell[0] = value


class _DirectChannel:
    """Lockstep boundary channel: push straight into the target heap.

    Safe because the merged loop always executes the globally smallest
    key and a delivery's time is strictly in the future.
    """

    __slots__ = ("sims", "domain_of")

    def __init__(self, sims: List[Simulator], domain_of: Dict[int, int]):
        self.sims = sims
        self.domain_of = domain_of

    def send(self, peer, item: tuple) -> None:
        heappush(self.sims[self.domain_of[peer.node_id]]._heap, item)


class _MailboxChannel:
    """Barrier boundary channel: buffer until the next barrier flush."""

    __slots__ = ("mailboxes", "domain_of")

    def __init__(self, mailboxes: List[list], domain_of: Dict[int, int]):
        self.mailboxes = mailboxes
        self.domain_of = domain_of

    def send(self, peer, item: tuple) -> None:
        self.mailboxes[self.domain_of[peer.node_id]].append(item)


class _WireChannel:
    """Process-mode boundary channel: picklable outbox entries.

    The heap item holds a bound method (``peer.receive``) that cannot
    cross a pipe; ship ``(time, lid, seq, node_id, port, packet)`` and
    let the receiving worker rebind it to its own copy of the node.
    """

    __slots__ = ("outbox", "domain_of")

    def __init__(self, outbox: List[list], domain_of: Dict[int, int]):
        self.outbox = outbox
        self.domain_of = domain_of

    def send(self, peer, item: tuple) -> None:
        t, lid, seq, _ev, _fn, (pkt, port) = item
        self.outbox[self.domain_of[peer.node_id]].append(
            (t, lid, seq, peer.node_id, port, pkt)
        )


def _rebind_extension(ext, sim: Simulator) -> None:
    """Point a switch extension's timer machinery at its domain sim."""
    if hasattr(ext, "sim"):
        ext.sim = sim
    credits = getattr(ext, "credits", None)
    if credits is not None:
        credits.sim = sim
        for task in getattr(credits, "_timers", {}).values():
            task._sim = sim
    syn = getattr(ext, "_syn_task", None)
    if syn is not None:
        syn._sim = sim


def _bind_domains(
    scenario,
    domain_of: Dict[int, int],
    sims: List[Simulator],
    channel,
    hubs: Optional[list] = None,
) -> None:
    """Rebind every node, port, link, and extension to its domain.

    The scenario is built against one throwaway simulator; the build
    leaves its heap empty (every protocol timer is created lazily), so
    rebinding is pure pointer surgery — no scheduled event moves.
    Boundary links get the channel instead of a domain sim; their
    ``deliver`` computes the ordering key on the sending side.

    ``hubs`` (in-process telemetry runs only) rebinds every node's
    stats sink to its domain's hub shard, so sampler reads and hot-path
    records stay domain-local; every ``.stats`` access in the data path
    goes through the node attribute, so this one rebind covers hosts,
    switches, extensions, and link fault states alike.
    """
    topo = scenario.topology
    for node in topo.hosts + topo.switches:
        d = domain_of[node.node_id]
        node.sim = sims[d]
        if hubs is not None:
            node.stats = hubs[d]
        for port in node.ports:
            port.sim = sims[d]
    for link in topo.links:
        da = domain_of[link.node_a.node_id]
        db = domain_of[link.node_b.node_id]
        if da == db:
            link.sim = sims[da]
        else:
            link.channel = channel
    for sw in topo.switches:
        if sw.extension is not None:
            _rebind_extension(sw.extension, sims[domain_of[sw.node_id]])


def _schedule_flows_sharded(scenario) -> None:
    """Schedule every open-loop flow start on its source host's sim.

    Iterates the flow list in the exact order the serial
    ``schedule_flows`` bulk-load does, so per-domain sequence numbers
    preserve the serial relative order (and the lockstep executor's
    shared counter reproduces the serial numbers outright).
    """
    topo = scenario.topology
    hosts = topo.hosts
    for spec in scenario.flows:
        flow = topo.make_flow(
            spec.flow_id, spec.src, spec.dst, spec.size, spec.start_time
        )
        host = hosts[flow.src]
        sim = host.sim
        sim.schedule_call_at(
            max(flow.start_time, sim.now), host.start_flow, flow
        )


def _assert_clean_build(scenario) -> None:
    if scenario.sim.pending_events:
        raise RuntimeError(
            "sharded execution requires an empty build-time heap; "
            "something scheduled events during Scenario construction"
        )


class _Clock:
    """Minimal ``.now`` holder for the lockstep global digest."""

    __slots__ = ("now",)

    def __init__(self) -> None:
        self.now = 0


# ---------------------------------------------------------------------------
# faults / telemetry / sanitizer under shards
# ---------------------------------------------------------------------------


def _validate_fault_plan(scenario, domain_of: Dict[int, int]) -> None:
    """Reject fault plans that touch a boundary link.

    A boundary link's delivery is split across two domains (send-side
    key computation, receive-side execution), so a fault state on it
    would be mutated from both — the exact cross-domain aliasing the
    shard-safety lints forbid.  Domain-local application is the only
    sound semantics, so boundary-crossing plans fail fast here rather
    than silently diverging from serial.
    """
    plan = scenario.config.fault_plan
    if plan is None or not plan.faults:
        return
    from repro.faults.injector import match_links

    for fault in plan.faults:
        for link in match_links(fault.link, scenario.topology):
            da = domain_of[link.node_a.node_id]
            db = domain_of[link.node_b.node_id]
            if da != db:
                raise ValueError(
                    f"fault plan selector {fault.link!r} matches boundary "
                    f"link {link.node_a.name}<->{link.node_b.name} "
                    f"(domains {da} and {db}); sharded fault application "
                    "is domain-local — target intra-domain links (e.g. "
                    "'host-switch') or use shards=1"
                )


def _install_faults_sharded(scenario, watchdog_sim: Optional[Simulator]) -> None:
    """Arm the fault plan after domain binding (in-process executors).

    ``LinkFaultState`` schedules every transition on its link's own
    domain simulator and counts drops into the link's owner hub, so
    installation is domain-local once validation has rejected boundary
    targets.  The stall watchdog is a whole-run observer with no
    per-domain state; it rides the first domain's engine (windows are
    exact under lockstep, approximate under barrier — each sweep sees
    other domains at most one window behind).
    """
    plan = scenario.config.fault_plan
    if plan is None or not plan:
        return
    if plan.faults:
        from repro.faults.injector import FaultInjector

        injector = FaultInjector(
            scenario.sim, scenario.topology, plan, scenario.rng,
            stats=scenario.stats,
        )
        injector.install()
        scenario.fault_injector = injector
    if plan.stall_window > 0 and watchdog_sim is not None:
        from repro.faults.watchdog import StallWatchdog

        watchdog = StallWatchdog(
            watchdog_sim, scenario.topology, scenario.stats,
            plan.stall_window,
        )
        watchdog.start()
        scenario.watchdog = watchdog


def _wire_shard_telemetry(scenario, domain_of, sims, hubs, tele_cfg) -> list:
    """One started :class:`DomainTelemetry` per domain, in domain order."""
    from repro.telemetry.shard import DomainTelemetry

    topo = scenario.topology
    recorders = []
    for d, sim in enumerate(sims):
        hosts = [h for h in topo.hosts if domain_of[h.node_id] == d]
        switches = [s for s in topo.switches if domain_of[s.node_id] == d]
        recorder = DomainTelemetry(d, sim, tele_cfg, hubs[d], hosts, switches)
        recorder.start()
        recorders.append(recorder)
    if tele_cfg.histograms and scenario.rpc_driver is not None:
        # request latencies record on the parent hub (the driver's own
        # sink); per-domain hub shards carry fct/queuing only
        from repro.telemetry.registry import Histogram

        scenario.stats.rpc_histogram = Histogram("rpc_latency_ns", unit="ns")
    return recorders


def _set_domain_profilers(sims, sinks_of) -> None:
    """Install per-domain profiler-slot sinks, fanning out when needed."""
    from repro.telemetry.profile import ProfilerFanout

    for d, sim in enumerate(sims):
        sinks = [s for s in sinks_of(d) if s is not None]
        if len(sinks) == 1:
            sim.set_profiler(sinks[0])
        elif sinks:
            sim.set_profiler(ProfilerFanout(*sinks))


# ---------------------------------------------------------------------------
# in-process executors
# ---------------------------------------------------------------------------


def _advance_lockstep(sims: List[Simulator], until: int, digests) -> None:
    """Execute the globally smallest key until every head passes ``until``."""
    heaps = [s._heap for s in sims]
    if digests is not None:
        global_digest, domain_digests, clock = digests
    while True:
        best_d = -1
        best_key: Optional[Tuple[int, int, int]] = None
        for d, heap in enumerate(heaps):
            while heap:
                head = heap[0]
                ev = head[3]
                if ev is not None and ev.cancelled:
                    heappop(heap)
                    continue
                break
            if not heap:
                continue
            head = heap[0]
            if head[0] > until:
                continue
            key = (head[0], head[1], head[2])
            if best_key is None or key < best_key:
                best_key = key
                best_d = d
        if best_d < 0:
            break
        sim = sims[best_d]
        time_, _lid, _seq, _ev, fn, args = heappop(heaps[best_d])
        sim.now = time_
        sim._events_executed += 1
        fn(*args)
        # the merged loop bypasses Simulator.run(), so any slot sink
        # (telemetry profiler, isolation probe) gets fed here; lockstep
        # digests stay explicit below and are never also in the slot
        prof = sim._profiler
        if prof is not None:
            prof.note(fn, 0.0, len(heaps[best_d]))
        if digests is not None:
            clock.now = time_
            global_digest.note(fn, 0.0, 0)
            domain_digests[best_d].note(fn, 0.0, 0)
    for s in sims:
        if s.now < until:
            s.now = until


def _flush_mailboxes(sims: List[Simulator], mailboxes: List[list]) -> None:
    for d, box in enumerate(mailboxes):
        if box:
            heap = sims[d]._heap
            for item in box:
                heappush(heap, item)
            box.clear()


def _advance_barrier(
    sims: List[Simulator],
    mailboxes: List[list],
    start: int,
    until: int,
    lookahead: int,
) -> None:
    """Run conservative windows from ``start`` to exactly ``until``.

    Window safety: events executed in ``(H, H_next]`` can only send
    boundary deliveries at ``t_e + delay >= t_e + lookahead``, and
    ``H_next <= max(H, min_next - 1) + lookahead`` with ``t_e > H``
    and ``t_e >= min_next``, so every delivery lands strictly after
    ``H_next`` — always in a future window.  The adaptive jump to
    ``min_next - 1 + lookahead`` keeps idle stretches (and the drain
    tail) from costing one barrier per lookahead.
    """
    H = start
    while H < until:
        _flush_mailboxes(sims, mailboxes)
        min_next: Optional[int] = None
        for s in sims:
            t = s.peek_next_time()
            if t is not None and (min_next is None or t < min_next):
                min_next = t
        if min_next is None or min_next > until:
            h_next = until
        else:
            h_next = min(until, max(H + lookahead, min_next - 1 + lookahead))
        for s in sims:
            s.run(until=h_next)
        H = h_next
    _flush_mailboxes(sims, mailboxes)


def _run_inprocess(
    scenario, mode: str, check_interval: int, wall_start: float,
    domain_of: Dict[int, int], lookahead: int, collect_digests: bool,
    isolate: bool,
):
    from repro.experiments.runner import ScenarioResult

    cfg = scenario.config
    shards = cfg.shards
    if mode == "lockstep":
        cell = [0]
        sims: List[Simulator] = [_SharedSeqSimulator(cell) for _ in range(shards)]
        mailboxes: List[list] = []
        channel = _DirectChannel(sims, domain_of)
    else:
        sims = [Simulator() for _ in range(shards)]
        mailboxes = [[] for _ in range(shards)]
        channel = _MailboxChannel(mailboxes, domain_of)
    tele_cfg = cfg.telemetry
    hubs = None
    if tele_cfg is not None:
        # per-domain hub shards: samplers must read domain-local state
        # only (a shared hub mid-window would mix domains at different
        # times).  Runtime flow registrations fan out from the parent.
        hubs = [scenario.stats.shard_clone() for _ in range(shards)]
        scenario.stats.bind_shards(hubs)
    _bind_domains(scenario, domain_of, sims, channel, hubs=hubs)
    _install_faults_sharded(scenario, sims[0])
    recorders: list = []
    if tele_cfg is not None:
        recorders = _wire_shard_telemetry(
            scenario, domain_of, sims, hubs, tele_cfg
        )
    sanitizer = None
    if cfg.sanitize is not None:
        from repro.simcheck.sanitizer import ShardedSanitizer

        def _transit():
            # barrier mailboxes hold deliveries no heap sees yet
            for box in mailboxes:
                for t, _lid, _seq, _ev, fn, args in box:
                    yield t, fn, args

        sanitizer = ShardedSanitizer(
            scenario, sims, domain_of, config=cfg.sanitize,
            extra_pending=_transit if mode == "barrier" else None,
        )
        scenario.sanitizer = sanitizer
    iso = None
    if isolate:
        from repro.simcheck.isolation import ShardIsolationSanitizer

        iso = ShardIsolationSanitizer()
        # after fault install, so link fault states carry owner tags
        iso.tag_scenario(scenario, domain_of)
    _schedule_flows_sharded(scenario)
    driver = scenario.rpc_driver
    if driver is not None:
        driver.start(None)
    digests = None
    domain_digests: List = []
    if collect_digests:
        from repro.simcheck.determinism import EventStreamDigest

        domain_digests = [
            EventStreamDigest(s, include_depth=False) for s in sims
        ]
        if mode == "lockstep":
            clock = _Clock()
            digests = (
                EventStreamDigest(clock, include_depth=False),
                domain_digests,
                clock,
            )
    _set_domain_profilers(
        sims,
        lambda d: (
            # lockstep digests are fed explicitly by the merged loop
            domain_digests[d] if domain_digests and mode != "lockstep" else None,
            recorders[d].profiler if recorders else None,
            iso.probe(d, sims[d]) if iso is not None else None,
        ),
    )
    topo = scenario.topology
    hard_end = int(cfg.duration * cfg.max_runtime_factor)
    now = 0
    while True:
        next_stop = min(now + check_interval, hard_end)
        if mode == "lockstep":
            _advance_lockstep(sims, next_stop, digests)
        else:
            _advance_barrier(sims, mailboxes, now, next_stop, lookahead)
        now = next_stop
        if sanitizer is not None:
            # barrier sweep: every domain has executed exactly the
            # serial prefix up to `now`, so ledgers read the serial cut
            sanitizer.sim.now = now
            sanitizer.check_now()
        total = len(topo.flow_table)
        if topo.completed_flows >= total and (
            driver is None or driver.finished
        ):
            break
        if now >= hard_end:
            break
        if all(s.peek_next_time() is None for s in sims) and not any(
            mailboxes
        ):
            break
    total = len(topo.flow_table)
    topo.report_pause_times()
    if scenario.watchdog is not None:
        if topo.completed_flows < total:
            scenario.watchdog.note_drained()
        scenario.watchdog.stop()
    for ext in scenario.extensions:
        stop = getattr(ext, "stop", None)
        if stop is not None:
            stop()
    for recorder in recorders:
        recorder.stop()
    violations: List[str] = []
    if sanitizer is not None:
        sanitizer.sim.now = now
        sanitizer.final_check()
        violations = list(sanitizer.violations)
    stats = scenario.stats
    if hubs is not None:
        # deterministic domain-order merge back into the parent hub
        for hub in hubs:
            stats.merge_from(hub)
    stats.canonicalize()
    telemetry = None
    if tele_cfg is not None:
        from repro.telemetry.shard import (
            build_shard_export, merge_raw_profiles, merge_raw_series,
        )

        ext_harvests = []
        for ext in scenario.extensions:
            harvest = getattr(ext, "telemetry_counters", None)
            if harvest is not None:
                ext_harvests.append(harvest())
        rpc_counts = None
        if driver is not None:
            rpc_counts = (driver.requests_issued, driver.requests_completed)
        telemetry = build_shard_export(
            cfg,
            tele_cfg,
            now,
            sum(s.events_executed for s in sims),
            stats,
            topo.completed_flows,
            total,
            sum(f.retransmitted_packets for f in topo.flow_table.values()),
            rpc_counts,
            ext_harvests,
            merge_raw_series([r.raw_series() for r in recorders]),
            merge_raw_profiles([r.raw_profile() for r in recorders]),
        )
    result = ScenarioResult(
        config=cfg,
        stats=stats,
        scenario=scenario,
        completed_flows=topo.completed_flows,
        total_flows=total,
        sim_time=now,
        wall_seconds=_time.monotonic() - wall_start,  # simcheck: ignore[SIM002] -- wall time for reporting only
        events=sum(s.events_executed for s in sims),
        telemetry=telemetry,
        sanitizer_violations=violations,
        shard_isolation_violations=(
            list(iso.violations) if iso is not None else None
        ),
    )
    if collect_digests:
        result.shard_digests = [d.hexdigest() for d in domain_digests]
        if digests is not None:
            result.shard_global_digest = digests[0].hexdigest()
    return result


# ---------------------------------------------------------------------------
# multiprocess executor
# ---------------------------------------------------------------------------


def _drain_outbox(outbox: List[list]) -> List[Tuple[int, list]]:
    out: List[Tuple[int, list]] = []
    for d, box in enumerate(outbox):
        if box:
            out.append((d, box[:]))
            box.clear()
    return out


def _worker_main(
    scenario, domain_of: Dict[int, int], my_domain: int, conn,
    collect_digest: bool, isolate: bool,
) -> None:
    """One forked worker: bind, then run exactly one domain to orders.

    The worker inherits the fully built scenario through fork, so the
    rebinding below produces the same object graph every in-process
    executor sees; only ``sims[my_domain]`` ever runs here.  The
    worker's private ``scenario.stats`` copy *is* its domain hub —
    every node keeps pointing at it, and only this domain's events
    write to it, so the parent's domain-order ``merge_from`` pass
    reassembles exactly the serial hub.
    """
    cfg = scenario.config
    shards = cfg.shards
    sims = [Simulator() for _ in range(shards)]
    outbox: List[list] = [[] for _ in range(shards)]
    _bind_domains(scenario, domain_of, sims, _WireChannel(outbox, domain_of))
    # the full plan installs on this worker's private copy: foreign
    # links schedule onto sims that never run here, own-domain links
    # replay exactly the serial subsequence (per-link name-derived rng
    # streams make the draws identical everywhere)
    plan = cfg.fault_plan
    injector = None
    if plan is not None and plan.faults:
        from repro.faults.injector import FaultInjector

        injector = FaultInjector(
            scenario.sim, scenario.topology, plan, scenario.rng,
            stats=scenario.stats,
        )
        injector.install()
        scenario.fault_injector = injector
    dsim = sims[my_domain]
    tele_cfg = cfg.telemetry
    recorder = None
    if tele_cfg is not None:
        from repro.telemetry.shard import DomainTelemetry

        topo_ = scenario.topology
        recorder = DomainTelemetry(
            my_domain, dsim, tele_cfg, scenario.stats,
            [h for h in topo_.hosts if domain_of[h.node_id] == my_domain],
            [s for s in topo_.switches if domain_of[s.node_id] == my_domain],
        )
        recorder.start()
    sanitizer = None
    if cfg.sanitize is not None:
        from repro.simcheck.sanitizer import ShardedSanitizer

        sanitizer = ShardedSanitizer(
            scenario, sims, domain_of, config=cfg.sanitize,
            my_domain=my_domain,
        )
        scenario.sanitizer = sanitizer
    iso = None
    if isolate:
        from repro.simcheck.isolation import ShardIsolationSanitizer

        iso = ShardIsolationSanitizer()
        iso.tag_scenario(scenario, domain_of)
    _schedule_flows_sharded(scenario)
    digest = None
    if collect_digest:
        from repro.simcheck.determinism import EventStreamDigest

        digest = EventStreamDigest(dsim, include_depth=False)
    _set_domain_profilers(
        [dsim],
        lambda _d: (
            digest,
            recorder.profiler if recorder is not None else None,
            iso.probe(my_domain, dsim) if iso is not None else None,
        ),
    )
    topo = scenario.topology
    nodes_by_id = {h.node_id: h for h in topo.hosts}
    nodes_by_id.update({s.node_id: s for s in topo.switches})
    conn.send(
        ("state", dsim.peek_next_time(), topo.completed_flows,
         _drain_outbox(outbox))
    )
    while True:
        msg = conn.recv()
        op = msg[0]
        if op == "run":
            _op, h_next, incoming, sweep = msg
            heap = dsim._heap
            for t, lid, seq, node_id, port, pkt in incoming:
                heappush(
                    heap,
                    (t, lid, seq, None, nodes_by_id[node_id].receive,
                     (pkt, port)),
                )
            dsim.run(until=h_next)
            if sweep and sanitizer is not None:
                # h_next is a check_interval boundary: this domain has
                # executed exactly the serial prefix of its events
                sanitizer.sim.now = h_next
                sanitizer.check_now()
            conn.send(
                ("state", dsim.peek_next_time(), topo.completed_flows,
                 _drain_outbox(outbox))
            )
            continue
        # op == "finish": epilogue over this domain's devices only —
        # the others belong to (and are reported by) their own workers
        _op, final_now = msg
        if dsim.now < final_now:
            dsim.now = final_now
        max_voqs = 0
        retrans = 0
        ext_harvests: List[Dict[str, int]] = []
        for node in topo.hosts + topo.switches:
            if domain_of[node.node_id] != my_domain:
                continue
            node.report_pause_time()
            ext = getattr(node, "extension", None)
            if ext is not None:
                stop = getattr(ext, "stop", None)
                if stop is not None:
                    stop()
                pool = getattr(ext, "pool", None)
                if pool is not None and pool.max_in_use > max_voqs:
                    max_voqs = pool.max_in_use
                if tele_cfg is not None:
                    harvest = getattr(ext, "telemetry_counters", None)
                    if harvest is not None:
                        ext_harvests.append(harvest())
        for flow in topo.flow_table.values():
            retrans += flow.retransmitted_packets
        if recorder is not None:
            recorder.stop()
        sanitizer_payload = None
        if sanitizer is not None:
            sanitizer.sim.now = final_now
            sanitizer.final_check()
            sanitizer_payload = {
                "violations": list(sanitizer.violations),
                "ledger": sanitizer.domain_ledger(my_domain),
                "checks_run": sanitizer.checks_run,
            }
        extras = {
            "flows_total": len(topo.flow_table),
            "ext_harvests": ext_harvests,
            "telemetry_series": (
                recorder.raw_series() if recorder is not None else None
            ),
            "telemetry_profile": (
                recorder.raw_profile() if recorder is not None else None
            ),
            "fault_summary": (
                injector.summary() if injector is not None else None
            ),
            "sanitizer": sanitizer_payload,
            "isolation": list(iso.violations) if iso is not None else None,
        }
        conn.send(
            ("result", scenario.stats, topo.completed_flows,
             dsim.events_executed, max_voqs, retrans,
             digest.hexdigest() if digest is not None else None,
             extras)
        )
        conn.close()
        return


def _run_process(
    scenario, check_interval: int, wall_start: float,
    domain_of: Dict[int, int], lookahead: int, collect_digests: bool,
    isolate: bool,
):
    import multiprocessing

    from repro.experiments.runner import ScenarioResult

    ctx = multiprocessing.get_context("fork")
    cfg = scenario.config
    shards = cfg.shards
    topo = scenario.topology
    pipes = []
    procs = []
    for d in range(shards):
        parent_conn, child_conn = ctx.Pipe()
        proc = ctx.Process(
            target=_worker_main,
            args=(scenario, domain_of, d, child_conn, collect_digests,
                  isolate),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        pipes.append(parent_conn)
        procs.append(proc)
    try:
        hard_end = int(cfg.duration * cfg.max_runtime_factor)
        # the parent never schedules flows (its flow_table stays empty;
        # only the forked workers call make_flow), and process mode
        # forbids closed-loop workloads, so the flow population is
        # exactly the build-time spec list
        total = len(scenario.flows)
        #: boundary deliveries awaiting their target domain, per domain
        pending: List[list] = [[] for _ in range(shards)]
        states = [pipes[d].recv() for d in range(shards)]
        next_times = [st[1] for st in states]
        completed = [st[2] for st in states]
        for st in states:
            for target, items in st[3]:
                pending[target].extend(items)
        now = 0
        while True:
            next_stop = min(now + check_interval, hard_end)
            H = now
            while H < next_stop:
                min_next: Optional[int] = None
                for t in next_times:
                    if t is not None and (min_next is None or t < min_next):
                        min_next = t
                for box in pending:
                    for item in box:
                        if min_next is None or item[0] < min_next:
                            min_next = item[0]
                if min_next is None or min_next > next_stop:
                    h_next = next_stop
                else:
                    h_next = min(
                        next_stop, max(H + lookahead, min_next - 1 + lookahead)
                    )
                # the last window of each step lands exactly on the
                # check_interval boundary: tell workers to sweep there
                sweep = h_next == next_stop and cfg.sanitize is not None
                for d in range(shards):
                    pipes[d].send(("run", h_next, pending[d], sweep))
                    pending[d] = []
                states = [pipes[d].recv() for d in range(shards)]
                next_times = [st[1] for st in states]
                completed = [st[2] for st in states]
                for st in states:
                    for target, items in st[3]:
                        pending[target].extend(items)
                H = h_next
            now = next_stop
            if sum(completed) >= total:
                break
            if now >= hard_end:
                break
            if all(t is None for t in next_times) and not any(pending):
                break
        for d in range(shards):
            pipes[d].send(("finish", now))
        results = [pipes[d].recv() for d in range(shards)]
    finally:
        for proc in procs:
            proc.join(timeout=30)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
        for conn in pipes:
            conn.close()
    # merge per-domain hubs in domain order; the parent's own hub holds
    # only build-time registrations (flow classes, incast sets) that
    # every worker inherited too, so the union-style merges dedup them
    stats = scenario.stats
    digests: List[str] = []
    extras_list: List[dict] = []
    events = 0
    completed_total = 0
    max_voqs = 0
    retrans = 0
    for res in results:
        (_tag, worker_stats, worker_completed, worker_events, voqs, rtx,
         dig, extras) = res
        stats.merge_from(worker_stats)
        completed_total += worker_completed
        events += worker_events
        if voqs > max_voqs:
            max_voqs = voqs
        retrans += rtx
        if dig is not None:
            digests.append(dig)
        extras_list.append(extras)
    stats.canonicalize()
    # fault counters: the static plan shape is identical in every
    # worker; the injection counters are disjoint partials (each link's
    # events ran in exactly one worker), so they sum
    fault_summary = None
    worker_faults = [ex["fault_summary"] for ex in extras_list]
    if any(f is not None for f in worker_faults):
        live = [f for f in worker_faults if f is not None]
        fault_summary = dict(live[0])
        for f in live[1:]:
            for key in (
                "injected_drops_data", "injected_drops_ctrl",
                "injected_corruptions",
            ):
                fault_summary[key] += f[key]
    # sanitizer: per-domain sweeps already ran in the workers; the
    # whole-fabric conservation equations are judged here, over the
    # summed final ledgers plus packets still in transit boxes
    violations: List[str] = []
    if cfg.sanitize is not None:
        from repro.simcheck.sanitizer import conservation_violations

        ledgers = []
        for ex in extras_list:
            payload = ex["sanitizer"]
            if payload is not None:
                violations.extend(payload["violations"])
                ledgers.append(payload["ledger"])
        extra_data = extra_credit = 0
        for box in pending:
            for item in box:
                pkt = item[5]
                if pkt.kind == PacketKind.DATA:
                    extra_data += 1
                elif pkt.kind == PacketKind.CREDIT:
                    extra_credit += 1
        for message in conservation_violations(
            ledgers, extra_data, extra_credit
        ):
            violations.append(f"t={now}ns: {message}")
    iso_violations = None
    if isolate:
        iso_violations = [
            v for ex in extras_list for v in (ex["isolation"] or [])
        ]
    telemetry = None
    tele_cfg = cfg.telemetry
    if tele_cfg is not None:
        from repro.telemetry.shard import (
            build_shard_export, merge_raw_profiles, merge_raw_series,
        )

        telemetry = build_shard_export(
            cfg,
            tele_cfg,
            now,
            events,
            stats,
            completed_total,
            len(scenario.flows),
            retrans,
            None,  # rpc never runs under process mode
            [h for ex in extras_list for h in ex["ext_harvests"]],
            merge_raw_series(
                [ex["telemetry_series"] or [] for ex in extras_list]
            ),
            merge_raw_profiles(
                [ex["telemetry_profile"] for ex in extras_list]
            ),
        )
    result = ScenarioResult(
        config=cfg,
        stats=stats,
        scenario=scenario,
        completed_flows=completed_total,
        total_flows=len(scenario.flows),
        sim_time=now,
        wall_seconds=_time.monotonic() - wall_start,  # simcheck: ignore[SIM002] -- wall time for reporting only
        events=events,
        telemetry=telemetry,
        sanitizer_violations=violations,
        shard_max_voqs=max_voqs,
        shard_retransmitted=retrans,
        shard_fault_summary=fault_summary,
        shard_isolation_violations=iso_violations,
    )
    if collect_digests:
        result.shard_digests = digests
    return result


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def resolve_mode(config) -> str:
    """Concrete executor for a config (resolves ``auto``)."""
    mode = config.shard_mode
    if mode == "auto":
        mode = "barrier" if config.pattern == "rpc" else "process"
    if mode == "process" and config.pattern == "rpc":
        raise ValueError(
            "rpc workloads cannot run under shard_mode='process': the "
            "closed-loop driver grows one shared flow table across "
            "domains; use 'barrier' (or 'auto')"
        )
    return mode


def run_sharded_scenario(
    scenario,
    check_interval: int,
    wall_start: float,
    collect_digests: bool = False,
    isolate: bool = False,
):
    """Run a built scenario across ``config.shards`` domains.

    Returns the same :class:`ScenarioResult` the serial runner builds,
    with identical completion/stop semantics: the run advances in
    ``check_interval`` steps and stops at the first step boundary where
    every flow has completed (and any rpc driver is finished), the hard
    end is reached, or every domain has drained.

    ``isolate`` arms the :class:`ShardIsolationSanitizer`: hot objects
    are tagged with their owning domain at partition time and every
    executed callback is checked against the domain it ran under
    (``check --sharded --isolate``).
    """
    cfg = scenario.config
    mode = resolve_mode(cfg)
    _assert_clean_build(scenario)
    domain_of = partition_nodes(scenario, cfg.shards)
    lookahead = boundary_lookahead(scenario.topology, domain_of)
    _validate_fault_plan(scenario, domain_of)
    if mode == "process":
        plan = cfg.fault_plan
        if plan is not None and plan.stall_window > 0:
            raise ValueError(
                "stall_window under shard_mode='process' is unsupported: "
                "the watchdog needs whole-fabric progress visibility in "
                "one address space; use shard_mode='barrier' or "
                "'lockstep' (or stall_window=0)"
            )
        return _run_process(
            scenario, check_interval, wall_start, domain_of, lookahead,
            collect_digests, isolate,
        )
    return _run_inprocess(
        scenario, mode, check_interval, wall_start, domain_of, lookahead,
        collect_digests, isolate,
    )
