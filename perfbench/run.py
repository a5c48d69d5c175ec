#!/usr/bin/env python3
"""The repository's benchmark: one score and one ledger for three tiers.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload incastmix-packet --seed 1 \\
        --seconds 35 --trace 0

Everything runs in this one process, serially: no worker pool and no
sharded executor.  A run

1. builds every scenario of the workload repeatedly, before and after
   the timed passes, and keeps the median build time (``setup_s``);
2. repeats timed passes over the workload while whole passes fit in
   ``--seconds`` (at least two), each pass building every scenario
   and timing ``run_scenario`` alone;
3. reads the process's peak resident memory, before anything below
   can raise it;
4. re-runs the workload once with ``ScenarioConfig.sanitize`` set and
   fails on any invariant violation;
5. on the hybrid tier, runs the packet engine on the same configs
   (untimed) and measures the hot-rack FCT error of the hybrid tier;
6. with ``--trace 1``, runs one pass under a sampling profiler and
   one under the engine profiler, for the per-layer ledger.

The end-to-end throughput is simulated events per host second, over
the fastest timed run of each scenario (see ``Bench.run_s``).  Run
time and flows per second are in the ledger (``experiments.run_s``,
``experiments.flows_per_s``) but carry no bound: both workloads with
Poisson background draw heavy-tailed flow sizes (webserver,
websearch), so the amount of work, and with it the run time, differs
by tens of percent from seed to seed, while the host cost of one event
differs much less.

Every pass prints an output-identity digest of the simulated results.
Timed passes of one seed must agree, and the sanitized pass, a repeat
of the same seed, must agree with them on everything but the event
count (its sweeps are events).  A disagreement, a sanitizer violation,
or a hybrid hot-rack FCT error beyond ``validate-hybrid``'s tolerance
makes the run incorrect: the result line says ``"correct": false`` and
the exit code is 1.  Flows still unfinished at a scenario's hard stop
are not an error; they are the result's ``failed`` count, out of the
flows offered (``attempted``).

The last line of standard output is the JSON result; the lines before
it print every metric with its unit and the run's provenance.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import replace
from importlib.metadata import PackageNotFoundError, version
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: setup is timed over at least this many rounds and seconds before the
#: timed passes and again after them (each pass adds one more round)
SETUP_ROUNDS = 5
SETUP_SECONDS = 0.5

#: timed passes in every run, however long a pass takes
MIN_PASSES = 2

#: packages with a layer of their own in the ledger; self time in any
#: other ``repro`` package is reported as ``other.self_s``
LAYER_PACKAGES = (
    "sim", "net", "cc", "floodgate", "workloads", "flowsim", "hybrid",
    "stats", "experiments", "python",
)


def _load_program() -> None:
    """Put the checkout's ``src`` on the path, or stop without a result."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(
            f"perfbench: no program under {SRC}; run from the root of a "
            "checkout of the repository"
        )
    for path in (SRC, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)


def load_spec() -> Dict:
    """BENCHMARK.json: the metric names, units and directions."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# -- provenance ---------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_revision() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, *ref.split("/"))
        if os.path.isfile(ref_file):
            with open(ref_file, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "none (not a git checkout)"


def _source_digest() -> str:
    """sha256 over every ``src/repro`` file: the revision without git."""
    h = hashlib.sha256()
    base = os.path.join(SRC, "repro")
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, base).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def provenance(workload: str, seed: int, scale: str) -> Dict:
    try:
        numpy_version = version("numpy")
    except PackageNotFoundError:
        numpy_version = "absent"
    return {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "cpu_model": _cpu_model(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "kernel": platform.release(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_revision": _git_revision(),
        "source_sha256": _source_digest(),
    }


# -- one scenario's outcome -----------------------------------------------------


def outcome(result) -> Dict:
    """The simulated results of one run, as plain data.

    Everything here is a function of the config alone, so it repeats
    exactly and is what the output-identity digest hashes.
    """
    sc = result.scenario
    stats = result.stats
    floodgate: Dict[str, int] = {}
    for ext in sc.extensions:
        counters = getattr(ext, "telemetry_counters", None)
        if counters is None:
            continue
        for key, value in counters().items():
            if key.endswith("max_in_use"):
                floodgate[key] = max(floodgate.get(key, 0), value)
            else:
                floodgate[key] = floodgate.get(key, 0) + value
    hybrid = sc.hybrid.telemetry_counters() if sc.hybrid is not None else {}
    fct = sorted((r.flow_id, r.fct) for r in stats.fct_records)
    return {
        "events": result.events,
        "fct": fct,
        "flows_offered": result.total_flows,
        "flows_completed": result.completed_flows,
        "packets_dropped": stats.packets_dropped,
        "pfc_pause_events": stats.pfc_pause_events,
        "retransmitted_packets": result.retransmitted_packets,
        "floodgate": dict(sorted(floodgate.items())),
        "hybrid": dict(sorted(hybrid.items())),
        "fluid_reallocations": sc.fluid.reallocations if sc.fluid is not None else 0,
        "violations": list(result.sanitizer_violations),
    }


def digest(outcomes: Sequence[Dict], with_events: bool = True) -> str:
    """Output-identity digest of a pass (violations excluded)."""
    h = hashlib.sha256()
    for out in outcomes:
        body = {
            k: v
            for k, v in out.items()
            if k != "violations" and (with_events or k != "events")
        }
        h.update(json.dumps(body, sort_keys=True).encode())
    return h.hexdigest()[:16]


def _total(outcomes: Sequence[Dict], key: str) -> int:
    return sum(out[key] for out in outcomes)


def _floodgate(outcomes: Sequence[Dict], key: str) -> int:
    values = [out["floodgate"].get(key, 0) for out in outcomes]
    return max(values) if key.endswith("max_in_use") else sum(values)


def _hybrid(outcomes: Sequence[Dict], key: str) -> int:
    return sum(out["hybrid"].get(key, 0) for out in outcomes)


def _time_chunks(sim) -> List[float]:
    """Record the wall seconds of every ``sim.run`` call from now on."""
    chunks: List[float] = []
    run = sim.run

    def timed_run(until=None):
        t0 = time.perf_counter()
        try:
            run(until)
        finally:
            chunks.append(time.perf_counter() - t0)

    sim.run = timed_run
    return chunks


# -- passes -----------------------------------------------------------------------


class Bench:
    """Runs one workload at one seed and collects its measurements."""

    def __init__(self, configs: Sequence, log=print) -> None:
        from repro.experiments import Scenario, run_scenario

        self.Scenario = Scenario
        self.run_scenario = run_scenario
        self.configs = tuple(configs)
        self.log = log
        #: summed build seconds, one entry per round over all configs
        self.setup_rounds: List[float] = []
        #: per timed pass, per config: the seconds of each
        #: ``Simulator.run`` call inside ``run_scenario``, then the rest
        #: of ``run_scenario`` (engine build, scheduling, teardown)
        self.run_passes: List[List[List[float]]] = []
        self.pass_digests: List[str] = []
        self.outcomes: List[Dict] = []

    def setup_rounds_for(self, seconds: float) -> None:
        """Time builds of every config for at least ``seconds``."""
        started = time.perf_counter()
        for _ in range(SETUP_ROUNDS):
            self._setup_round()
        while time.perf_counter() - started < seconds:
            self._setup_round()

    def _setup_round(self) -> None:
        total = 0.0
        for cfg in self.configs:
            t0 = time.perf_counter()
            sc = self.Scenario(cfg)
            total += time.perf_counter() - t0
            del sc
        self.setup_rounds.append(total)

    @property
    def run_s(self) -> float:
        """Seconds in ``run_scenario`` for one pass, noise excluded.

        ``run_scenario`` advances the simulator in chunks of simulated
        time, and every pass repeats the same deterministic chunks.
        Each chunk is charged its fastest repeat.  On a shared host the
        noise only ever adds time: on the 2-vCPU Xeon VM this was tuned
        on, the host switches between two speeds about 1.6x apart, and
        a slow phase lasts from under a second to a minute.  A whole
        pass is rarely free of slow moments, but each chunk, one to a
        few tens of milliseconds long, usually has a fast repeat within
        the run; a run that falls wholly inside a slow phase reads up to
        a third slower.
        """
        total = 0.0
        for repeats in zip(*self.run_passes):
            total += sum(min(chunk) for chunk in zip(*repeats))
        return total

    def timed_pass(self) -> float:
        """Build (timed as setup) and run (timed) every config once.

        Returns the pass's wall seconds, builds included.
        """
        began = time.perf_counter()
        setup = 0.0
        runs = []
        outcomes = []
        for cfg in self.configs:
            t0 = time.perf_counter()
            sc = self.Scenario(cfg)
            setup += time.perf_counter() - t0
            chunks = _time_chunks(sc.sim)
            gc.collect()
            t0 = time.perf_counter()
            result = self.run_scenario(cfg, scenario=sc)
            chunks.append(time.perf_counter() - t0 - sum(chunks))
            runs.append(chunks)
            outcomes.append(outcome(result))
            del result, sc
        self.setup_rounds.append(setup)
        self.run_passes.append(runs)
        self.pass_digests.append(digest(outcomes))
        self.outcomes = outcomes
        self.log(
            f"# pass {len(self.run_passes)}: run {sum(map(sum, runs)):.4f} s, "
            f"digest {self.pass_digests[-1]}"
        )
        return time.perf_counter() - began

    def sanitized_pass(self) -> Tuple[List[str], str]:
        """Violations of a sanitized re-run, and its event-free digest."""
        from repro.simcheck.sanitizer import SanitizerConfig

        violations: List[str] = []
        outcomes = []
        for cfg in self.configs:
            cfg = replace(cfg, sanitize=SanitizerConfig())
            out = outcome(self.run_scenario(cfg))
            violations.extend(f"seed {cfg.seed}: {v}" for v in out["violations"])
            outcomes.append(out)
        return violations, digest(outcomes, with_events=False)

    def hot_rack_error(self) -> Tuple[float, float, int]:
        """Hybrid-tier p50/p99 FCT error against the packet engine.

        ``repro.hybrid.validate.compare_config`` runs each config at
        both fidelities (untimed) and compares the flows with an
        endpoint in a rack the hybrid run simulated at packet level.
        Returns the worst config's errors and the fewest matched flows.
        """
        from repro.hybrid.validate import compare_config

        cmps = [compare_config("perfbench", i, cfg) for i, cfg in enumerate(self.configs)]
        return (
            max(c.p50_divergence for c in cmps),
            max(c.p99_divergence for c in cmps),
            min(c.matched_hot_flows for c in cmps),
        )

    def traced_pass(self, sampler, gc_clock, spans) -> None:
        """One pass under the sampler and the GC clock, in spans."""
        from repro.stats.fct import summarize_fct

        gc.collect()
        gc_clock.start()
        sampler.start()
        try:
            for cfg in self.configs:
                with spans.span("build"):
                    sc = self.Scenario(cfg)
                with spans.span("run"):
                    result = self.run_scenario(cfg, scenario=sc)
                with spans.span("summarize"):
                    summarize_fct(result.stats.fct_records)
                del result, sc
        finally:
            sampler.stop()
            gc_clock.stop()

    def profiled_pass(self) -> List:
        """One pass with an :class:`EngineProfiler` on each simulator.

        Kept apart from the sampled pass: the profiler times every
        event, which would inflate the engine's share of the samples.
        """
        from repro.telemetry.profile import EngineProfiler

        profilers = []
        for cfg in self.configs:
            sc = self.Scenario(cfg)
            profilers.append(EngineProfiler())
            sc.sim.set_profiler(profilers[-1])
            self.run_scenario(cfg, scenario=sc)
            del sc
        return profilers


# -- the two metric sets -----------------------------------------------------------


def end_to_end(bench: Bench, peak_rss_mb: float) -> Dict[str, float]:
    return {
        "setup_s": statistics.median(bench.setup_rounds),
        "events_per_s": _total(bench.outcomes, "events") / bench.run_s,
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(
    bench: Bench, sampler, gc_clock, spans, profilers, hot_error
) -> Dict[str, float]:
    run_s = bench.run_s
    outs = bench.outcomes
    events = _total(outs, "events")
    s = sampler.self_s
    return {
        "sim.self_s": s["sim"],
        "sim.events": events,
        "sim.max_heap_depth": max(p.max_heap_depth for p in profilers),
        "net.self_s": s["net"],
        "net.packets_dropped": _total(outs, "packets_dropped"),
        "net.pfc_pause_events": _total(outs, "pfc_pause_events"),
        "net.topology_build_s": sampler.module_inclusive("net/topology.py", "build"),
        "cc.self_s": s["cc"],
        "cc.retransmitted_packets": _total(outs, "retransmitted_packets"),
        "floodgate.self_s": s["floodgate"],
        "floodgate.credits_sent": _floodgate(outs, "credits_sent"),
        "floodgate.credits_delayed": _floodgate(outs, "credits_delayed"),
        "floodgate.voq_max_in_use": _floodgate(outs, "voq_max_in_use"),
        "floodgate.voq_hash_fallbacks": _floodgate(outs, "voq_hash_fallbacks"),
        "workloads.self_s": s["workloads"],
        "workloads.flows_offered": _total(outs, "flows_offered"),
        "flowsim.self_s": s["flowsim"],
        "flowsim.maxmin_s": sampler.module_inclusive("flowsim/maxmin.py"),
        "flowsim.reallocations": _total(outs, "fluid_reallocations"),
        "hybrid.self_s": s["hybrid"],
        "hybrid.injected_packets": _hybrid(outs, "hybrid.injected_packets"),
        "hybrid.absorbed_packets": _hybrid(outs, "hybrid.absorbed_packets"),
        "hybrid.synthesized_credit_frames": _hybrid(
            outs, "hybrid.synthesized_credit_frames"
        ),
        "hybrid.reallocations": _hybrid(outs, "hybrid.reallocations"),
        "hybrid.hot_fct_p50_err": hot_error[0],
        "hybrid.hot_fct_p99_err": hot_error[1],
        "stats.self_s": s["stats"],
        "stats.summarize_s": spans.total("summarize"),
        "experiments.self_s": s["experiments"],
        "experiments.run_s": run_s,
        "experiments.flows_per_s": _total(outs, "flows_completed") / run_s,
        "python.self_s": s["python"],
        "python.gc_s": gc_clock.seconds,
        "python.gc_collections": gc_clock.collections,
        "other.self_s": sum(v for k, v in s.items() if k not in LAYER_PACKAGES),
        # a single traced pass against a typical untraced one: both
        # carry the host's noise, which the per-chunk minimum removes
        "trace.overhead": spans.total("run") / statistics.median(
            sum(map(sum, runs)) for runs in bench.run_passes
        ),
        "trace.samples": sampler.samples,
    }


def _busiest_callbacks(profilers, limit: int = 12) -> List[Tuple[str, int]]:
    counts: Dict[str, int] = {}
    for prof in profilers:
        for name, count in prof.counts.items():
            counts[name] = counts.get(name, 0) + count
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:limit]


# -- entry point -------------------------------------------------------------------


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=None,
                   help="workload seed (default: the rationale's default seed)")
    p.add_argument("--seconds", type=float, default=35.0,
                   help="wall seconds of timed passes (whole passes, at least one)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: also run the traced passes and print the per-layer ledger")
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny runs each traffic family on a small fabric (tests)")
    return p.parse_args(argv)


def measure(args: argparse.Namespace, log=print) -> Dict:
    """Run one workload; return the result the last line prints."""
    from ledger import GcClock, LayerSampler, Spans
    from workloads import WORKLOADS

    spec = load_spec()
    with open(os.path.join(HERE, "rationale.json"), encoding="utf-8") as fh:
        seed = args.seed if args.seed is not None else json.load(fh)["seeds"]["default"]
    if args.workload not in WORKLOADS:
        raise SystemExit(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {', '.join(WORKLOADS)}"
        )
    workload = WORKLOADS[args.workload]
    log("# provenance " + json.dumps(provenance(workload.name, seed, args.scale)))
    bench = Bench(workload.build(seed, args.scale), log=log)
    problems: List[str] = []

    bench.setup_rounds_for(SETUP_SECONDS)
    # whole passes only, and past MIN_PASSES none that would end after
    # --seconds
    started = time.perf_counter()
    while True:
        pass_s = bench.timed_pass()
        elapsed = time.perf_counter() - started
        if len(bench.run_passes) >= MIN_PASSES and elapsed + pass_s > args.seconds:
            break
    bench.setup_rounds_for(SETUP_SECONDS)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if len(set(bench.pass_digests)) != 1:
        problems.append(f"timed passes disagree: digests {bench.pass_digests}")

    violations, sanitized_digest = bench.sanitized_pass()
    problems.extend(f"sanitizer: {v}" for v in violations)
    plain_digest = digest(bench.outcomes, with_events=False)
    if sanitized_digest != plain_digest:
        problems.append(
            f"sanitized pass disagrees: digest {sanitized_digest} vs {plain_digest}"
        )
    log(f"# digest {bench.pass_digests[0]} (outputs {plain_digest}), "
        f"sanitizer violations {len(violations)}")

    hot_error = (0.0, 0.0, 0)
    if workload.tier == "hybrid":
        from repro.hybrid.validate import DEFAULT_TOLERANCE

        hot_error = bench.hot_rack_error()
        log(f"# hot-rack FCT error: p50 {hot_error[0]:.4f}, p99 {hot_error[1]:.4f}, "
            f"at least {hot_error[2]} matched flows per config")
        if hot_error[2] == 0 or max(hot_error[:2]) > DEFAULT_TOLERANCE:
            problems.append(
                f"hybrid hot-rack FCT error {hot_error[:2]} over {hot_error[2]} "
                f"flows, validate-hybrid allows {DEFAULT_TOLERANCE}"
            )

    if args.trace:
        sampler = LayerSampler(os.path.join(SRC, "repro"))
        gc_clock = GcClock()
        spans = Spans(sampler)
        bench.traced_pass(sampler, gc_clock, spans)
        profilers = bench.profiled_pass()
        metrics = per_layer(bench, sampler, gc_clock, spans, profilers, hot_error)
        wanted = spec["per_layer"]
        log(f"# traced wall {spans.total():.4f} s, sampled {sampler.sampled_s:.4f} s")
        for name, count in _busiest_callbacks(profilers):
            log(f"# callback {name:<48s} {count:>10d} events")
    else:
        metrics = end_to_end(bench, peak_rss_mb)
        wanted = spec["end_to_end"]

    outs = bench.outcomes
    offered = _total(outs, "flows_offered")
    failed = offered - _total(outs, "flows_completed")
    printed = {}
    for m in wanted:
        value = float(metrics[m["name"]])
        printed[m["name"]] = {"value": value, "unit": m["unit"]}
        log(f"{m['name']:<34s} {value:>16.7g} {m['unit']}")
    for problem in problems:
        log(f"# INCORRECT: {problem}")
    return {
        "correct": not problems,
        "attempted": offered,
        "failed": failed,
        "metrics": printed,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    _load_program()
    result = measure(args)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
