"""Tests of the benchmark itself, on tiny versions of its workloads.

Run from the root of a checkout::

    python3 -m pytest perfbench -q

Each test drives the tiny scale through the same code path the
benchmark measures at full scale.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

run._load_program()

from ledger import GcClock, LayerSampler, Spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = run.load_spec()


def _cli(*args, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def _tiny(workload, **overrides):
    argv = ["--workload", workload, "--seed", "1", "--seconds", "0", "--scale", "tiny"]
    args = run.parse_args(argv)
    for key, value in overrides.items():
        setattr(args, key, value)
    return args


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = _cli("--workload", workload, "--seed", "1", "--seconds", "0",
                "--trace", trace, "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(
            line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
            for line in lines[:-1]
        ), m["name"]
    provenance = json.loads(
        next(l for l in lines if l.startswith("# provenance "))[len("# provenance "):]
    )
    for key in ("cpu_model", "usable_cpus", "python", "numpy", "git_revision", "seed"):
        assert key in provenance


def test_digest_covers_every_output():
    base = {
        "events": 10,
        "fct": [(1, 500), (2, 700)],
        "flows_offered": 2,
        "flows_completed": 2,
        "packets_dropped": 0,
        "pfc_pause_events": 3,
        "retransmitted_packets": 0,
        "floodgate": {"credits_sent": 4},
        "hybrid": {},
        "fluid_reallocations": 0,
        "violations": [],
    }
    reference = run.digest([base])
    perturbed = [
        ("events", 11),
        ("fct", [(1, 500), (2, 701)]),
        ("pfc_pause_events", 4),
        ("floodgate", {"credits_sent": 5}),
    ]
    for key, value in perturbed:
        assert run.digest([dict(base, **{key: value})]) != reference, key
    # the sanitized pass's sweeps are events: its digest leaves them out
    assert run.digest([base], with_events=False) == run.digest(
        [dict(base, events=99)], with_events=False
    )
    # violations are checked separately, not hashed
    assert run.digest([dict(base, violations=["x"])]) == reference


def _perturb_after(monkeypatch, calls):
    """Make every outcome after the first ``calls`` report a slower flow."""
    real = run.outcome
    seen = []

    def perturbed(result):
        out = real(result)
        seen.append(1)
        if len(seen) > calls and out["fct"]:
            flow_id, fct = out["fct"][0]
            out["fct"] = [(flow_id, fct + 1)] + out["fct"][1:]
        return out

    monkeypatch.setattr(run, "outcome", perturbed)


def test_disagreeing_timed_passes_fail(monkeypatch):
    _perturb_after(monkeypatch, calls=1)
    lines = []
    result = run.measure(_tiny("incastmix-packet", seconds=1.0), log=lines.append)
    assert result["correct"] is False
    assert any("timed passes disagree" in line for line in lines)


def test_disagreeing_sanitized_repeat_fails_with_exit_code_1(monkeypatch, capsys):
    # the timed passes agree; the sanitized pass is the repeat that does not
    _perturb_after(monkeypatch, calls=run.MIN_PASSES)
    code = run.main(["--workload", "incastmix-packet", "--seconds", "0", "--scale", "tiny"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 1
    assert json.loads(lines[-1])["correct"] is False
    assert any("sanitized pass disagrees" in line for line in lines)


def test_sanitizer_violation_fails(monkeypatch):
    real = run.Bench.sanitized_pass

    def violating(self):
        violations, sanitized_digest = real(self)
        return violations + ["credit conservation broken"], sanitized_digest

    monkeypatch.setattr(run.Bench, "sanitized_pass", violating)
    result = run.measure(_tiny("incast-hybrid"), log=lambda *_: None)
    assert result["correct"] is False


def test_layer_self_times_account_for_traced_wall():
    configs = WORKLOADS["incastmix-packet"].build(1, "tiny")
    bench = run.Bench(configs, log=lambda *_: None)
    bench.timed_pass()
    sampler = LayerSampler(os.path.join(run.SRC, "repro"))
    spans = Spans(sampler)
    bench.traced_pass(sampler, GcClock(), spans)
    metrics = run.per_layer(bench, sampler, GcClock(), spans, [_NoProfile()], (0.0, 0.0, 0))
    self_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    wall = spans.total()
    assert sampler.samples > 20
    assert abs(self_total - wall) <= 0.05 * wall + 2 * sampler.interval
    assert metrics["net.self_s"] + metrics["sim.self_s"] > 0.5 * wall


class _NoProfile:
    max_heap_depth = 0


def test_stops_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(
            os.path.join(run.ROOT, path),
            tmp_path / path,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
    proc = _cli("--workload", "incastmix-packet", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_spec_names_the_workloads_seeds_and_layer_map():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    with open(os.path.join(HERE, "rationale.json"), encoding="utf-8") as fh:
        rationale = json.load(fh)
    seeds = rationale["seeds"]
    assert isinstance(seeds["default"], int) and isinstance(seeds["held_out"], int)
    assert seeds["default"] != seeds["held_out"]
    mapped = [m for layer in rationale["layers"] for m in layer["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in SPEC["per_layer"])
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    workloads = set(WORKLOADS)
    for layer in rationale["layers"]:
        assert set(layer["moves"]) <= end_to_end | {"failed"}, layer["layer"]
        assert set(layer["on"]) | set(layer["little_on"]) <= workloads, layer["layer"]
