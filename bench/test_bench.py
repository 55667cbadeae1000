"""Tests of the benchmark's own arithmetic and accounting.

Run from the repository root with ``python3 -m pytest bench -q``.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402
import spans  # noqa: E402

bench.import_dcboost()
from dcboost import cli, convex, core, problems  # noqa: E402

TINY = bench.Workload("tiny", (bench.Run("ex2", "ex2"),), 4)


def span(name, t0, t1, parent):
    return [name, t0, t1, parent, -1]


def test_self_time_subtracts_union_of_children():
    recorded = [
        span("cli.run", 0, 100, -1),
        span("drivers.a", 10, 30, 0),
        span("drivers.b", 20, 50, 0),   # overlaps a: union is [10, 50]
        span("core.c", 90, 120, 0),     # clipped to the parent's end
        span("convex.d", 12, 28, 1),    # grandchild: not subtracted from 0
    ]
    assert spans.self_times(recorded) == [100 - 40 - 10, 20 - 16, 30, 30, 16]
    assert spans.roots(recorded) == [0, 0, 0, 0, 0]


def test_percentile_needs_ten_samples_beyond():
    assert bench.min_samples(90) == 100
    assert bench.min_samples(50) == 20
    with pytest.raises(ValueError):
        bench.percentile(list(range(99)), 90)
    assert bench.percentile(list(range(100)), 90) == pytest.approx(89.1)
    assert bench.percentile([3.0] * 20, 50) == 3.0


def _config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(core.config_to_flat(
        problems.experiment_config())))
    return path


CRITICAL = {"ex2": problems.resolve("ex2").known_critical_points}


def test_failing_start_is_counted_not_dropped(tmp_path, monkeypatch):
    solve = cli.run_inmbdca

    def flaky(problem, config, x0, seed=0, strict=True):
        if list(seed) == [7, 1]:
            raise core.InvariantViolation("synthetic failure")
        return solve(problem, config, x0, seed=seed, strict=strict)

    monkeypatch.setattr(cli, "run_inmbdca", flaky)
    rec = spans.Recorder()
    rec.install(spans.DRIVER_TARGETS, hooks=bench.HOOKS)
    try:
        res = bench.run_pass(TINY, 7, tmp_path / "out", _config(tmp_path),
                             CRITICAL, rec)
    finally:
        rec.uninstall()
    assert cli.run_inmbdca is flaky
    # 4 starts solved (one failed) plus the 3 written traces replayed
    assert (res.attempted, res.failed, res.traces) == (7, 1, 3)
    assert res.gate == []
    assert res.errors == ["ex2 start 1: InvariantViolation: synthetic failure"]

    totals = bench.Totals(untraced=[res], starts=[(10**6, 1)] * 100)
    assert bench.e2e_metrics(totals, 0.1)["ok_share"] == pytest.approx(6 / 7)


def test_replay_with_a_violation_is_counted(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(_config(tmp_path)), "--out",
                     str(out), "--problem", "ex2", "--start=3,4"]) == 0
    path = out / "trace_000.jsonl"
    lines = path.read_text().splitlines()
    record = json.loads(lines[1])
    record["phi_next"] += 1.0  # breaks the linesearch and descent bounds
    lines[1] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert cli.main(["check", str(path)]) == 1
    assert bench._violated(capsys.readouterr().out) == {str(path)}


def test_traced_pass_keeps_outputs_and_restores_wrapped_names(tmp_path):
    config = _config(tmp_path)
    plain = bench.run_pass(TINY, 3, tmp_path / "a", config, CRITICAL,
                           spans.Recorder())
    value = convex.Sum.__dict__["value"]
    read = core.Trace.__dict__["read_jsonl"]
    rec = spans.Recorder()
    rec.install(spans.MODULE_TARGETS, spans.CLASS_TARGETS, hooks=bench.HOOKS)
    try:
        traced = bench.run_pass(TINY, 3, tmp_path / "b", config, CRITICAL,
                                rec)
    finally:
        rec.uninstall()
    assert convex.Sum.__dict__["value"] is value
    assert core.Trace.__dict__["read_jsonl"] is read

    assert traced.gate == [] and plain.fingerprint == traced.fingerprint
    layers = bench.layer_metrics(rec)
    assert layers["subproblem.calls"] == layers["drivers.outer_iters"] > 0
    assert layers["problems.resolve.calls"] == 4 + 1 + 4  # starts, run, check
    assert all(s[spans.T1] >= s[spans.T0] for s in rec.spans)
    # every solver span belongs to one of the four starts
    ids = {s[spans.START] for s in rec.spans
           if s[spans.NAME] == "drivers.run_inmbdca"}
    assert len(ids) == 4 and -1 not in ids


def test_benchmark_json_matches_the_metrics_emitted():
    doc = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} \
        == bench.E2E_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} \
        == bench.PER_LAYER_UNITS
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
