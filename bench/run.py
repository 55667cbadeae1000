#!/usr/bin/env python3
"""dcboost benchmark: end-to-end metrics and a traced per-layer split.

Usage (from the repository root):

    python3 bench/run.py --workload study2d --seed 42 --seconds 30 --trace 0

Each workload is a list of ``dcboost run`` commands followed by ``dcboost
check`` on every trace they wrote, driven in-process through
``dcboost.cli.main``.  One pass runs the whole list; the benchmark repeats
passes until ``--seconds`` have elapsed and enough start latencies are pooled
for the reported percentile.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` runs one untraced pass and then traced passes, and prints the
per-layer metrics.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Every pass is gated: each written trace replays clean, ``summary.csv`` has one
row per start that did not fail, every final point on ex1/ex2 lies within
1e-4 of a known critical point, and every pass yields the same SHA-256
fingerprint over the trace and summary bytes.  A start that raises is counted
as a failed operation with its error text, not dropped: the report prints
``failed_share`` and the JSON carries ``ok_share = 1 - failed_share``, since
an end-to-end metric must never read 0.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans  # bench/ is on sys.path, being the directory of this script

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

CRITICAL_TOL = 1e-4
MIN_BEYOND = 10
SETUP_REPEATS = 3
HIGHDIM = "random-sep(dim=1000,seed=0)"


@dataclass(frozen=True)
class Run:
    """One ``dcboost run`` command of a workload."""

    label: str
    problem: str
    flags: tuple = ()


@dataclass(frozen=True)
class Workload:
    name: str
    runs: tuple
    starts: int
    box: tuple = (-10.0, 10.0)


# Why each workload exists is in README.md: study2d is the paper's study and
# is dominated by the inner subproblem solver; baselines2d runs the same
# starts with closed-form subproblems, so an inner-solver change should leave
# it unchanged; highdim moves the cost into numpy work and trace JSON.
WORKLOADS = {
    "study2d": Workload("study2d", (Run("ex1", "ex1"), Run("ex2", "ex2")),
                        100),
    "baselines2d": Workload(
        "baselines2d",
        tuple(Run(f"{p}_{s}", p, ("--solver", s))
              for p in ("ex1", "ex2") for s in ("nmbdca", "bdca", "dca")),
        100,
    ),
    "highdim": Workload(
        "highdim",
        (
            Run("inner_solver", HIGHDIM,
                ("--eps-kind", "geometric", "--eps-eps0", "1e-2",
                 "--eps-q", "0.5")),
            Run("perturbed_exact", HIGHDIM,
                ("--inexact-mode", "perturbed_exact")),
        ),
        20,
    ),
}

E2E_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "us_per_iter": "us",
    "start_ms_p50": "ms",
    "start_ms_p90": "ms",
    "check_traces_per_s": "1/s",
    "ok_share": "fraction",
    "peak_rss_mb": "MB",
}


# -- statistics -------------------------------------------------------------

def min_samples(q: float) -> int:
    """Fewest samples that leave at least MIN_BEYOND beyond percentile q."""
    return math.ceil(MIN_BEYOND / (1.0 - q / 100.0) - 1e-9)


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile q of values; refuses a percentile that
    has fewer than MIN_BEYOND samples beyond it."""
    n = len(values)
    if n < min_samples(q):
        raise ValueError(f"p{q:g} needs {min_samples(q)} samples, have {n}")
    ordered = sorted(values)
    pos = (n - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


# -- one pass ---------------------------------------------------------------

@dataclass
class PassResult:
    run_ns: dict = field(default_factory=dict)  # run label -> ns
    check_ns: dict = field(default_factory=dict)  # run label -> ns
    us_per_iter: dict = field(default_factory=dict)  # run label -> us
    attempted: int = 0
    failed: int = 0
    traces: int = 0
    errors: list = field(default_factory=list)
    gate: list = field(default_factory=list)  # failed correctness checks
    fingerprint: str = ""


def _run_argv(workload: Workload, run: Run, out: Path, config: Path,
              seed: int) -> list:
    return ["run", "--config", str(config), "--out", str(out),
            "--problem", run.problem,
            "--starts-count", str(workload.starts),
            "--starts-box", repr(workload.box[0]), repr(workload.box[1]),
            "--starts-seed", str(seed), *run.flags]


def _near_critical(final_x: str, points) -> bool:
    x = [float(v) for v in final_x.split(";")]
    return min(math.dist(x, p) for p in points) <= CRITICAL_TOL


def _violated(check_output: str) -> set:
    """Traces for which ``dcboost check`` reported a violated inequality."""
    bad, current = set(), None
    for line in check_output.splitlines():
        if not line.startswith(" "):
            current = line.rsplit(":", 1)[0]
        elif line.endswith("[VIOLATED]"):
            bad.add(current)
    return bad


def fingerprint(out_dir: Path) -> str:
    """SHA-256 over the sorted trace and summary bytes under out_dir."""
    digest = hashlib.sha256()
    files = sorted(p for p in out_dir.rglob("*")
                   if p.name == "summary.csv"
                   or (p.name.startswith("trace_") and p.suffix == ".jsonl"))
    for path in files:
        digest.update(path.relative_to(out_dir).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_pass(workload: Workload, seed: int, out_dir: Path, config: Path,
             critical: dict, rec: spans.Recorder) -> PassResult:
    """Run every command of the workload once, then gate its outputs.

    ``critical`` maps each problem name to its known critical points (or
    None); it is resolved before any wrapping so the gate adds no spans.
    """
    from dcboost import cli

    res = PassResult()
    for run in workload.runs:
        out = out_dir / run.label
        shutil.rmtree(out, ignore_errors=True)
        stderr = io.StringIO()
        solved = len(rec.samples["drivers"])
        t0 = time.perf_counter_ns()
        with rec.phase("cli.run"), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(stderr):
            code = cli.main(_run_argv(workload, run, out, config, seed))
        res.run_ns[run.label] = time.perf_counter_ns() - t0
        starts = rec.samples["drivers"][solved:]
        if starts:
            res.us_per_iter[run.label] = (sum(ns for ns, _ in starts) / 1e3
                                          / sum(it for _, it in starts))

        errors = [json.loads(line) for line in stderr.getvalue().splitlines()
                  if line.startswith("{")]
        res.attempted += workload.starts
        res.failed += len(errors)
        res.errors += [f"{run.label} start {e['start_index']}: "
                       f"{e['error']}: {e['message']}" for e in errors]
        if code != (1 if errors else 0):
            res.gate.append(f"{run.label}: run exited {code} with "
                            f"{len(errors)} error record(s)")

        traces = sorted(str(p) for p in out.glob("trace_*.jsonl"))
        expected = workload.starts - len(errors)
        if len(traces) != expected:
            res.gate.append(f"{run.label}: {len(traces)} traces, "
                            f"expected {expected}")
        with open(out / "summary.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != expected:
            res.gate.append(f"{run.label}: {len(rows)} summary rows, "
                            f"expected {expected}")
        points = critical[run.problem]
        if points:
            far = [r["final_x"] for r in rows
                   if not _near_critical(r["final_x"], points)]
            if far:
                res.gate.append(f"{run.label}: {len(far)} final point(s) "
                                f"farther than {CRITICAL_TOL} from a "
                                f"critical point, e.g. {far[0]}")

        if traces:
            report = io.StringIO()
            t0 = time.perf_counter_ns()
            with rec.phase("cli.check"), contextlib.redirect_stdout(report), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(["check", *traces])
            res.check_ns[run.label] = time.perf_counter_ns() - t0
            res.attempted += len(traces)
            res.traces += len(traces)
            res.failed += len(_violated(report.getvalue()))
            if code != 0:
                res.gate.append(f"{run.label}: check exited {code}")
    res.fingerprint = fingerprint(out_dir)
    return res


# -- per-layer metrics ------------------------------------------------------

def _solve_hook(rec, span, args, kwargs, result):
    mode = kwargs["mode"] if "mode" in kwargs else args[4]
    rec.counts["subproblem.inner_iters"] += result.inner_iters
    rec.counts["subproblem.accepted"] += result.mode_used == mode


def _search_hook(rec, span, args, kwargs, result):
    rec.counts["linesearch.backtracks"] += result.n_backtracks
    rec.counts["linesearch.zero_steps"] += result.lam == 0.0


def _driver_hook(rec, span, args, kwargs, result):
    iters = len(result.records)
    rec.counts["drivers.outer_iters"] += iters
    rec.samples["drivers"].append((span[spans.T1] - span[spans.T0], iters))


def _write_hook(rec, span, args, kwargs, result):
    path = kwargs["path"] if "path" in kwargs else args[1]
    rec.counts["core.write_bytes"] += os.path.getsize(path)
    rec.counts["core.records"] += len(args[0].records)


HOOKS = {
    "subproblem.solve_inexact": _solve_hook,
    "linesearch.nonmonotone_search": _search_hook,
    "core.write_jsonl": _write_hook,
    **{name: _driver_hook for _, _, name in spans.DRIVER_TARGETS},
}

PER_LAYER_UNITS = {
    "subproblem.calls": "count",
    "subproblem.s": "s",
    "subproblem.inner_iters": "count",
    "subproblem.accepted_share": "fraction",
    "subproblem.check_inexact.s": "s",
    "subproblem.share_of_drivers": "fraction",
    "convex.subdiff_box.calls": "count",
    "convex.eps_subgrad.calls": "count",
    "convex.eps_subgrad.s": "s",
    "convex.eps_subgrad.tries_per_call": "count",
    "linesearch.calls": "count",
    "linesearch.s": "s",
    "linesearch.backtracks": "count",
    "linesearch.zero_step_share": "fraction",
    "linesearch.tau_bound.s": "s",
    "nonmonotone.nu_next.s": "s",
    "drivers.outer_iters": "count",
    "drivers.s": "s",
    "drivers.self_s": "s",
    "drivers.final_residual.s": "s",
    "core.write_jsonl.s": "s",
    "core.write_jsonl.share_of_run": "fraction",
    "core.write_mb": "MB",
    "core.read_jsonl.s": "s",
    "core.records": "count",
    "core.phi.calls": "count",
    "problems.resolve.calls": "count",
    "problems.resolve.s": "s",
    "cli.run.s": "s",
    "cli.run.self_s": "s",
    "cli.check.self_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(rec: spans.Recorder) -> dict:
    """Per-layer metrics of one traced pass, from its spans and counts."""
    recorded = rec.spans
    own = spans.self_times(recorded)
    root = spans.roots(recorded)
    calls, incl, self_ns, cli_self = {}, {}, {}, {}
    for i, (name, t0, t1, _, _) in enumerate(recorded):
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0) + t1 - t0
        self_ns[name] = self_ns.get(name, 0) + own[i]
        if spans.layer_of(name) == "cli":
            phase = recorded[root[i]][spans.NAME]
            cli_self[phase] = cli_self.get(phase, 0) + own[i]

    def s(name):
        return incl.get(name, 0) / 1e9

    def n(name):
        return calls.get(name, 0)

    def share(part, whole):
        return part / whole if whole else 0.0

    drivers = [name for _, _, name in spans.DRIVER_TARGETS]
    drivers_s = sum(s(d) for d in drivers)
    c = rec.counts
    return {
        "subproblem.calls": n("subproblem.solve_inexact"),
        "subproblem.s": s("subproblem.solve_inexact"),
        "subproblem.inner_iters": c["subproblem.inner_iters"],
        "subproblem.accepted_share": share(c["subproblem.accepted"],
                                           n("subproblem.solve_inexact")),
        "subproblem.check_inexact.s": s("subproblem.check_inexact"),
        "subproblem.share_of_drivers":
            share(s("subproblem.solve_inexact"), drivers_s),
        "convex.subdiff_box.calls": n("convex.subdiff_box"),
        "convex.eps_subgrad.calls": n("convex.eps_subgrad"),
        "convex.eps_subgrad.s": s("convex.eps_subgrad"),
        "convex.eps_subgrad.tries_per_call":
            share(c["convex.linearization_cert"], n("convex.eps_subgrad")),
        "linesearch.calls": n("linesearch.nonmonotone_search"),
        "linesearch.s": s("linesearch.nonmonotone_search"),
        "linesearch.backtracks": c["linesearch.backtracks"],
        "linesearch.zero_step_share":
            share(c["linesearch.zero_steps"],
                  n("linesearch.nonmonotone_search")),
        "linesearch.tau_bound.s": s("linesearch.tau_bound"),
        "nonmonotone.nu_next.s": s("nonmonotone.nu_next"),
        "drivers.outer_iters": c["drivers.outer_iters"],
        "drivers.s": drivers_s,
        "drivers.self_s": sum(self_ns.get(d, 0) for d in drivers) / 1e9,
        "drivers.final_residual.s": s("drivers.final_residual"),
        "core.write_jsonl.s": s("core.write_jsonl"),
        "core.write_jsonl.share_of_run":
            share(s("core.write_jsonl"), s("cli.run")),
        "core.write_mb": c["core.write_bytes"] / 1e6,
        "core.read_jsonl.s": s("core.read_jsonl"),
        "core.records": c["core.records"],
        "core.phi.calls": n("core.phi"),
        "problems.resolve.calls": n("problems.resolve"),
        "problems.resolve.s": s("problems.resolve"),
        "cli.run.s": s("cli.run"),
        "cli.run.self_s": cli_self.get("cli.run", 0) / 1e9,
        "cli.check.self_s": cli_self.get("cli.check", 0) / 1e9,
    }


# -- set-up -----------------------------------------------------------------

# Set-up is timed in a child interpreter that stays idle between requests:
# numpy and the standard library stay loaded, dcboost's own modules are
# dropped and imported again for each sample, and the garbage collector is
# paused while timing.  The benchmark asks for samples before the first pass
# and after every pass, so set-up is sampled across the run like the other
# metrics.  Timing whole fresh interpreters instead swung by a third from one
# minute to the next on the reference machine.
_SETUP_CHILD = """
import gc, json, sys, time
names, starts, box, seed = json.loads(sys.argv[1])
import numpy
for request in sys.stdin:
    times = []
    for _ in range(int(request)):
        for mod in [m for m in sys.modules if m.split(".")[0] == "dcboost"]:
            del sys.modules[mod]
        gc.collect()
        gc.disable()
        t0 = time.perf_counter()
        from dcboost import cli, core, problems
        for name in names:
            problems.sample_starts(starts, box, seed,
                                   problems.resolve(name).dim)
        core.config_to_flat(problems.experiment_config())
        times.append(time.perf_counter() - t0)
        gc.enable()
    print(json.dumps({"times": times, "file": cli.__file__}), flush=True)
"""


class SetupProbe:
    """Times dcboost's set-up for one workload: import its modules, resolve
    the workload's problems, generate its starts and build the reference
    config.  ``value`` is the mean over sampling moments of the median of
    the SETUP_REPEATS samples taken at each moment."""

    def __init__(self, workload: Workload, seed: int):
        arg = json.dumps([sorted({r.problem for r in workload.runs}),
                          workload.starts, list(workload.box), seed])
        self._proc = subprocess.Popen(
            [sys.executable, "-c", _SETUP_CHILD, arg],
            env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.moments = []

    def sample(self) -> None:
        self._proc.stdin.write(f"{SETUP_REPEATS}\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise SystemExit(f"set-up probe exited with {self._proc.wait()}")
        child = json.loads(line)
        if not Path(child["file"]).resolve().is_relative_to(SRC):
            raise SystemExit(f"set-up imported dcboost from {child['file']}")
        self.moments.append(statistics.median(child["times"]))

    @property
    def value(self) -> float:
        return statistics.mean(self.moments)

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


def import_dcboost():
    """Import the package from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import dcboost.cli
    except ImportError as exc:
        raise SystemExit(f"cannot import dcboost from {SRC}: {exc}")
    if not Path(dcboost.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"dcboost imported from {dcboost.cli.__file__}, "
                         f"not from {SRC}")
    return dcboost


# -- measurement ------------------------------------------------------------

@dataclass
class Totals:
    """Everything the passes of one invocation add up to."""

    untraced: list = field(default_factory=list)  # PassResult
    traced: list = field(default_factory=list)  # PassResult
    starts: list = field(default_factory=list)  # (driver ns, outer iters)
    layers: list = field(default_factory=list)  # layer_metrics per pass

    @property
    def passes(self) -> list:
        return self.untraced + self.traced

    @property
    def attempted(self) -> int:
        return sum(p.attempted for p in self.passes)

    @property
    def failed(self) -> int:
        return sum(p.failed for p in self.passes)


def measure(workload: Workload, seed: int, seconds: float, traced: bool,
            out_dir: Path, setup: SetupProbe | None = None) -> tuple:
    """Run passes until ``seconds`` elapse; return the totals and the
    recorder holding the last traced pass (None when untraced).

    Untraced passes continue past the deadline until enough start latencies
    are pooled for p90, and ``setup`` is sampled after each of them; with
    ``traced`` a single untraced pass is followed by traced passes."""
    from dcboost import core, problems

    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    config = out_dir / "config.json"
    config.write_text(json.dumps(core.config_to_flat(
        problems.experiment_config())))
    critical = {r.problem: problems.resolve(r.problem).known_critical_points
                for r in workload.runs}
    totals = Totals()

    light = spans.Recorder()
    light.install(spans.DRIVER_TARGETS, hooks=HOOKS)
    try:
        deadline = time.perf_counter() + seconds
        while True:
            light.reset()
            totals.untraced.append(
                run_pass(workload, seed, out_dir, config, critical, light))
            totals.starts += light.samples["drivers"]
            if setup is not None:
                setup.sample()
            if traced or (time.perf_counter() >= deadline and
                          len(totals.starts) >= min_samples(90)):
                break
    finally:
        light.uninstall()
    if not traced:
        return totals, None

    rec = spans.Recorder()
    rec.install(spans.MODULE_TARGETS, spans.CLASS_TARGETS, hooks=HOOKS)
    try:
        while True:
            rec.reset()
            totals.traced.append(
                run_pass(workload, seed, out_dir, config, critical, rec))
            totals.layers.append(layer_metrics(rec))
            if time.perf_counter() >= deadline:
                break
    finally:
        rec.uninstall()
    return totals, rec


def mean_pass_s(passes, attr: str) -> float:
    """Mean over the passes of the seconds their commands took."""
    return statistics.mean(
        sum(getattr(p, attr).values()) for p in passes) / 1e9


def e2e_metrics(totals: Totals, setup_s: float) -> dict:
    """End-to-end metrics of the untraced passes.

    Totals over a whole run are ratios of sums and means over passes, not
    medians: the reference machine's two vCPUs switch between a fast and a
    slow speed every few seconds, and a median over passes then jumps
    between the two speeds from run to run while a mean moves with the share
    of time spent slow.  Latency percentiles pool every successful start.
    """
    passes = totals.untraced
    start_ms = [ns / 1e6 for ns, _ in totals.starts]
    return {
        "setup_s": setup_s,
        "run_s": mean_pass_s(passes, "run_ns"),
        "us_per_iter": (sum(ns for ns, _ in totals.starts) / 1e3
                        / sum(iters for _, iters in totals.starts)),
        "start_ms_p50": percentile(start_ms, 50),
        "start_ms_p90": percentile(start_ms, 90),
        "check_traces_per_s":
            passes[0].traces / mean_pass_s(passes, "check_ns"),
        "ok_share": 1.0 - totals.failed / totals.attempted,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer_metrics(totals: Totals) -> dict:
    """Median over traced passes of each layer metric, plus the overhead."""
    out = {name: statistics.median(layers[name] for layers in totals.layers)
           for name in totals.layers[0]}
    out["trace.overhead_s"] = (mean_pass_s(totals.traced, "run_ns")
                               - mean_pass_s(totals.untraced, "run_ns"))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="dcboost benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=42,
                    help="seeds the starts (dcboost --starts-seed)")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    dcboost = import_dcboost()
    import numpy as np

    workload = WORKLOADS[args.workload]
    out_dir = OUT / workload.name
    if args.trace:
        totals, rec = measure(workload, args.seed, args.seconds, True,
                              out_dir)
        metrics, units = per_layer_metrics(totals), PER_LAYER_UNITS
        spans.write_spans(rec.spans, out_dir / "spans.jsonl")
        if rec.missing:
            print("not wrapped (absent from the package): "
                  + ", ".join(rec.missing))
    else:
        setup = SetupProbe(workload, args.seed)
        try:
            setup.sample()
            totals, _ = measure(workload, args.seed, args.seconds, False,
                                out_dir, setup)
        finally:
            setup.close()
        metrics, units = e2e_metrics(totals, setup.value), E2E_UNITS

    passes = totals.passes
    gate = sorted({g for p in passes for g in p.gate})
    prints = sorted({p.fingerprint for p in passes})
    if len(prints) != 1:
        gate.append(f"passes disagree on the output fingerprint: {prints}")
    samples = len(totals.starts)
    print(f"workload {workload.name}  seed {args.seed}  passes {len(passes)}"
          f"  start samples {samples}  nproc {os.cpu_count()}  "
          f"{platform.machine()}  python "
          f"{sys.version.split()[0]}  numpy {np.__version__}  dcboost "
          f"{dcboost.__version__}")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:14.6g} {units[name]}")
    plain = totals.untraced
    print("  us_per_iter by command: " + ", ".join(
        f"{label} {statistics.median(p.us_per_iter[label] for p in plain):.0f}"
        for label in plain[0].us_per_iter))
    print(f"  failed_share {totals.failed}/{totals.attempted}"
          f" = {totals.failed / totals.attempted:.6g}")
    for error in sorted({e for p in passes for e in p.errors}):
        print(f"  failed: {error}")
    print(f"  fingerprint {prints[0]}")
    for problem in gate:
        print(f"  GATE FAILED: {problem}")
    print(json.dumps({
        "correct": not gate,
        "attempted": totals.attempted,
        "failed": totals.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 1 if gate else 0


if __name__ == "__main__":
    sys.exit(main())
