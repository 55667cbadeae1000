"""Batch experiment runner, trace checker, and bound reporter.

Subcommands:

* ``run``        -- execute one solver over a set of starts, writing one
                    JSONL trace per start plus a summary CSV.
* ``check``      -- replay every certified inequality on stored traces and
                    report the worst slack per inequality.
* ``complexity`` -- evaluate the iteration-count bounds against a trace.

Exit codes: 0 success, 1 invariant/check failure, 2 usage/config error.
Configuration is a flat JSON document (keys like ``rho``, ``eps.kind``,
``nu.omega``, ``starts.count``); command-line flags override file keys.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np

from . import problems
from .certificates import TOLERANCE, holds, replay, replay_stacked
from .core import (
    CONFIG_KEYS,
    InvariantViolation,
    Trace,
    config_from_flat,
    flat_value,
    validate,
)
from .drivers import (
    SOLVERS,
    complexity_report,
    config_warning,
    final_residual,
    lowest_phi,
    run_inmbdca,
    solver_config,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

# flat keys that choose what runs, beside the solver's CONFIG_KEYS:
# key -> (value type, choices or None)
_RUN_KEYS = {
    "problem": (str, None),
    "solver": (str, tuple(sorted(SOLVERS))),
    "starts.count": (int, None),
    "starts.seed": (int, None),
}
_FLAT_KEYS = {**_RUN_KEYS, **CONFIG_KEYS}


def _vec(x: np.ndarray) -> str:
    return ";".join(map(repr, x.tolist()))


def _build_run_parser(sub):
    p = sub.add_parser("run", help="execute a solver over a set of starts")
    p.add_argument("--config", help="flat JSON config file")
    p.add_argument("--out", required=True, help="output directory")
    for key, (tp, choices) in _FLAT_KEYS.items():
        name = key.replace(".", "_")
        p.add_argument("--" + name.replace("_", "-"), dest=key,
                       type=tp if tp in (int, float) else None,
                       choices=choices,
                       metavar=None if choices else name.upper())
    p.add_argument("--starts-box", dest="starts_box", nargs=2, type=float,
                   metavar=("LO", "HI"))
    p.add_argument("--start", action="append", default=None,
                   metavar="X1,X2,...",
                   help="explicit start point (repeatable; overrides sampling)")
    p.add_argument("--workers", type=int, default=1)


def _gather_flat(args) -> dict:
    flat = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a flat JSON object")
        # every file value is read as its key's type, even one a flag
        # overrides or a nu key the chosen nu.kind ignores
        for key, value in loaded.items():
            if key in _FLAT_KEYS:
                value = flat_value(key, value, _FLAT_KEYS[key][0])
            elif key not in ("starts", "starts.box"):
                raise ValueError(f"unknown config key {key!r}")
            flat[key] = value
    flat.update({key: value for key, value in vars(args).items()
                 if key in _FLAT_KEYS and value is not None})
    if args.starts_box is not None:
        flat["starts.box"] = list(args.starts_box)
    if args.start:
        flat["starts"] = [[float(v) for v in s.split(",")] for s in args.start]
    return flat


def _resolve_starts(flat: dict, dim: int, seed: int) -> np.ndarray:
    if "starts" in flat:
        try:
            starts = np.asarray(flat["starts"], dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            # a dict, a string or ragged rows
            raise ValueError(f"config key 'starts': {exc}") from None
        if starts.size == 0:
            return np.zeros((0, dim))
        if starts.ndim != 2 or starts.shape[1] != dim:
            raise ValueError(f"config key 'starts': explicit starts must be "
                             f"{dim}-dimensional points")
    else:
        box = flat.get("starts.box", [-10.0, 10.0])
        if not isinstance(box, list) or len(box) != 2:
            raise ValueError("config key 'starts.box': expected a list of two "
                             f"numbers, got {box!r:.40}")
        lo, hi = (flat_value("starts.box", v, float) for v in box)
        if not 0.0 <= hi - lo < np.inf:  # also a box too wide to sample
            raise ValueError(f"config key 'starts.box': [{lo}, {hi}] is not a "
                             "finite interval lo <= hi")
        count = flat.get("starts.count", 1)
        if count < 0:
            raise ValueError(f"config key 'starts.count': {count} is negative")
        starts = problems.sample_starts(count, (lo, hi), seed, dim)
    if not np.isfinite(starts).all():  # only explicit starts can fail this
        raise ValueError("config key 'starts': start points must be finite")
    return starts


def _quiet(warning) -> None:
    """Ignore ``warning``, which ``run`` prints once, in this process."""
    if warning:
        warnings.filterwarnings("ignore", re.escape(warning), RuntimeWarning)


def _execute_start(payload):
    """Run one start; returns (summary row, error record or None)."""
    index, problem_name, config, x0, seed, trace_path = payload
    problem = problems.resolve(problem_name)
    try:
        trace = run_inmbdca(problem, config, x0, seed=seed)
    except (InvariantViolation, ValueError) as exc:
        return None, {
            "error": type(exc).__name__,
            "message": str(exc),
            "start_index": index,
            "x0": x0.tolist(),
        }
    trace.write_jsonl(trace_path)
    row = {
        "start": _vec(x0),
        "final_x": _vec(trace.final_x),
        "final_phi": repr(trace.final_phi),
        "iterations": len(trace.records),
        "total_backtracks": int(trace.records.columns["n_backtracks"].sum()),
        "termination": trace.termination.value,
        "final_residual": repr(final_residual(problem, trace)),
    }
    return row, None


def cmd_run(args) -> int:
    try:
        flat = _gather_flat(args)
        problem_name = flat.get("problem")
        if not problem_name:
            raise ValueError("no problem selected (key 'problem')")
        problem = problems.resolve(problem_name)
        config = config_from_flat(flat)
        solved = solver_config(flat.get("solver", "inmbdca"), config)
        # values are range-checked as given (a trial step of -1 is an error
        # although dca runs 0), and the theta > 0 rule against the mode the
        # solver runs
        violations = validate(problem, replace(
            config, inexact_mode=solved.inexact_mode))
        if violations:
            raise ValueError("invalid configuration: " + "; ".join(violations))
        master_seed = flat.get("starts.seed", 0)  # typed by _gather_flat
        starts = _resolve_starts(flat, problem.dim, master_seed)
        os.makedirs(args.out, exist_ok=True)  # OSError: a file at --out
    except (ValueError, OSError) as exc:
        print(f"run: {exc}", file=sys.stderr)
        return EXIT_USAGE

    payloads = [
        (i, problem_name, solved, x0,
         [master_seed, i], os.path.join(args.out, f"trace_{i:03d}.jsonl"))
        for i, x0 in enumerate(starts)
    ]

    warning = config_warning(solved)
    if warning:
        print(f"run: warning: {warning}", file=sys.stderr)
    with warnings.catch_warnings():
        _quiet(warning)
        if args.workers > 1 and len(payloads) > 1:
            with ProcessPoolExecutor(args.workers, initializer=_quiet,
                                     initargs=(warning,)) as pool:
                results = list(pool.map(_execute_start, payloads))
        else:
            results = [_execute_start(p) for p in payloads]

    exit_code = EXIT_OK
    summary = os.path.join(args.out, "summary.csv")
    with open(summary, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(
            fh,
            fieldnames=["start", "final_x", "final_phi", "iterations",
                        "total_backtracks", "termination", "final_residual"],
            lineterminator="\n",
        )
        writer.writeheader()
        for row, error in results:
            if error is not None:
                print(json.dumps(error), file=sys.stderr)
                exit_code = EXIT_CHECK_FAILED
            else:
                writer.writerow(row)
    print(f"run: {len(results)} start(s), summary -> {summary}")
    return exit_code


def _load(path):
    """A stored trace and its problem; a ValueError says what is wrong."""
    trace = Trace.read_jsonl(path)
    problem = problems.resolve(trace.problem_name)
    if trace.x0.size != problem.dim:
        raise ValueError(f"field 'x0': {trace.x0.size} values, problem "
                         f"{problem.name!r} has dimension {problem.dim}")
    return trace, problem


# records x dimension a check batch holds before it replays: dim-2 traces
# replay some twenty at a time, a dim-1000 trace with a record alone
_BATCH_VALUES = 512


def _report(batch, problem) -> int:
    """Replay a batch of (path, trace) of ``problem`` and one config, and
    print each trace's worst slacks, in order."""
    exit_code = EXIT_OK
    for (path, trace), worst in zip(batch, replay_stacked(
            [trace for _, trace in batch], problem)):
        print(f"{path}: {len(trace.records)} record(s)")
        for name in TOLERANCE:
            if name not in worst:
                print(f"  {name}: no applicable records")
                continue
            value, k = worst[name]
            ok = holds(name, value)
            print(f"  {name}: worst slack {value:.3e} at k={k} "
                  f"[{'ok' if ok else 'VIOLATED'}]")
            if not ok:
                exit_code = EXIT_CHECK_FAILED
    return exit_code


def cmd_check(args) -> int:
    exit_code, batch, key, held, head = EXIT_OK, [], None, 0, None
    for path in args.traces:
        try:
            trace, problem = _load(path)
        except (ValueError, OSError) as exc:
            _report(batch, head)
            print(f"{path}: parse error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        c = trace.config  # == takes -0.0 for 0.0: repr what slacks reads
        same = (trace.problem_name, c, repr(c.theta), repr(c.rho))
        if same != key:
            exit_code = max(exit_code, _report(batch, head))
            batch, key, held, head = [], same, 0, problem
        batch.append((path, trace))
        held += len(trace.records) * problem.dim
        if held >= _BATCH_VALUES:  # full: replay it before reading on
            exit_code = max(exit_code, _report(batch, head))
            batch, held = [], 0
    return max(exit_code, _report(batch, head))


def cmd_complexity(args) -> int:
    try:
        trace, problem = _load(args.trace)
    except (ValueError, OSError) as exc:
        print(f"{args.trace}: parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    phi_bar = args.phibar
    heuristic = False
    if phi_bar is None:
        phi_bar = problem.phi_lower_bound
    if phi_bar is None:
        # conservative stand-in: the best value this trace ever saw, minus a
        # margin; still valid for prefix checks since it lower-bounds every
        # recorded phi(x^N)
        if not trace.records:
            print("complexity: empty trace and no lower bound available",
                  file=sys.stderr)
            return EXIT_USAGE
        phi_bar = lowest_phi(trace) - 1e-6
        heuristic = True
    try:
        report = complexity_report(
            trace, phi_bar, problem.sigma, trace.config.theta, xi=args.xi
        )
    except ValueError as exc:
        print(f"complexity: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"trace: {args.trace}")
    if heuristic:
        print(f"phi_bar: {phi_bar!r} (heuristic stand-in: best recorded "
              "phi minus 1e-6)")
    print(f"iterations (N): {report.n}")
    print(f"min ||d||: {report.min_d_norm:.6e}")
    print(f"decay bound (recorded sums): {report.bound_total:.6e}")
    print(f"bound holds on every prefix: {report.prefix_ok}")
    print(f"liminf proxy (trailing half): {report.liminf_proxy:.6e}")
    if report.bound_tail is not None:
        print(f"tail-dominated bound from k0={report.tail_start} "
              f"(xi={report.xi}): {report.bound_tail:.6e} "
              f"(smaller stated variant, needs nu_k + eps_k <= xi*(sigma/2-"
              f"theta)*||d||^2, unchecked: {report.bound_tail_stated:.6e})")
    else:
        print("tail-dominated bound: not applicable "
              "(domination of nu/eps by xi*(sigma/2-theta)*||d||^2 not met)")
    # the certificate replay doubles as a sanity gate for the bound inputs
    failed = [name for name, (value, _) in replay(trace, problem).items()
              if not holds(name, value)]
    if failed:
        print(f"certificate replay failed: {', '.join(failed)}")
        return EXIT_CHECK_FAILED
    return EXIT_OK if report.prefix_ok else EXIT_CHECK_FAILED


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dcboost",
        description="difference-of-convex solvers with certified traces",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _build_run_parser(sub)

    p_check = sub.add_parser("check", help="replay inequalities on traces")
    p_check.add_argument("traces", nargs="+", help="JSONL trace files")

    p_cplx = sub.add_parser("complexity",
                            help="evaluate iteration-count bounds on a trace")
    p_cplx.add_argument("trace", help="JSONL trace file")
    p_cplx.add_argument("--phibar", type=float, default=None,
                        help="lower bound of phi (defaults to the problem's)")
    p_cplx.add_argument("--xi", type=float, default=0.25,
                        help="fraction in (0, 1/2) for the tail bound")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0

    if args.command == "run":
        return cmd_run(args)
    if args.command == "check":
        return cmd_check(args)
    return cmd_complexity(args)


if __name__ == "__main__":
    raise SystemExit(main())
