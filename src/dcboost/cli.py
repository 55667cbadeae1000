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
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import problems
from .certificates import TOLERANCE, holds, replay
from .core import (
    CONFIG_KEYS,
    InvariantViolation,
    Trace,
    config_from_flat,
    flat_value,
    validate,
)
from .drivers import (
    complexity_report,
    final_residual,
    run_bdca,
    run_dca,
    run_inmbdca,
    run_nmbdca,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

_SOLVERS = {
    "inmbdca": lambda p, c, x0, seed: run_inmbdca(p, c, x0, seed=seed),
    "nmbdca": lambda p, c, x0, seed: run_nmbdca(p, c, x0),
    "bdca": lambda p, c, x0, seed: run_bdca(p, c, x0),
    "dca": lambda p, c, x0, seed: run_dca(p, c, x0),
}

# flat keys that choose what runs, beside the solver's CONFIG_KEYS:
# key -> (value type, choices or None)
_RUN_KEYS = {
    "problem": (str, None),
    "solver": (str, tuple(sorted(_SOLVERS))),
    "starts.count": (int, None),
    "starts.seed": (int, None),
}
_FLAT_KEYS = {**_RUN_KEYS, **CONFIG_KEYS}


def _vec(x) -> str:
    return ";".join(repr(float(v)) for v in x)


def _build_run_parser(sub):
    p = sub.add_parser("run", help="execute a solver over a set of starts")
    p.add_argument("--config", help="flat JSON config file")
    p.add_argument("--out", required=True, help="output directory")
    for key, (tp, choices) in _FLAT_KEYS.items():
        name = key.replace(".", "_")
        if key != "lambda_bar.kind":  # file-only: flags set a constant step
            p.add_argument("--" + name.replace("_", "-"), dest=key,
                           type=tp if tp in (int, float) else None,
                           choices=choices,
                           metavar=None if choices else name.upper())
    p.add_argument("--starts-box", dest="starts_box", nargs=2, type=float,
                   metavar=("LO", "HI"))
    p.add_argument("--start", action="append", default=None,
                   metavar="X1,X2,...",
                   help="explicit start point (repeatable; overrides sampling)")
    p.add_argument("--plot-data", action="store_true",
                   help="also write per-start objective and iterate-path CSVs "
                        "(2-D problems)")
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
        starts = np.asarray(flat["starts"], dtype=float)
        if starts.size == 0:
            return np.zeros((0, dim))
        if starts.ndim != 2 or starts.shape[1] != dim:
            raise ValueError(
                f"explicit starts must be {dim}-dimensional points"
            )
    else:
        box = np.asarray(flat.get("starts.box", [-10.0, 10.0]), dtype=float)
        if not np.isfinite(box).all():
            raise ValueError(f"starts.box must be finite, got {box.tolist()}")
        starts = problems.sample_starts(flat.get("starts.count", 1), box,
                                        seed, dim)
    if not np.isfinite(starts).all():
        raise ValueError("start points must be finite")
    return starts


def _execute_start(payload):
    """Run one start; returns (index, summary row, error record or None)."""
    (index, problem_name, solver, flat, x0, seed, trace_path,
     plot_paths) = payload
    problem = problems.resolve(problem_name)
    config = config_from_flat(flat)
    try:
        trace = _SOLVERS[solver](problem, config, np.asarray(x0), seed)
    except (InvariantViolation, ValueError) as exc:
        return index, None, {
            "error": type(exc).__name__,
            "message": str(exc),
            "start_index": index,
            "x0": list(map(float, x0)),
        }
    trace.write_jsonl(trace_path)
    if plot_paths is not None:
        phi_path, path_path = plot_paths
        with open(phi_path, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["k", "phi_x"])
            for r in trace.records:
                w.writerow([r.k, repr(r.phi_x)])
            w.writerow([len(trace.records), repr(trace.final_phi)])
        with open(path_path, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["x1", "x2"])
            for r in trace.records:
                w.writerow([repr(float(r.x[0])), repr(float(r.x[1]))])
            w.writerow([repr(float(trace.final_x[0])),
                        repr(float(trace.final_x[1]))])
    row = {
        "start": _vec(x0),
        "final_x": _vec(trace.final_x),
        "final_phi": repr(trace.final_phi),
        "iterations": len(trace.records),
        "total_backtracks": sum(r.n_backtracks for r in trace.records),
        "termination": trace.termination.value,
        "final_residual": repr(final_residual(problem, trace)),
    }
    return index, row, None


def cmd_run(args) -> int:
    import os

    try:
        flat = _gather_flat(args)
    except (ValueError, OSError) as exc:
        print(f"run: {exc}", file=sys.stderr)
        return EXIT_USAGE
    problem_name = flat.get("problem")
    if not problem_name:
        print("run: no problem selected (key 'problem')", file=sys.stderr)
        return EXIT_USAGE
    solver = flat.get("solver", "inmbdca")
    if solver not in _SOLVERS:
        print(f"run: unknown solver {solver!r}", file=sys.stderr)
        return EXIT_USAGE
    try:
        problem = problems.resolve(problem_name)
        config = config_from_flat(flat)
        violations = validate(problem, config)
    except ValueError as exc:
        print(f"run: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if violations:
        print("run: invalid configuration: " + "; ".join(violations),
              file=sys.stderr)
        return EXIT_USAGE
    master_seed = flat.get("starts.seed", 0)  # typed by _gather_flat
    try:
        starts = _resolve_starts(flat, problem.dim, master_seed)
    except (ValueError, OverflowError) as exc:  # a box too wide to sample
        print(f"run: {exc}", file=sys.stderr)
        return EXIT_USAGE

    os.makedirs(args.out, exist_ok=True)
    payloads = []
    for i, x0 in enumerate(starts):
        trace_path = os.path.join(args.out, f"trace_{i:03d}.jsonl")
        plot_paths = None
        if args.plot_data and problem.dim == 2:
            plot_paths = (
                os.path.join(args.out, f"phi_{i:03d}.csv"),
                os.path.join(args.out, f"path_{i:03d}.csv"),
            )
        payloads.append((
            i, problem_name, solver, flat, [float(v) for v in x0],
            [master_seed, i], trace_path, plot_paths,
        ))

    if args.workers > 1 and len(payloads) > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            results = list(pool.map(_execute_start, payloads))
    else:
        results = [_execute_start(p) for p in payloads]

    results.sort(key=lambda t: t[0])
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
        for _, row, error in results:
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


def cmd_check(args) -> int:
    exit_code = EXIT_OK
    for path in args.traces:
        try:
            trace, problem = _load(path)
        except (ValueError, OSError) as exc:
            print(f"{path}: parse error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        worst = replay(trace, problem)
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
        phi_bar = min(
            min(min(r.phi_x, r.phi_y, r.phi_next) for r in trace.records),
            trace.final_phi,
        ) - 1e-6
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
              f"(looser stated variant: {report.bound_tail_stated:.6e})")
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
