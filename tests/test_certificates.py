"""The certificate catalogue: each inequality fails alone when only it is
broken, in the live loop and in ``dcboost check`` alike, and NaN fails."""

import dataclasses
import math

import numpy as np
import pytest

from dcboost import cli, drivers, problems
from dcboost.certificates import CERTIFICATES, TOLERANCE, replay, slacks
from dcboost.convex import l2_norm, separable_coefficients
from dcboost.core import InvariantViolation, IterationRecord, next_x

EX2 = problems.resolve("ex2")
EX2_G = separable_coefficients(EX2.g, EX2.dim)
REF = problems.experiment_config()
START = [5.0, 5.0]
K_BAD = 0


def _split_band(r, problem, config):
    # descent_step is the sum of descent_y and linesearch, so it can fail
    # alone only where each of those sits inside its tolerance
    d_sq = r.d_norm**2
    phi_y = r.phi_x - (problem.sigma / 2 - config.theta) * d_sq + r.eps_k
    phi_y += 0.6e-9
    phi_next = phi_y - config.rho * r.lambda_k**2 * d_sq + r.nu_k + 0.6e-9
    return {"phi_y": phi_y, "phi_next": phi_next}


CORRUPTIONS = {
    "eps_certificate": lambda r, p, c: {"eps_certified": r.eps_k + 1.0},
    "subgrad_membership": lambda r, p, c: {"xi": r.xi + 10.0},
    "inexact_bound": lambda r, p, c: {"inexact_lhs": r.inexact_rhs + 1.0},
    "descent_y": lambda r, p, c: {"phi_y": r.phi_x + 1.0},
    "linesearch": lambda r, p, c: {"phi_y": r.phi_next - 1.0},
    "descent_step": _split_band,
    "phi_lower_bound": lambda r, p, c: {"phi_next": p.phi_lower_bound - 1.0},
}


def test_catalogue_names_match_the_slacks():
    trace = drivers.run_inmbdca(EX2, REF, START, seed=0)
    names = [name for name, _ in CERTIFICATES]
    assert list(slacks(trace.records[0], EX2, REF, EX2_G)) == names
    assert list(CORRUPTIONS) == names
    assert list(TOLERANCE) == names + ["reconstruction"]


@pytest.mark.parametrize("name", list(CORRUPTIONS))
def test_corrupted_record_is_flagged_under_its_name_live_and_replayed(
        name, tmp_path, monkeypatch, capsys):
    corrupt = CORRUPTIONS[name]

    def corrupted(record):
        return dataclasses.replace(record, **corrupt(record, EX2, REF))

    trace = drivers.run_inmbdca(EX2, REF, START, seed=0)
    trace.records[K_BAD] = corrupted(trace.records[K_BAD])
    slack = slacks(trace.records[K_BAD], EX2, REF, EX2_G)
    failing = {n for n, s in slack.items() if not s >= -TOLERANCE[n]}
    assert failing == {name}

    path = tmp_path / "trace.jsonl"
    trace.write_jsonl(path)
    capsys.readouterr()
    assert cli.main(["check", str(path)]) == 1
    flagged = [line.split(":")[0].strip()
               for line in capsys.readouterr().out.splitlines()
               if line.endswith("[VIOLATED]")]
    assert flagged == [name]

    def build(**fields):
        record = IterationRecord(**fields)
        return corrupted(record) if record.k == K_BAD else record

    monkeypatch.setattr(drivers, "IterationRecord", build)
    message = f"^{name.replace('_', ' ')} failed at iteration {K_BAD}:"
    with pytest.raises(InvariantViolation, match=message):
        drivers.run_inmbdca(EX2, REF, START, seed=0)


def test_nan_slack_stays_the_worst():
    trace = drivers.run_inmbdca(EX2, REF, START, seed=0)
    r = trace.records[0]
    trace.records[0] = dataclasses.replace(r, phi_y=math.nan)
    worst = replay(trace, EX2)
    for name in ("descent_y", "linesearch", "phi_lower_bound"):
        value, k = worst[name]
        assert math.isnan(value) and k == 0


def _scan(trace, problem):
    """The worst slacks as a scan record by record keeps them: the first
    value, replaced only by a smaller one or a NaN, and never once NaN."""
    worst = {}

    def note(name, slack, k):
        old = worst.get(name)
        if old is None or not (slack >= old[0] or math.isnan(old[0])):
            worst[name] = (slack, k)

    g = separable_coefficients(problem.g, problem.dim)
    for r in trace.records:
        for name, slack in slacks(r, problem, trace.config, g).items():
            note(name, slack, r.k)
    ends = [r.x for r in trace.records[1:]] + [trace.final_x]
    for r, end in zip(trace.records, ends):
        note("reconstruction", -l2_norm(end - next_x(r.y, r.x, r.lambda_k)),
             r.k)
    return worst


def _exact(worst):
    # repr tells -0.0 from 0.0 and NaN from every number
    return {name: (repr(value), k) for name, (value, k) in worst.items()}


def _edited(trace, edits):
    records = list(trace.records)
    for k, fields in edits.items():
        records[k] = dataclasses.replace(records[k], **fields)
    return dataclasses.replace(trace, records=records)


@pytest.mark.parametrize("problem, solver", [
    ("ex1", drivers.run_inmbdca), ("ex2", drivers.run_inmbdca),
    ("ex2", drivers.run_nmbdca), ("ex2", drivers.run_dca),
    ("random-sep(dim=3,seed=5)", drivers.run_inmbdca),
])
def test_replay_matches_the_record_scan_on_solver_traces(problem, solver):
    p = problems.resolve(problem)
    trace = solver(p, REF, [5.0] + [-3.0] * (p.dim - 1))
    assert len(trace.records) > 3
    assert _exact(replay(trace, p)) == _exact(_scan(trace, p))


def test_first_nan_after_a_worse_finite_slack_stays_the_worst():
    trace = drivers.run_inmbdca(EX2, REF, START, seed=0)
    r1, r3 = trace.records[1], trace.records[3]
    trace = _edited(trace, {
        1: {"phi_y": r1.phi_x + 5.0},  # descent_y -5: finite and worse
        3: {"phi_y": math.nan},
        5: {"phi_y": math.nan},  # a second NaN does not move it
        2: {"eps_certified": math.nan},
        4: {"eps_certified": r3.eps_k + 7.0},  # finite, after the NaN
    })
    worst = replay(trace, EX2)
    assert _exact(worst) == _exact(_scan(trace, EX2))
    for name in ("descent_y", "linesearch", "phi_lower_bound"):
        value, k = worst[name]
        assert math.isnan(value) and k == 3
    value, k = worst["eps_certificate"]
    assert math.isnan(value) and k == 2


def test_inf_meeting_minus_inf_in_phi_is_a_nan_lower_bound_slack():
    trace = drivers.run_inmbdca(EX2, REF, START, seed=0)
    trace = _edited(trace, {2: {"phi_x": math.inf, "phi_next": -math.inf}})
    worst = replay(trace, EX2)
    assert _exact(worst) == _exact(_scan(trace, EX2))
    value, k = worst["phi_lower_bound"]
    assert math.isnan(value) and k == 2


def test_squares_are_the_float_power_of_one_record():
    # a float's **2 is libm's pow, which differs from d * d in the last bit
    # for some d; replay squares exactly as the live loop does.  The square
    # of a 27-bit d in [sqrt 2, 2) can lie halfway between two floats, where
    # pow may round the other way
    start = math.ceil(math.sqrt(2.0) * 2**26) | 1
    candidates = [m * 2.0**-26 for m in range(start, start + 4000, 2)]
    odd = [d for d in candidates if d**2 != d * d][:2] or candidates[:2]
    trace = drivers.run_inmbdca(EX2, REF, START, seed=0)
    zero = {"phi_x": 0.0, "phi_y": 0.0, "phi_next": 0.0, "eps_k": 0.0,
            "nu_k": 0.0}
    trace = _edited(trace, {
        1: {**zero, "d_norm": odd[0], "lambda_k": 1.0},
        2: {**zero, "d_norm": 1.0, "lambda_k": odd[1]},
    })
    got, want = replay(trace, EX2), _scan(trace, EX2)
    assert _exact(got) == _exact(want)
    assert got["descent_y"][1] == 1 and got["linesearch"][1] == 2


@pytest.mark.parametrize("dim", [3, 50, 1000])
def test_reconstruction_takes_each_row_norm_as_l2_norm(dim):
    # x stored off its derivation in most records, so every row's norm is
    # nonzero and its summation order shows in the last bits
    p = problems.resolve(f"random-sep(dim={dim},seed=1)")
    trace = drivers.run_inmbdca(p, REF, np.linspace(-5.0, 5.0, dim), seed=0)
    rng = np.random.default_rng(dim)
    trace = _edited(trace, {
        k: {"x": r.x * (1.0 + rng.uniform(-1e-9, 1e-9, dim))}
        for k, r in enumerate(trace.records) if k % 4
    })
    assert _exact(replay(trace, p)) == _exact(_scan(trace, p))


def test_ties_go_to_the_first_record_signed_zeros_included(capsys,
                                                           tmp_path):
    trace = drivers.run_inmbdca(EX2, REF, START, seed=0)
    rs = trace.records
    trace = _edited(trace, {
        1: {"inexact_lhs": rs[1].inexact_rhs + 2.0},
        4: {"inexact_lhs": rs[4].inexact_rhs + 2.0},
        # eps_k - eps_certified: 0.0 at k=2, -0.0 at k=3
        2: {"eps_k": 0.0, "eps_certified": 0.0},
        3: {"eps_k": -0.0, "eps_certified": 0.0},
    })
    worst = replay(trace, EX2)
    assert _exact(worst) == _exact(_scan(trace, EX2))
    assert worst["inexact_bound"][1] == 1
    # every xi lies in its box, so each membership slack is -0.0: a tie
    # that the first record wins
    value, k = worst["subgrad_membership"]
    assert value == 0.0 and math.copysign(1.0, value) == -1.0 and k == 0

    path = tmp_path / "trace.jsonl"
    trace.write_jsonl(path)
    capsys.readouterr()
    cli.main(["check", str(path)])
    assert ("  subgrad_membership: worst slack -0.000e+00 at k=0 [ok]"
            in capsys.readouterr().out.splitlines())


@pytest.mark.parametrize("seed", range(6))
def test_replay_matches_the_record_scan_under_random_edits(seed):
    # NaN, infinities, signed zeros and repeated values dropped into random
    # scalar fields and arrays of random records
    rng = np.random.default_rng(seed)
    trace = drivers.run_inmbdca(EX2, REF, START, seed=0)
    specials = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, -1.0]
    scalars = ["phi_x", "phi_y", "phi_next", "eps_k", "eps_certified",
               "inexact_lhs", "inexact_rhs", "nu_k", "lambda_k", "d_norm"]
    edits = {}
    for _ in range(8):
        k = int(rng.integers(len(trace.records)))
        if rng.random() < 0.8:
            name = scalars[rng.integers(len(scalars))]
            value = specials[rng.integers(len(specials))]
        else:
            name = ["x", "y", "xi"][rng.integers(3)]
            value = getattr(trace.records[k], name).copy()
            value[rng.integers(value.size)] = specials[
                rng.integers(len(specials))]
        edits.setdefault(k, {})[name] = value
    trace = _edited(trace, edits)
    with np.errstate(all="ignore"):
        assert _exact(replay(trace, EX2)) == _exact(_scan(trace, EX2))


def test_zero_record_trace_has_no_applicable_records(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["run", "--problem", "ex2", "--start=5.0,5.0",
                     "--max-iter", "0", "--out", str(out)]) == 0
    path = out / "trace_000.jsonl"
    capsys.readouterr()
    assert cli.main(["check", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"{path}: 0 record(s)",
        *(f"  {name}: no applicable records" for name in TOLERANCE),
    ]
