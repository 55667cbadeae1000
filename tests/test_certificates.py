"""The certificate catalogue: each inequality fails alone when only it is
broken, in the run's own check and in ``dcboost check`` alike, and NaN
fails.  A record edit breaks each line but ``g_linearization``, which an
inconsistent g oracle breaks."""

import dataclasses
import json
import math

import numpy as np
import pytest

from dcboost import certificates, cli, drivers, problems
from dcboost.certificates import (CERTIFICATES, TOLERANCE, holds, replay,
                                  slack_columns, slacks)
from dcboost.convex import Sum, l2_norm
from dcboost.core import InvariantViolation, Trace, next_x, record_columns

from conftest import edited

EX2 = problems.resolve("ex2")
REF = problems.experiment_config()
START = [5.0, 5.0]
K_BAD = 0


CORRUPTIONS = {
    "eps_certificate": lambda r, p, c: {"eps_certified": r.eps_k + 1.0},
    # w moves with xi, across d, so ||w - xi|| and <w, d> stay what the
    # solver accepted
    "subgrad_membership": lambda r, p, c: {"xi": r.xi + _across(r),
                                           "w": r.w + _across(r)},
    "inexact_bound": lambda r, p, c: {"w": r.xi + (c.theta * r.d_norm + 1.0)},
    # for a consistent g oracle the g half follows from subgrad_membership
    # and inexact_bound, so no record edit fails it alone: the record stays,
    # and _break_oracle makes g at record K_BAD's y read 10 higher
    "g_linearization": lambda r, p, c: {},
    "h_eps_subgradient": lambda r, p, c: {"phi_y": r.phi_x + 1.0},
    "linesearch": lambda r, p, c: {"phi_y": r.phi_next - 1.0},
    "phi_lower_bound": lambda r, p, c: {"phi_next": p.phi_lower_bound - 1.0},
}


def _across(r):
    """10 times a unit vector orthogonal to the 2-D direction y - x."""
    d = r.y - r.x
    return 10.0 * np.array([-d[1], d[0]]) / r.d_norm


def _break_oracle(name, monkeypatch):
    """For ``g_linearization``, make the g values the checker reads hold
    g(y) + 10 at record K_BAD, for one record and in the columns alike: 10
    is above that record's g half slack (8.1), so the g half fails, and the
    h half, which reads g(y) - phi(y), gains 10."""
    if name != "g_linearization":
        return
    rows = Sum.rows

    def inconsistent(f, Z):
        g = rows(f, Z)  # g at the x rows, then at the y rows
        g.reshape(2, -1)[1, K_BAD] += 10.0
        return g

    monkeypatch.setattr(Sum, "rows", inconsistent)


def test_catalogue_names_match_the_slacks():
    trace = drivers.run_inmbdca(EX2, REF, START, seed=0)
    names = [name for name, _ in CERTIFICATES]
    assert list(slacks(trace.records[0], EX2, REF)) == names
    assert list(CORRUPTIONS) == names
    assert list(TOLERANCE) == names + ["reconstruction"]
    assert list(slack_columns(trace.records, EX2, REF, trace.final_x)) == list(
        TOLERANCE)


@pytest.mark.parametrize("name", list(CORRUPTIONS))
def test_corrupted_record_is_flagged_under_its_name_live_and_replayed(
        name, tmp_path, monkeypatch, capsys):
    corrupt = CORRUPTIONS[name]

    trace = drivers.run_inmbdca(EX2, REF, START, seed=0)
    trace = edited(trace, {K_BAD: corrupt(trace.records[K_BAD], EX2, REF)})
    _break_oracle(name, monkeypatch)
    slack = slacks(trace.records[K_BAD], EX2, REF)
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

    _corrupting(monkeypatch, {K_BAD: lambda r: corrupt(r, EX2, REF)})
    message = f"^{name.replace('_', ' ')} failed at iteration {K_BAD}:"
    with pytest.raises(InvariantViolation, match=message):
        drivers.run_inmbdca(EX2, REF, START, seed=0)


def _corrupting(monkeypatch, edits):
    """Make the run build each record ``k`` of ``edits`` with its fields
    replaced by ``edits[k](record)``."""
    def build(rows, dim):
        records = list(record_columns(rows, dim))
        for k, edit in edits.items():
            records[k] = dataclasses.replace(records[k], **edit(records[k]))
        return record_columns(records, dim)

    monkeypatch.setattr(drivers, "record_columns", build)


@pytest.mark.parametrize("name", list(CORRUPTIONS))
def test_live_violation_reports_the_replayed_worst_slack(name, monkeypatch):
    corrupt = CORRUPTIONS[name]
    _corrupting(monkeypatch, {K_BAD: lambda r: corrupt(r, EX2, REF)})
    _break_oracle(name, monkeypatch)
    with pytest.raises(InvariantViolation) as raised:
        drivers.run_inmbdca(EX2, REF, START, seed=0)
    with pytest.warns(RuntimeWarning):
        trace = drivers.run_inmbdca(EX2, REF, START, seed=0, strict=False)
    value, k = replay(trace, EX2)[name]
    assert str(raised.value) == (f"{name.replace('_', ' ')} failed at "
                                 f"iteration {k}: slack={value!r}")


def test_violations_are_flagged_record_by_record(monkeypatch):
    # record 2's failure comes after both of record 0's, which come in
    # catalogue order; strict mode raises the first of them
    _corrupting(monkeypatch, {
        0: lambda r: {"phi_next": EX2.phi_lower_bound - 1.0,
                      "eps_certified": r.eps_k + 1.0},
        2: lambda r: {"phi_y": r.phi_x + 1.0},
    })
    with pytest.raises(InvariantViolation, match="^eps certificate failed "
                                                 "at iteration 0:"):
        drivers.run_inmbdca(EX2, REF, START, seed=0)
    with pytest.warns(RuntimeWarning) as warned:
        drivers.run_inmbdca(EX2, REF, START, seed=0, strict=False)
    assert [str(w.message).split(":")[0] for w in warned] == [
        "eps certificate failed at iteration 0",
        "phi lower bound failed at iteration 0",
        "h eps subgradient failed at iteration 2",
    ]


def test_nan_slack_stays_the_worst():
    trace = drivers.run_inmbdca(EX2, REF, START, seed=0)
    trace = edited(trace, {0: {"phi_y": math.nan}})
    worst = replay(trace, EX2)
    for name in ("h_eps_subgradient", "linesearch", "phi_lower_bound"):
        value, k = worst[name]
        assert math.isnan(value) and k == 0


def _scan(trace, problem):
    """The worst slacks as a scan record by record keeps them: the first
    value, replaced only by a smaller one or a NaN, and never once NaN."""
    worst = {}
    found = slack_columns(trace.records, problem, trace.config,
                          trace.final_x)
    for i, r in enumerate(trace.records):
        for name, column in found.items():
            slack, old = float(column[i]), worst.get(name)
            if old is None or not (slack >= old[0] or math.isnan(old[0])):
                worst[name] = (slack, r.k)
    return worst


def _exact(worst):
    # repr tells -0.0 from 0.0 and NaN from every number
    return {name: (repr(value), k) for name, (value, k) in worst.items()}


@pytest.mark.parametrize("problem, solver", [
    ("ex1", "inmbdca"), ("ex2", "inmbdca"), ("ex2", "nmbdca"), ("ex2", "dca"),
    ("random-sep(dim=3,seed=5)", "inmbdca"),
], ids=lambda v: f"run_{v}" if v in drivers.SOLVERS else None)
def test_replay_matches_the_record_scan_on_solver_traces(problem, solver):
    p = problems.resolve(problem)
    trace = drivers.run_inmbdca(p, drivers.solver_config(solver, REF),
                                [5.0] + [-3.0] * (p.dim - 1))
    assert len(trace.records) > 3
    assert _exact(replay(trace, p)) == _exact(_scan(trace, p))


def test_first_nan_after_a_worse_finite_slack_stays_the_worst():
    trace = drivers.run_inmbdca(EX2, REF, START, seed=0)
    r1, r3 = trace.records[1], trace.records[3]
    trace = edited(trace, {
        1: {"phi_y": r1.phi_x + 5.0},  # h_eps_subgradient -5: finite, worse
        3: {"phi_y": math.nan},
        5: {"phi_y": math.nan},  # a second NaN does not move it
        2: {"eps_certified": math.nan},
        4: {"eps_certified": r3.eps_k + 7.0},  # finite, after the NaN
    })
    worst = replay(trace, EX2)
    assert _exact(worst) == _exact(_scan(trace, EX2))
    for name in ("h_eps_subgradient", "linesearch", "phi_lower_bound"):
        value, k = worst[name]
        assert math.isnan(value) and k == 3
    value, k = worst["eps_certificate"]
    assert math.isnan(value) and k == 2


def test_inf_meeting_minus_inf_in_phi_fails_the_lower_bound():
    # the lowest of inf, phi_y and -inf is -inf, so the line fails at -inf
    trace = drivers.run_inmbdca(EX2, REF, START, seed=0)
    trace = edited(trace, {2: {"phi_x": math.inf, "phi_next": -math.inf}})
    worst = replay(trace, EX2)
    assert _exact(worst) == _exact(_scan(trace, EX2))
    value, k = worst["phi_lower_bound"]
    assert value == -math.inf and k == 2
    assert not holds("phi_lower_bound", value)


def test_a_square_beyond_float_range_is_inf_live_and_replayed(tmp_path):
    # 1e200 * 1e200 reads inf, for one record and in the columns alike, and
    # 1e150 * 1e150 = 1e300 stays as it is.  A derived ||y - x|| is at most
    # sqrt of the largest float, so only lambda_k squares past float range,
    # and a stored d_norm is stale
    trace = drivers.run_inmbdca(EX2, REF, START, seed=0)
    path, stale = tmp_path / "trace.jsonl", tmp_path / "stale.jsonl"
    trace.write_jsonl(path)
    lines = path.read_text().splitlines()
    record = json.loads(lines[2])
    record["d_norm"] = 1e200
    lines[2] = json.dumps(record)
    stale.write_text("\n".join(lines) + "\n")
    assert (_exact(replay(Trace.read_jsonl(stale), EX2))
            == _exact(replay(Trace.read_jsonl(path), EX2)))

    r3 = trace.records[3]
    trace = edited(trace, {2: {"lambda_k": 1e200},
                           3: {"y": r3.x + np.array([1e150, 0.0])},
                           4: {"lambda_k": -1e150}})
    assert trace.records[3].d_norm == 1e150
    assert slacks(trace.records[2], EX2, REF)["linesearch"] == -math.inf
    found = slack_columns(trace.records, EX2, REF, trace.final_x)
    assert found["linesearch"][2] == -math.inf
    assert _exact(replay(trace, EX2)) == _exact(_scan(trace, EX2))


@pytest.mark.parametrize("name", ["ex1", "ex2", "random-sep(dim=3,seed=5)",
                                  "random-sep(dim=1000,seed=1)"])
def test_one_record_gives_the_bits_of_its_column(name):
    # g at x and y comes from value_rows over the stacked (x, y) pair or
    # the stacked columns, each value bit for bit g.value at its point
    p = problems.resolve(name)
    trace = drivers.run_inmbdca(p, REF, np.linspace(-5.0, 5.0, p.dim))
    found = slack_columns(trace.records, p, REF, trace.final_x)
    for i, r in enumerate(trace.records):
        one = slacks(r, p, REF)
        assert {n: repr(float(v)) for n, v in one.items()} == {
            n: repr(float(found[n][i])) for n in one}
        d = r.y - r.x
        lin = p.g.value(r.x) - p.g.value(r.y) + float(r.w @ d)
        assert one["g_linearization"] == lin - (
            (p.sigma / 2 - REF.theta) * (r.d_norm * r.d_norm))


@pytest.mark.parametrize("dim", [3, 50, 1000])
def test_reconstruction_takes_each_row_norm_as_l2_norm(dim):
    # x stored off its derivation in most records, so every row's norm is
    # nonzero and its summation order shows in the last bits
    p = problems.resolve(f"random-sep(dim={dim},seed=1)")
    trace = drivers.run_inmbdca(p, REF, np.linspace(-5.0, 5.0, dim), seed=0)
    rng = np.random.default_rng(dim)
    trace = edited(trace, {
        k: {"x": r.x * (1.0 + rng.uniform(-1e-9, 1e-9, dim))}
        for k, r in enumerate(trace.records) if k % 4
    })
    assert _exact(replay(trace, p)) == _exact(_scan(trace, p))
    ends = [r.x for r in trace.records[1:]] + [trace.final_x]
    want = [-l2_norm(end - next_x(r.y, r.x, r.lambda_k))
            for r, end in zip(trace.records, ends)]
    got = slack_columns(trace.records, p, REF, trace.final_x)
    assert list(map(repr, got["reconstruction"].tolist())) == list(
        map(repr, want))


def test_ties_go_to_the_first_record_signed_zeros_included(capsys,
                                                           tmp_path):
    trace = drivers.run_inmbdca(EX2, REF, START, seed=0)
    rs = trace.records
    # records 1 and 4 hold the same pair, whose ||w - xi|| exceeds the bound
    pair = {"x": rs[1].x, "y": rs[1].y, "xi": rs[1].xi, "w": rs[1].xi + 2.0}
    trace = edited(trace, {
        1: pair,
        4: pair,
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
               "nu_k", "lambda_k"]
    edits = {}
    for _ in range(8):
        k = int(rng.integers(len(trace.records)))
        if rng.random() < 0.8:
            name = scalars[rng.integers(len(scalars))]
            value = specials[rng.integers(len(specials))]
        else:
            name = ["x", "w", "y", "xi"][rng.integers(4)]
            value = getattr(trace.records[k], name).copy()
            value[rng.integers(value.size)] = specials[
                rng.integers(len(specials))]
        edits.setdefault(k, {})[name] = value
    trace = edited(trace, edits)
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


def _mixed_traces():
    """(problem, trace) pairs in interleaved order: ex1, ex2 and a dim-3
    problem under two configs, with zero-record traces, a NaN slack, a
    0.0/-0.0 tie each way and a k beyond float64's integers among them."""
    ex1, dim3 = problems.resolve("ex1"), problems.resolve(
        "random-sep(dim=3,seed=1)")
    other = dataclasses.replace(REF, rho=0.3, theta=0.1)

    def run(p, config, start):
        return p, drivers.run_inmbdca(p, config, start, seed=0)

    ex2a, ex2b, ex2c = (run(EX2, REF, s) for s in ([5.0, 5.0], [-4.0, 2.0],
                                                    [1.0, -3.0]))
    ex1a = run(ex1, REF, [2.0, 3.0])
    r = ex2a[1].records[2]
    return [
        ex2a,
        (EX2, edited(ex2b[1], {3: {"phi_y": math.nan}})),
        (EX2, dataclasses.replace(ex2b[1], records=[])),
        # k is taken from the record: a float64 column reads 2**53
        (EX2, edited(ex2a[1], {2: {"k": 2**53 + 1,
                                   "eps_certified": r.eps_k + 1.0}})),
        ex1a,
        # eps_k - eps_certified is 0.0 on every record but a -0.0 one
        (ex1, edited(ex1a[1], {1: {"eps_k": -0.0}})),
        run(ex1, other, [2.0, 3.0]),
        run(dim3, REF, [1.0, 2.0, 3.0]),
        run(dim3, other, [1.0, 2.0, 3.0]),
        run(dim3, other, [-1.0, 0.5, 2.0]),
        (EX2, edited(ex2c[1], {0: {"eps_k": -0.0}})),
        ex2c,
        run(EX2, other, [5.0, 5.0]),
        (ex1, dataclasses.replace(ex1a[1], records=[])),
    ]


def test_batched_replay_is_each_trace_replayed_alone_bit_for_bit():
    mixed = _mixed_traces()
    batches = [[mixed[0]]]
    for p, t in mixed[1:]:
        head_p, head_t = batches[-1][0]
        if (p.name, t.config) == (head_p.name, head_t.config):
            batches[-1].append((p, t))
        else:
            batches.append([(p, t)])
    assert list(map(len, batches)) == [4, 2, 1, 1, 2, 2, 1, 1]
    got = []
    for batch in batches:
        got += certificates.replay_stacked([t for _, t in batch], batch[0][0])
    assert len(got) == len(mixed)
    for (p, t), worst in zip(mixed, got):
        scan = _scan(t, p) if t.records else {}
        assert _exact(worst) == _exact(replay(t, p)) == _exact(scan)
    value, k = got[1]["linesearch"]
    assert math.isnan(value) and k == 3
    assert got[2] == got[13] == {}
    assert got[3]["eps_certificate"] == (-1.0, 2**53 + 1)
    assert _exact({n: got[i]["eps_certificate"] for n, i in (
        ("tie", 5), ("first", 10))}) == {"tie": ("0.0", 0),
                                         "first": ("-0.0", 0)}
