"""The certificate catalogue: each inequality fails alone when only it is
broken, in the live loop and in ``dcboost check`` alike, and NaN fails."""

import dataclasses
import math

import pytest

from dcboost import cli, drivers, problems
from dcboost.certificates import CERTIFICATES, TOLERANCE, replay, slacks
from dcboost.convex import separable_coefficients
from dcboost.core import InvariantViolation, IterationRecord

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
