"""The certified inequalities, each written once.

Every inequality the solver certifies per iteration is named here, with its
slack as a function of a record, the problem and the configuration.
``slack_columns`` evaluates each formula once over a run's records stacked
into float64 columns: ``run_inmbdca`` checks the trace it has just built,
and ``dcboost check`` and the ``complexity`` gate replay a stored one; no
inequality is checked elsewhere.  With d = y - x, c = sigma/2 - theta and
phi_bar the problem's declared lower bound (-inf when none is declared),
the slacks are

    eps_certificate     eps_k - eps_certified
    subgrad_membership  -(distance of xi from the subdifferential bounds of g at y)
    inexact_bound       theta ||y - x|| - ||w - xi||
    g_linearization     g(x) - g(y) + <w, d> - c ||d||^2
    h_eps_subgradient   (g(y) - phi(y)) - (g(x) - phi(x)) - <w, d> + eps_k
    linesearch          phi(y) - rho lambda^2 ||d||^2 + nu_k - phi(x+)
    phi_lower_bound     min(phi(x), phi(y), phi(x+)) - phi_bar
    reconstruction      -||x+ - (y + lambda d)||

where x+ is the next record's x or the run's final point, g is the
oracle's and phi the recorded value.  The middle two are the halves of the
descent lemma: strong convexity of g and the relative test give the g
half, and w in the eps_k-subdifferential of h at x the h half, h read as
g - phi.  They sum to phi(x) - c ||d||^2 + eps_k - phi(y), the descent to
y, and a failure names the oracle at fault.  An inequality fails when
``not slack >= -tol``, so a NaN slack fails.  The descent of a whole step
is the sum of both halves and linesearch and is not checked on its own.
"""

from __future__ import annotations

import math
import types

import numpy as np

from .convex import membership_gap, row_norms, subdiff_bounds
from .core import next_x

__all__ = ["CERTIFICATES", "TOLERANCE", "holds", "slacks", "slack_columns",
           "replay", "replay_stacked"]

# (name, tolerance), in the order slacks() returns them.  Membership
# balances closed-form exactness against interval-arithmetic rounding; the
# relative-error and eps tests compare values the solver computed the same
# way; the phi-based lines absorb rounding in objective differences.
CERTIFICATES = (
    ("eps_certificate", 1e-15),
    ("subgrad_membership", 1e-10),
    ("inexact_bound", 1e-12),
    ("g_linearization", 1e-9),
    ("h_eps_subgradient", 1e-9),
    ("linesearch", 1e-9),
    ("phi_lower_bound", 1e-9),
)

TOLERANCE = dict(CERTIFICATES, reconstruction=1e-9)


def holds(name: str, slack):
    """Whether a slack, or each of an array of them, passes its inequality's
    tolerance; NaN never does."""
    return slack >= -TOLERANCE[name]


def slacks(record, problem, config) -> dict:
    """Slack of every catalogue inequality by name.  ``record`` is one
    record, or records stacked by ``_slack_table``, for which each slack is an
    array with one value per record; each value takes the same float
    operations either way.  g at x and y comes from one ``Sum.rows`` call:
    the h half reads h as g - phi."""
    r, g = record, problem.g
    g_x, g_y = g.rows(np.stack((r.x, r.y)))
    w_d = np.vecdot(r.w, r.y - r.x)
    d_sq = r.d_norm * r.d_norm
    decrease = (problem.sigma / 2 - config.theta) * d_sq
    step = config.rho * (r.lambda_k * r.lambda_k) * d_sq
    floor = problem.phi_lower_bound
    lowest = np.minimum(np.minimum(r.phi_x, r.phi_y), r.phi_next)
    return {
        "eps_certificate": r.eps_k - r.eps_certified,
        "subgrad_membership":
            -membership_gap(*subdiff_bounds(g.quad, g.lin, g.l1, r.y), r.xi),
        "inexact_bound": config.theta * r.d_norm - r.inexact_lhs,
        "g_linearization": (g_x - g_y + w_d) - decrease,
        "h_eps_subgradient": (g_y - r.phi_y) - (g_x - r.phi_x) - w_d + r.eps_k,
        "linesearch": (r.phi_y - step + r.nu_k) - r.phi_next,
        "phi_lower_bound": lowest - (-math.inf if floor is None else floor),
    }


def _slack_table(runs, problem, config):
    """``slack_columns`` of runs, (nonempty Records, final point) pairs, and
    the runs' columns joined, with ``d_norm`` and ``inexact_lhs`` added.  A
    lone run's columns are taken as they are, never written to."""
    r = types.SimpleNamespace(**runs[0][0].columns if len(runs) == 1 else {
        name: np.concatenate([records.columns[name] for records, _ in runs])
        for name in runs[0][0].columns})
    x_next = np.empty_like(r.x)
    x_next[:-1] = r.x[1:]
    x_next[np.cumsum([len(run) for run, _ in runs]) - 1] = [
        final_x for _, final_x in runs]
    with np.errstate(over="ignore", invalid="ignore"):
        r.d_norm = row_norms(r.y - r.x)
        r.inexact_lhs = row_norms(r.w - r.xi)
        found = slacks(r, problem, config)
        misses = x_next - next_x(r.y, r.x, r.lambda_k[:, None])
        found["reconstruction"] = -row_norms(misses)
    return found, r


def slack_columns(records, problem, config, final_x) -> dict:
    """Every slack of a run, ``reconstruction`` included, in ``TOLERANCE``
    order: a float64 array with one value per record of nonempty Records,
    whose last record moves to ``final_x``.  Overflow and invalid operations
    give inf and NaN slacks, unwarned."""
    return _slack_table([(records, final_x)], problem, config)[0]


def replay_stacked(traces, problem) -> list:
    """``replay`` of each of several traces of one problem and config, from
    one ``slack_columns`` pass over all their records."""
    full = [trace for trace in traces if trace.records]
    if not full:
        return [{} for _ in traces]
    found, joined = _slack_table([(t.records, t.final_x) for t in full],
                                 problem, full[0].config)
    table = np.array(list(found.values()))
    lengths = [len(t.records) for t in full]
    starts = np.cumsum([0] + lengths[:-1])
    # np.minimum keeps a NaN, so a trace's lowest slack is NaN if it has one
    # and then no slack equals it: its NaNs are the candidates
    lowest = np.minimum.reduceat(table, starts, axis=1)
    worst = (table == np.repeat(lowest, lengths, axis=1)) | np.isnan(table)
    rows = np.where(worst, np.arange(table.shape[1]), table.shape[1])
    first = np.minimum.reduceat(rows, starts, axis=1)
    values = np.take_along_axis(table, first, axis=1).T.tolist()
    each = iter(dict(zip(found, zip(vs, k)))
                for vs, k in zip(values, joined.k[first].T.tolist()))
    return [next(each) if t.records else {} for t in traces]


def replay(trace, problem) -> dict:
    """Worst slack and its iteration, ``{name: (slack, k)}``, over every
    record of a stored trace; a name with no record to check is absent.
    The worst is the first NaN, else the first minimum, as a scan record by
    record keeps it."""
    return replay_stacked([trace], problem)[0]
