"""The certified inequalities, each written once.

Every inequality the solver certifies per iteration is named here, with its
slack as a function of a record, the problem and the configuration.
``run_inmbdca`` checks the slacks of each ``IterationRecord`` as it builds
it; ``dcboost check`` and the ``complexity`` gate replay them from a stored
trace, evaluating each formula once on the trace's records stacked into
columns.  With d = y - x, c = sigma/2 - theta and phi_bar the problem's
declared lower bound (-inf when none is declared), the slacks are

    eps_certificate     eps_k - eps_certified
    subgrad_membership  -(distance of xi from the subdifferential bounds of g at y)
    inexact_bound       theta ||y - x|| - ||w - xi||
    descent_y           phi(x) - c ||d||^2 + eps_k - phi(y)
    linesearch          phi(y) - rho lambda^2 ||d||^2 + nu_k - phi(x+)
    phi_lower_bound     min(phi(x), phi(y), phi(x+)) - phi_bar

and, over a whole trace, ``reconstruction``: -||x+ - (y + lambda d)||, where
x+ is the next record's x or the trace's final point.  An inequality fails
when ``not slack >= -tol``, so a NaN slack fails.  The descent of a whole
step, phi(x+) <= phi(x) - (c + rho lambda^2) ||d||^2 + nu_k + eps_k, is the
sum of descent_y and linesearch and is not checked on its own.
"""

from __future__ import annotations

import math
import operator
import types

import numpy as np

from .convex import l2_norm, membership_gap, subdiff_bounds
from .core import TRACE_CSV_COLUMNS, next_x

__all__ = ["CERTIFICATES", "TOLERANCE", "holds", "slacks", "replay", "square"]

# (name, tolerance), in the order slacks() returns them.  Membership
# balances closed-form exactness against interval-arithmetic rounding; the
# relative-error and eps tests compare values the solver computed the same
# way; the phi-based lines absorb rounding in objective differences.
CERTIFICATES = (
    ("eps_certificate", 1e-15),
    ("subgrad_membership", 1e-10),
    ("inexact_bound", 1e-12),
    ("descent_y", 1e-9),
    ("linesearch", 1e-9),
    ("phi_lower_bound", 1e-9),
)

TOLERANCE = dict(CERTIFICATES, reconstruction=1e-9)


def holds(name: str, slack: float) -> bool:
    """Whether a slack passes its inequality's tolerance; NaN never does."""
    return slack >= -TOLERANCE[name]


def _lowest(a, b, c):
    # min() keeps the first of equal values and drops NaN depending on
    # argument order, so a NaN among the three (or inf meeting -inf) is NaN
    return math.nan if math.isnan(a + b + c) else min(a, b, c)


_lowest_rows = np.frompyfunc(_lowest, 3, 1)


def square(v):
    """v**2 of a float, or of each float of an object column, as a stored
    value is squared wherever a trace is checked; a float's ** raises
    OverflowError past float range, where this gives inf."""
    try:
        return v**2
    except OverflowError:
        return _square_rows(v) if isinstance(v, np.ndarray) else math.inf


_square_rows = np.frompyfunc(square, 1, 1)


def slacks(record, problem, config, d_norm=None) -> dict:
    """Slack of every catalogue inequality by name.  ``record`` is one
    record, or a trace's records stacked by ``_columns``, for which each
    slack is an array with one value per record.  ``d_norm``, when given,
    is the record's ``d_norm`` as its caller already computed it."""
    r, g = record, problem.g
    if d_norm is None:
        d_norm = r.d_norm
    d_sq = square(d_norm)
    decrease = (problem.sigma / 2 - config.theta) * d_sq
    step = config.rho * square(r.lambda_k) * d_sq
    floor = problem.phi_lower_bound
    phi_x, phi_y, phi_next = r.phi_x, r.phi_y, r.phi_next
    lowest = (_lowest_rows if isinstance(phi_x, np.ndarray) else _lowest)(
        phi_x, phi_y, phi_next)
    return {
        "eps_certificate": r.eps_k - r.eps_certified,
        "subgrad_membership":
            -membership_gap(*subdiff_bounds(g.quad, g.lin, g.l1, r.y), r.xi),
        "inexact_bound": config.theta * d_norm - r.inexact_lhs,
        "descent_y": (phi_x - decrease + r.eps_k) - phi_y,
        "linesearch": (phi_y - step + r.nu_k) - phi_next,
        "phi_lower_bound": lowest - (-math.inf if floor is None else floor),
    }


# the scalar fields, then the norms each record derives from its arrays
_SCALARS = (*TRACE_CSV_COLUMNS, "d_norm", "inexact_lhs")
_ROW = operator.attrgetter(*_SCALARS)
_ARRAYS = ("x", "y", "xi")  # the array fields slacks and replay read


def _columns(records):
    """A nonempty list of records stacked, one row per record: each of
    ``_ARRAYS`` a 2-D float array, and each scalar field and derived norm an
    object array of the records' own values, so that every operator in
    ``slacks`` applies the float operation it applies to one record (a
    float's ``**2`` is libm's pow, which a float64 array's multiply differs
    from in the last bit now and then)."""
    table = np.array(list(map(_ROW, records)), dtype=object)
    cols = {name: table[:, j] for j, name in enumerate(_SCALARS)}
    for name in _ARRAYS:
        cols[name] = np.array([getattr(r, name) for r in records])
    return types.SimpleNamespace(**cols)


def replay(trace, problem) -> dict:
    """Worst slack and its iteration, ``{name: (slack, k)}``, over every
    record of a stored trace; a name with no record to check is absent.
    Each slack is evaluated once over all records; the worst is the first
    NaN, else the first minimum, as a scan record by record keeps it."""
    records = trace.records
    if not records:
        return {}
    # no warnings, as the float arithmetic of one record gives none
    with np.errstate(over="ignore", invalid="ignore"):
        r = _columns(records)
        found = slacks(r, problem, trace.config)
        ends = np.vstack((r.x[1:], trace.final_x))
        misses = ends - next_x(r.y, r.x, r.lambda_k.astype(float)[:, None])
        # l2_norm of a row with no nonzero entry is 0.0, so only the others
        # (a stored x that is not derived, NaN) take their own norm
        err = np.zeros(len(records))
        for i in np.flatnonzero(misses.any(axis=1)):
            err[i] = l2_norm(misses[i])
    found["reconstruction"] = -err
    table = np.array(list(found.values()), dtype=float)
    nan = np.isnan(table)
    first = np.where(nan.any(axis=1, keepdims=True), nan,
                     table == table.min(axis=1, keepdims=True))
    return {name: (float(table[j, i]), records[i].k)
            for j, (name, i) in enumerate(zip(found, first.argmax(axis=1)))}
