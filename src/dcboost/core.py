"""Shared domain types: DC problems, solver configuration, and run traces.

Everything here is an immutable value object after construction, so problems,
configurations, and finished traces can be shared freely across threads.

The dataclass fields are the one schema of the flat config and of the trace
records: their (de)serialization and the CLI flags are derived from the
annotations at import, which is why this module keeps them as live objects
rather than postponing their evaluation.
"""

import base64
import binascii
import json
import math
import operator
import os
import sys
from collections.abc import Sequence
from dataclasses import MISSING, dataclass, fields, is_dataclass
from enum import Enum
from itertools import chain
from typing import Optional, Union

import numpy as np

from .convex import Sum, as_point, l2_norm

__all__ = [
    "InvariantViolation",
    "UnsupportedProblemError",
    "InexactMode",
    "Termination",
    "EpsSchedule",
    "DirectNu",
    "ZhangHagerNu",
    "GrippoNu",
    "RatioNu",
    "ZeroNu",
    "NuStrategy",
    "SolverConfig",
    "DcProblem",
    "IterationRecord",
    "Trace",
    "Records",
    "record_columns",
    "next_x",
    "validate",
    "config_to_flat",
    "config_from_flat",
    "flat_value",
    "CONFIG_KEYS",
    "RECORD_SCALARS",
    "RECORD_ARRAYS",
]


class InvariantViolation(RuntimeError):
    """A proved inequality failed beyond numerical slack.

    The inequalities checked throughout the solvers are theorems under the
    standing assumptions, so a violation signals a bug, a broken oracle, or a
    misconfigured tolerance rather than an unlucky input.
    """


class UnsupportedProblemError(ValueError):
    """Problem structure outside what the solvers support."""


class InexactMode(Enum):
    """How the per-iteration convex subproblem is solved."""

    INNER_SOLVER = "inner_solver"
    PERTURBED_EXACT = "perturbed_exact"
    EXACT = "exact"


class Termination(Enum):
    STEP_TOL = "step_tol"
    D_ZERO = "d_zero"
    MAX_ITER = "max_iter"
    NON_FINITE = "non_finite"


@dataclass(frozen=True)
class EpsSchedule:
    """Per-iteration budget for the approximate subgradient of h.

    Kinds: ``zero`` (always 0), ``geometric`` (eps0 * q^k, 0 < q < 1) and
    ``harmonic2`` (eps0 / (k+1)^2).  The nonzero kinds are summable, which is
    what the convergence guarantees ask of the schedule.
    """

    kind: str = "zero"
    eps0: float = 0.0
    q: float = 0.5

    KINDS = ("zero", "geometric", "harmonic2")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown eps schedule kind {self.kind!r}")
        if not 0.0 <= self.eps0 < math.inf:
            raise ValueError("eps0 must be finite and nonnegative")
        if not 0.0 < self.q < 1.0:
            raise ValueError("q must lie in (0,1)")

    def at(self, k: int) -> float:
        if self.kind == "zero":
            return 0.0
        if self.kind == "geometric":
            return self.eps0 * self.q**k
        return self.eps0 / (k + 1) ** 2

    @classmethod
    def zero(cls) -> "EpsSchedule":
        return cls("zero")

    @classmethod
    def geometric(cls, eps0: float, q: float = 0.5) -> "EpsSchedule":
        return cls("geometric", eps0, q)

    @classmethod
    def harmonic2(cls, eps0: float) -> "EpsSchedule":
        return cls("harmonic2", eps0)


# --- nonmonotonicity allowance strategies
#
# Each strategy owns its recurrence: ``allowance(memory, k, phi_x, eps_prev,
# d_sq)`` gives nu_k at step k from phi(x^k), the previous step's eps and
# ||d^k||^2, and the memory it returned at step k - 1 (None at k = 0).  It
# returns (nu_k, memory).  The solver loop calls it once per step with d != 0,
# that is on every step but a final d = 0 one.


@dataclass(frozen=True)
class DirectNu:
    """Direct rule: nu_0 = nu0, then the allowance is the share (1 - delta)
    of the admissible budget phi(x^{k-1}) - phi(x^k) + nu_{k-1} + eps_{k-1}.
    A positive delta makes the allowances summable."""

    delta: float = 0.0
    nu0: float = 0.0

    kind = "direct"

    def __post_init__(self):
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError("delta must lie in [0, 1]")
        if not 0.0 <= self.nu0 < math.inf:
            raise ValueError("nu0 must be finite and nonnegative")

    def allowance(self, memory, k, phi_x, eps_prev, d_sq):
        if memory is None:
            return float(self.nu0), (phi_x, float(self.nu0))
        phi_prev, nu_prev = memory
        # the step's descent inequality (the sum of the catalogue's descent
        # lines) makes the budget nonnegative up to rounding
        budget = max(phi_prev - phi_x + nu_prev + eps_prev, 0.0)
        nu = (1.0 - self.delta) * budget
        return nu, (phi_x, nu)


@dataclass(frozen=True)
class ZhangHagerNu:
    """Zhang-Hager cost-update rule: C is a running average of past values
    with memory eta, Q_k = eta Q_{k-1} + 1, and the allowance is
    C_k - phi(x^k); C_0 = phi(x^0) + c0_offset and Q_0 = 1."""

    eta: float = 0.85
    c0_offset: float = 1.0

    kind = "zhang_hager"

    def __post_init__(self):
        if not 0.0 <= self.eta < 1.0:
            raise ValueError("eta must lie in [0, 1)")
        if not 0.0 < self.c0_offset < math.inf:
            raise ValueError("c0_offset must be finite and positive")

    def allowance(self, memory, k, phi_x, eps_prev, d_sq):
        if memory is None:
            return float(self.c0_offset), (1.0, phi_x + self.c0_offset)
        q, c = memory
        q_next = self.eta * q + 1.0
        c_next = (self.eta * q * c + phi_x) / q_next
        return max(0.0, c_next - phi_x), (q_next, c_next)


@dataclass(frozen=True)
class GrippoNu:
    """Max-window rule: allowance is the gap between the running maximum of
    the last m+1 objective values and the current value."""

    m: int

    kind = "grippo"

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("window depth m must be a positive integer")

    def allowance(self, memory, k, phi_x, eps_prev, d_sq):
        if memory is None:
            return 0.0, (phi_x,)
        window = (memory + (phi_x,))[-(self.m + 1):]
        return max(window) - phi_x, window


@dataclass(frozen=True)
class RatioNu:
    """Step-ratio schedule: nu_k = omega * ||d^k||^2 / (k + 1)."""

    omega: float

    kind = "ratio"

    def __post_init__(self):
        if not 0.0 < self.omega < math.inf:
            raise ValueError("omega must be finite and positive")

    def allowance(self, memory, k, phi_x, eps_prev, d_sq):
        return self.omega * d_sq / (k + 1), None


@dataclass(frozen=True)
class ZeroNu:
    """Monotone search: no allowance at all."""

    kind = "zero"

    def allowance(self, memory, k, phi_x, eps_prev, d_sq):
        return 0.0, None


NuStrategy = Union[DirectNu, ZhangHagerNu, GrippoNu, RatioNu, ZeroNu]


@dataclass(frozen=True)
class SolverConfig:
    rho: float = 1.0
    beta: float = 0.5
    theta: float = 0.0
    lambda_bar: float = 1.0
    eps: EpsSchedule = EpsSchedule.zero()
    nu: NuStrategy = ZeroNu()
    stop_step_tol: float = 1e-6
    d_zero_tol: float = 1e-12
    max_iter: int = 1000
    max_backtracks: int = 60
    inexact_mode: InexactMode = InexactMode.EXACT


@dataclass(frozen=True, eq=False)
class DcProblem:
    """Unconstrained minimization of phi = g - h, both components strongly
    convex with the shared modulus sigma."""

    name: str
    g: Sum
    h: Sum
    dim: int
    sigma: float
    phi_lower_bound: Optional[float] = None
    known_critical_points: Optional[tuple] = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if not self.g.lin.shape[0] == self.h.lin.shape[0] == self.dim:
            raise ValueError(
                f"dimension mismatch: g has {self.g.lin.shape[0]} and h "
                f"{self.h.lin.shape[0]} coefficients, problem dimension is "
                f"{self.dim}")
        for f, label in ((self.g, "g"), (self.h, "h")):
            if self.sigma > f.modulus() + 1e-12:
                raise ValueError(
                    f"sigma={self.sigma} exceeds modulus({label})={f.modulus()}"
                )
        if self.known_critical_points is not None:
            pts = tuple(as_point(p, self.dim) for p in self.known_critical_points)
            object.__setattr__(self, "known_critical_points", pts)

    @classmethod
    def from_components(
        cls,
        name: str,
        g: Sum,
        h: Sum,
        dim: int,
        phi_lower_bound: Optional[float] = None,
        known_critical_points: Optional[tuple] = None,
    ) -> "DcProblem":
        """Build with sigma = min of the two moduli, the largest shared value."""
        sigma = min(g.modulus(), h.modulus())
        return cls(name, g, h, dim, sigma, phi_lower_bound, known_critical_points)

    def phi(self, x) -> float:
        x = as_point(x, self.dim)
        return self.g.value(x) - self.h.value(x)


def validate(problem: DcProblem, config: SolverConfig) -> list:
    """Parameter-range check of a configuration against a problem.

    Returns a list of human-readable violations (empty when valid); pure.
    Every range is written so that NaN and infinities fall outside it.
    """
    v = []
    if not 0.0 < config.beta < 1.0:
        v.append(f"beta ∉ (0,1) (beta={config.beta})")
    if not 0.0 < config.rho < math.inf:
        v.append(f"rho ∉ (0,inf) (rho={config.rho})")
    if not config.theta >= 0:
        v.append(f"theta ∉ [0,sigma/2) (theta={config.theta})")
    elif not config.theta < problem.sigma / 2:
        v.append(
            f"theta ≥ sigma/2 (theta={config.theta}, sigma={problem.sigma})"
        )
    elif config.theta == 0 and config.inexact_mode is not InexactMode.EXACT:
        # at theta 0 every mode returns the exact solution
        v.append(f"inexact_mode {config.inexact_mode.value} needs theta > 0 "
                 f"(theta={config.theta})")
    if not 0.0 < config.stop_step_tol < math.inf:
        v.append("stop_step_tol ∉ (0,inf) "
                 f"(stop_step_tol={config.stop_step_tol})")
    if not 0.0 < config.d_zero_tol < math.inf:
        v.append(f"d_zero_tol ∉ (0,inf) (d_zero_tol={config.d_zero_tol})")
    if not 0.0 <= config.lambda_bar < math.inf:
        v.append(f"lambda_bar ∉ [0,inf) (lambda_bar={config.lambda_bar})")
    if config.max_iter < 0:
        v.append(f"max_iter < 0 (max_iter={config.max_iter})")
    if config.max_backtracks < 0:
        v.append(f"max_backtracks < 0 (max_backtracks={config.max_backtracks})")
    return v


@dataclass(frozen=True, eq=False)
class IterationRecord:
    """Complete state of one iteration, enough to recheck every certified
    inequality after the fact.  A record stores what the solver chose; the
    norms the certificates compare are derived from its arrays, so no stored
    copy of them can disagree with the pair they measure.  Nor is the
    linesearch's step floor stored: ``linesearch`` derives it from a
    record."""

    k: int
    x: np.ndarray
    phi_x: float
    eps_k: float
    eps_certified: float
    w: np.ndarray
    y: np.ndarray
    xi: np.ndarray
    nu_k: float
    lambda_k: float
    n_backtracks: int
    phi_y: float
    phi_next: float

    @property
    def d_norm(self) -> float:
        """||y - x||, the norm of the direction d."""
        return l2_norm(self.y - self.x)

    @property
    def inexact_lhs(self) -> float:
        """||w - xi||, the side of the relative inexactness test that the
        subproblem keeps below theta ||y - x||."""
        return l2_norm(self.w - self.xi)


# --- trace arrays: base64 of little-endian float64 bytes, bit-exact.  A
# record may leave out x and xi, which read_jsonl fills back in bit for bit;
# the header's "arrays": DERIVED_ARRAYS names this, the one trace format.

DERIVED_ARRAYS = "base64-f8le-derived"
_F8LE = np.dtype("<f8")
# what base64.b64decode(validate=True) calls after its ASCII conversion
_a2b_base64 = (binascii.a2b_base64 if sys.version_info >= (3, 11) else
               lambda s, strict_mode: base64.b64decode(s, validate=strict_mode))


def next_x(y, x, lambda_k) -> np.ndarray:
    """The point ``run_inmbdca`` moves to from a record's ``x``, ``y`` and
    ``lambda_k``: y + lambda_k (y - x), by the same float operations, so it
    equals the next record's x (or the final point) bit for bit."""
    return y + lambda_k * (y - x)


def _encode_array(a, name: str) -> str:
    """``a`` as base64 of its "<f8" bytes; a non-finite value raises
    ValueError, as ``allow_nan=False`` does for a number."""
    a = np.asarray(a, _F8LE)
    if not np.isfinite(a).all():
        raise ValueError(f"field {name!r}: non-finite value")
    return base64.b64encode(a.tobytes()).decode("ascii")


def _decode_array(value):
    """A trace array: base64 of its "<f8" bytes."""
    if not isinstance(value, str):
        raise ValueError(f"expected a base64 string, got {value!r:.40}")
    try:
        raw = _a2b_base64(value, strict_mode=True)
    except binascii.Error as exc:
        raise ValueError(f"invalid base64 ({exc})") from None
    if len(raw) % 8:
        raise ValueError(f"{len(raw)} bytes is not a whole number of "
                         "float64 values")
    return np.frombuffer(raw, _F8LE)  # dtype by keyword costs 2x here


def _exactly(tp):
    """Reader of a JSON value that must have type ``tp`` (bool is no int);
    an int must lie in float range, and in the range of its int64 column."""
    def read(value):
        if type(value) is not tp:
            raise ValueError(f"expected {tp.__name__}, got {value!r:.40}")
        if tp is int:
            _float(value)
            if not -2**63 <= value < 2**63:
                raise ValueError(f"{value:.6g} is beyond the int64 range")
        return value
    return read


_int, _str, _dict = _exactly(int), _exactly(str), _exactly(dict)


def _float(value):
    if type(value) not in (int, float):
        raise ValueError(f"expected a number, got {value!r:.40}")
    try:
        value = float(value)
    except OverflowError as exc:  # an int beyond float range
        raise ValueError(str(exc)) from None
    if not math.isfinite(value):  # a literal beyond float range reads as inf
        raise ValueError(f"{value!r} is not a finite number")
    return value


def _field(d: dict, name: str, read, dim=None):
    """``d[name]`` read by ``read``; a ValueError names the field.  An array
    must hold ``dim`` values unless ``dim`` is None."""
    if name not in d:
        raise ValueError(f"field {name!r} is missing")
    try:
        value = read(d[name])
        if dim is not None and read is _decode_array and value.size != dim:
            raise ValueError(f"{value.size} values, the trace dimension "
                             f"is {dim}")
        return value
    except ValueError as exc:
        raise ValueError(f"field {name!r}: {exc}") from None


# field name -> reader of its JSON value, in field order; RECORD_SCALARS and
# RECORD_ARRAYS name the scalar and the array fields, each in field order
_RECORD_READERS = {
    f.name: {np.ndarray: _decode_array, int: _int, float: _float}[f.type]
    for f in fields(IterationRecord)
}
RECORD_SCALARS = [name for name, read in _RECORD_READERS.items()
                  if read is not _decode_array]
RECORD_ARRAYS = [name for name, read in _RECORD_READERS.items()
                 if read is _decode_array]
_SCALARS_OF = operator.itemgetter(*RECORD_SCALARS)
_JSON = json.JSONEncoder(allow_nan=False)


def _no_constant(name):
    raise ValueError(f"{name} is not a finite JSON number")


# strict JSON: the writer never emits NaN, Infinity or -Infinity
_JSON_DECODER = json.JSONDecoder(parse_constant=_no_constant)


# --- records: a column per field; a record is a view of one row

_DTYPES = {f.name: np.int64 if f.type is int else np.float64
           for f in fields(IterationRecord)}
_AS_ROW = operator.attrgetter(*_DTYPES)
_INTS = [i for i, name in enumerate(RECORD_SCALARS)
         if _DTYPES[name] is np.int64]


class Records(Sequence):
    """A trace's records as columns of the _DTYPES dtypes, a 1-D array per
    scalar field and a (K, dim) array per array field.  ``records[i]`` is
    row i's IterationRecord view, built once; its xi is its w when their
    bytes are equal, as a reader fills a left-out xi."""

    __slots__ = ("columns", "_views")

    def __init__(self, columns: dict):
        self.columns, self._views = columns, {}

    def __len__(self) -> int:
        return len(self.columns["k"])

    def __eq__(self, other):
        return list(self) == other

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        i = range(len(self))[i]
        if i not in self._views:
            values = {name: column[i] if column.ndim > 1 else column.item(i)
                      for name, column in self.columns.items()}
            if values["xi"].tobytes() == values["w"].tobytes():
                values["xi"] = values["w"]
            self._views[i] = object.__new__(IterationRecord)  # still frozen
            self._views[i].__dict__.update(values)
        return self._views[i]


def record_columns(rows, dim: int) -> Records:
    """The Records of ``rows``: IterationRecords, or tuples of their field
    values in field order, whose arrays hold ``dim`` values each."""
    rows = [row if type(row) is tuple else _AS_ROW(row) for row in rows]
    values = list(zip(*rows)) or [()] * len(_DTYPES)
    return Records({name: np.array(column, _DTYPES[name]).reshape(
        (len(rows), dim) if name in RECORD_ARRAYS else len(rows))
        for name, column in zip(_DTYPES, values)})


def _read_records(lines, x0, n) -> Records:
    """The records of a trace's (number, text) lines after its header, line
    ``n``: read column by column, or if that fails, field by field by
    ``_field`` to name the first bad field."""
    seen, records = [], []
    try:
        for n, line in lines:
            seen.append((n, line))
            line = line.strip(" \t\n\r")  # the whitespace JSON allows
            d, end = _JSON_DECODER.scan_once(line, 0)
            if end != len(line):
                raise ValueError
            records.append(d)
        values = (list(zip(*map(_SCALARS_OF, records)))
                  or [()] * len(RECORD_SCALARS))
        raw = [[_a2b_base64(d[name], strict_mode=True)
                if name in d or name in ("w", "y") else None
                for d in records] for name in RECORD_ARRAYS]
        table = np.array(values, np.float64)  # ints beyond range raise
        columns = dict(zip(RECORD_SCALARS, table))
        columns.update((RECORD_SCALARS[i], np.array(values[i], np.int64))
                       for i in _INTS)
        if (set(map(type, chain(*values))) - {int, float}
                or set(map(type, chain(*map(values.__getitem__, _INTS))))
                - {int} or not np.isfinite(table).all()
                or {len(b) for b in chain(*raw) if b is not None}
                - {8 * x0.size}):
            raise ValueError
    except (ValueError, TypeError, KeyError, OverflowError,
            StopIteration) as exc:
        for n, line in seen:  # every valid trace reads above: find the fault
            try:
                d = _JSON_DECODER.decode(line)
                if not isinstance(d, dict):
                    raise ValueError("a record must be a JSON object")
                for name, read in _RECORD_READERS.items():
                    if name in d or name not in ("x", "xi"):
                        _field(d, name, read, x0.size)
            except ValueError as error:
                raise ValueError(f"line {n}: {error}") from None
        raise ValueError(f"line {n}: {exc}") from None  # an undecodable line
    xs, ws, ys, xis = raw
    for name, column in (("w", ws), ("y", ys), ("xi", [
            a if b is None else b for a, b in zip(ws, xis)])):
        columns[name] = np.frombuffer(b"".join(column), _F8LE).reshape(
            len(xs), x0.size)
    columns["x"] = _derive_x(xs, columns["y"], columns["lambda_k"].tolist(),
                             x0)
    return Records(columns)


def _derive_x(xs, y, lam, x0):
    """The x column: each record's stored "<f8" bytes, or else next_x of
    the record before (``x0`` for the first) by the same float operations.
    Rows of up to 8 values go a coordinate at a time on Python floats:
    numpy's per-call cost outweighs its rows below about 10 values."""
    rows = [b if b is None else np.frombuffer(b, _F8LE) for b in xs]
    if y.shape[1] > 8 or not rows:
        with np.errstate(over="ignore", invalid="ignore"):
            for k, b in enumerate(rows):
                if b is None:
                    rows[k] = next_x(y[k - 1], rows[k - 1], lam[k - 1]) \
                        if k else x0
        return np.array(rows, np.float64).reshape(y.shape)
    columns = []
    for j, x_j in enumerate((x0 if rows[0] is None else rows[0]).tolist()):
        columns.append([x_j])
        for a, step, b in zip(y[:-1, j].tolist(), lam, rows[1:]):
            x_j = a + step * (a - x_j) if b is None else float(b[j])
            columns[-1].append(x_j)
    return np.array(columns, np.float64).T.copy()


@dataclass(frozen=True, eq=False)
class Trace:
    """A run's header and its records, held as columns; any other sequence
    of IterationRecords given as ``records`` is stored as its columns."""

    problem_name: str
    config: SolverConfig
    x0: np.ndarray
    records: Records
    final_x: np.ndarray
    final_phi: float
    termination: Termination

    def __post_init__(self):
        if not isinstance(self.records, Records):
            object.__setattr__(self, "records", record_columns(
                self.records, np.size(self.x0)))

    def write_jsonl(self, path) -> None:
        """One meta line, then one record per line; a non-finite value
        raises ValueError rather than writing a non-standard JSON token.

        A record leaves out ``x`` when its bytes equal those of a finite
        next_x of the record before (``x0`` for the first), and ``xi`` when
        they equal ``w``'s; the header's ``"arrays": DERIVED_ARRAYS`` says
        so.  Bytes are compared, so a signed zero or one ulp keeps the
        array, and read_jsonl gives back every record bit for bit.

        Lines stream to ``<path>.partial``, which replaces ``path`` once
        complete and is removed on any failure, so no partial trace is left.
        """
        meta = {
            "problem_name": self.problem_name,
            "config": config_to_flat(self.config),
            "arrays": DERIVED_ARRAYS,
            "x0": _encode_array(self.x0, "x0"),
            "final_x": _encode_array(self.final_x, "final_x"),
            "final_phi": self.final_phi,
            "termination": self.termination.value,
        }
        c = self.records.columns
        arrays = {name: np.asarray(c[name], _F8LE) for name in RECORD_ARRAYS}
        x, w, y, xi = (arrays[name].view(np.int64) for name in RECORD_ARRAYS)
        with np.errstate(over="ignore", invalid="ignore"):
            derived = np.concatenate((np.asarray(self.x0, _F8LE)[None], next_x(
                arrays["y"], arrays["x"], c["lambda_k"][:, None])))[:-1]
        keep = {"x": ((x != derived.view(np.int64)).any(1)
                      | ~np.isfinite(derived).all(1)).tolist(),
                "xi": (xi != w).any(1).tolist()}
        # all finite, or else each array is checked as it is encoded
        finite = np.isfinite(np.column_stack(list(c.values()))).all()
        rows = zip(*(c[name].tolist() for name in RECORD_SCALARS))
        partial = os.fspath(path) + ".partial"
        try:
            with open(partial, "w", encoding="utf-8", newline="") as fh:
                fh.write(_JSON.encode(meta) + "\n")
                for i, scalars in enumerate(rows):
                    obj = dict(zip(RECORD_SCALARS, scalars))
                    for name, a in arrays.items():
                        if name not in keep or keep[name][i]:
                            obj[name] = (
                                base64.b64encode(a[i]).decode("ascii")
                                if finite else _encode_array(a[i], name))
                    fh.write(_JSON.encode(obj) + "\n")
            os.replace(partial, path)
        except BaseException:
            if os.path.exists(partial):
                os.remove(partial)
            raise

    @classmethod
    def read_jsonl(cls, path) -> "Trace":
        """Inverse of write_jsonl.  A header whose ``arrays`` is not
        DERIVED_ARRAYS, or is missing, is malformed.  A malformed line
        raises ValueError naming its line number and field; the tokens NaN,
        Infinity and -Infinity, which write_jsonl never emits, make a line
        malformed.  Keys that are no record field are ignored, such as the
        ``d_norm``, ``inexact_lhs``, ``inexact_rhs``, ``lambda_bar`` and
        step-floor pair that older traces store."""
        with open(path, "r", encoding="utf-8") as fh:
            lines = ((n, ln) for n, ln in enumerate(fh, 1) if not ln.isspace())
            n, line = next(lines, (0, ""))
            if not line:
                raise ValueError("empty trace file")
            try:
                meta = _JSON_DECODER.decode(line)
                if not isinstance(meta, dict) or "problem_name" not in meta:
                    raise ValueError("not a trace header")
                encoding = _field(meta, "arrays", _str)
                if encoding != DERIVED_ARRAYS:
                    raise ValueError(f"field 'arrays': unknown encoding "
                                     f"{encoding!r:.40}")
                x0 = _field(meta, "x0", _decode_array)
                header = dict(
                    problem_name=_field(meta, "problem_name", _str),
                    config=_config_of(_field(meta, "config", _dict)),
                    x0=x0,
                    final_x=_field(meta, "final_x", _decode_array, x0.size),
                    final_phi=_field(meta, "final_phi", _float),
                    termination=_field(meta, "termination", Termination),
                )
            except ValueError as exc:
                raise ValueError(f"line {n}: {exc}") from None
            records = _read_records(lines, x0, n)
        return cls(records=records, **header)


_CONFIGS = {}  # at most 64 header configs, by their keys and value reprs


def _config_of(flat: dict) -> SolverConfig:
    """config_from_flat, once per distinct header config: repr tells -0.0
    from 0.0, a SolverConfig is immutable, and no error is cached."""
    key = tuple(flat), tuple(map(repr, flat.values()))
    if key not in _CONFIGS:
        if len(_CONFIGS) >= 64:
            _CONFIGS.clear()
        _CONFIGS[key] = config_from_flat(flat)
    return _CONFIGS[key]


# --- flat config: one key per field, derived once from the fields


def _keys(cls, prefix=""):
    """(flat key, field name, value type, required) per field of ``cls``:
    a nested part has key None and its class as the type, and the nu union
    is left to config_to_flat."""
    out = []
    for f in fields(cls):
        tp = f.type
        if tp in (float, int, str) or (isinstance(tp, type)
                                       and issubclass(tp, Enum)):
            out.append((prefix + f.name, f.name, tp, f.default is MISSING))
        elif is_dataclass(tp):
            out.append((None, f.name, tp, False))
    return tuple(out)


_NU_KINDS = {cls.kind: cls
             for cls in (ZeroNu, DirectNu, ZhangHagerNu, GrippoNu, RatioNu)}
# nu is a union, so SolverConfig's keys leave it out and nu.* come last
_KEYS = {cls: _keys(cls, "nu.") for cls in _NU_KINDS.values()}
_KEYS[SolverConfig] = _keys(SolverConfig)
_KEYS[EpsSchedule] = _keys(EpsSchedule, "eps.")


def _flat_keys(cls, out: dict) -> dict:
    for key, name, tp, _ in _KEYS[cls]:
        if key is None:
            _flat_keys(tp, out)
        else:  # choices: an Enum's values, or a part's KINDS for its kind
            out[key] = (tp, tuple(m.value for m in tp) if issubclass(tp, Enum)
                        else cls.KINDS if name == "kind" else None)
    return out


# flat key -> (value type, choices or None), in config_to_flat order, with
# the nu.* keys of every nu kind
CONFIG_KEYS = _flat_keys(SolverConfig, {})
CONFIG_KEYS["nu.kind"] = (str, tuple(_NU_KINDS))
for _cls in _NU_KINDS.values():
    _flat_keys(_cls, CONFIG_KEYS)


def flat_value(key: str, value, tp):
    """``value`` read as a ``tp``; a ValueError names the key.  An int key
    takes no fractional value."""
    try:
        if tp is int and isinstance(value, float) and not value.is_integer():
            raise ValueError(f"{value!r} is not an integer")
        return tp(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"config key {key!r}: {exc}") from None


def _put(part, out: dict) -> None:
    for key, name, _, _ in _KEYS[type(part)]:
        value = getattr(part, name)
        if key is None:
            _put(value, out)
        else:
            out[key] = value.value if isinstance(value, Enum) else value


def config_to_flat(config: SolverConfig) -> dict:
    """Flat key/value form of a configuration; every field has one key, so
    config_from_flat gives the configuration back."""
    out = {}
    _put(config, out)
    out["nu.kind"] = config.nu.kind
    _put(config.nu, out)
    return out


def _build(cls, d: dict, **parts):
    for key, name, tp, required in _KEYS[cls]:
        if key is None:
            parts[name] = _build(tp, d)
        elif key in d:
            parts[name] = flat_value(key, d[key], tp)
        elif required:
            raise ValueError(f"config key {key!r} is required by "
                             f"{cls.__name__}")
    return cls(**parts)


def config_from_flat(d: dict) -> SolverConfig:
    """Inverse of config_to_flat: a missing key takes its dataclass default,
    keys outside the schema and nu.* keys of another nu.kind are ignored.
    A nu.* key of no nu kind is an error, so that a retired key (such as
    nu.delta_min) is never read as its successor's default."""
    for key in d:
        if key.startswith("nu.") and key not in CONFIG_KEYS:
            raise ValueError(f"config key {key!r} belongs to no nu kind")
    kind = flat_value("nu.kind", d.get("nu.kind", "zero"), str)
    if kind not in _NU_KINDS:
        raise ValueError(f"config key 'nu.kind': unknown kind {kind!r}")
    return _build(SolverConfig, d, nu=_build(_NU_KINDS[kind], d))
