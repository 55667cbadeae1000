"""Convex building blocks with exact subdifferential calculus.

The atom set -- quadratic ``a*||x||^2``, linear ``<c, x>``, weighted l1
``b*sum_i |x_i|``, and sums thereof -- is coordinate-separable.  A ``Sum``
aggregates its atoms once, at construction, into one (quad, lin, l1) triple
and does all calculus on it; the atom classes only validate and build.
That keeps every piece of calculus exact: subdifferentials are the
per-coordinate bounds ``(lo, hi)`` that ``subdiff_bounds`` reads off the
triple, strong-convexity moduli are read off the quadratic weight, and
approximate subgradients carry a machine-checkable linearization-gap
certificate.  Eps-widened bounds widen each *aggregated* atom by its own
eps-interval: still a sound superset of the eps-subdifferential, and
tighter than per-atom widening when a kind repeats."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConvexExpr",
    "Quadratic",
    "Linear",
    "L1",
    "Sum",
    "EpsSubgradCert",
    "as_point",
    "l2_norm",
    "membership_gap",
    "separable_coefficients",
    "subdiff_bounds",
]


def as_point(x, dim: int | None = None) -> np.ndarray:
    """Coerce to a 1-D float vector, optionally checking its length."""
    p = np.asarray(x, dtype=float)
    if p.ndim == 0:
        p = p.reshape(1)
    if p.ndim != 1:
        raise ValueError(f"expected a 1-D point, got shape {p.shape}")
    if dim is not None and p.shape[0] != dim:
        raise ValueError(f"dimension mismatch: expected {dim}, got {p.shape[0]}")
    return p


def l2_norm(v: np.ndarray) -> float:
    """Euclidean norm of a 1-D float vector: what ``np.linalg.norm`` computes
    for one, ``sqrt(v @ v)``, bit for bit, without its Python layers."""
    return math.sqrt(v @ v)


def subdiff_bounds(quad: float, lin: np.ndarray, l1: float, x: np.ndarray,
                   eps: float = 0.0):
    """Per-coordinate bounds ``(lo, hi)`` of the eps-subdifferential at x of
    ``quad*||.||^2 + <lin, .> + l1*sum_i |._i|`` (the subdifferential of a
    separable sum is the product of the 1-D ones, so at eps = 0 the box is
    exact).  For eps > 0 each part is widened by its own exact 1-D
    eps-interval, so a zero gap between two such boxes never misses an
    eps-critical point.  ``lin`` is a vector, zero when there is no linear
    part, as ``separable_coefficients`` gives it.  ``lo`` and ``hi`` may be
    one array, so treat them as read-only.  The exact (eps = 0) bounds are
    whole-array arithmetic and selects, with no boolean-mask indexing."""
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    # Summing into 0.0 first turns -0.0 into 0.0; parts are summed in the
    # order quad, lin, l1.
    g = 2.0 * quad * x
    if eps == 0.0:
        base = 0.0 + g + lin
        if not l1:
            return base, base
        # l1: [-b, b] at the kink, {sign(t) b} off it; base - b is base + (-b).
        # x > 0 and x < 0 are disjoint, so the second copy reads lo where the
        # first left it at base - b
        lo, hi = base - l1, base + l1
        np.copyto(lo, hi, where=x > 0)
        np.copyto(hi, lo, where=x < 0)
        return lo, hi
    # quadratic: {v : a s^2 >= a t^2 + v (s - t) - eps for all s} = 2at +- 2
    # sqrt(a eps); linear: still {c}
    r = 2.0 * math.sqrt(quad * eps)
    lo = 0.0 + (g - r) + lin
    hi = 0.0 + (g + r) + lin
    if l1:
        b = l1
        # {v in [-b, b] : v t >= b|t| - eps}
        l1_lo = np.full_like(x, -b)
        l1_hi = np.full_like(x, b)
        pos, neg = x > 0, x < 0
        l1_lo[pos] = np.maximum(-b, b - eps / x[pos])
        l1_hi[neg] = np.minimum(b, -b + eps / (-x[neg]))
        lo = lo + l1_lo
        hi = hi + l1_hi
    return lo, hi


def membership_gap(lo: np.ndarray, hi: np.ndarray, v: np.ndarray):
    """Largest per-coordinate distance from v to the box [lo, hi] (0 inside),
    a float; for a 2-D v, an array of the gap of each row."""
    # clamping the largest excess at 0 gives the bits of clamping each
    # coordinate first: a zero gap is +0.0 either way, and a NaN stays NaN
    # (NaN <= 0.0 is false)
    gap = np.maximum.reduce(np.maximum(lo - v, v - hi), -1)
    if v.ndim > 1:
        return np.maximum(gap, 0.0)
    return 0.0 if gap <= 0.0 else float(gap)


@dataclass(frozen=True, eq=False)
class EpsSubgradCert:
    """Approximate subgradient with a proof-carrying gap.

    ``w`` is an exact subgradient at an anchor z and ``eps_achieved`` equals
    ``f(x) - f(z) - <w, x - z> >= 0``, which certifies that ``w`` satisfies
    the subgradient inequality at ``x`` relaxed by ``eps_achieved``.
    """

    w: np.ndarray
    eps_achieved: float


class ConvexExpr:
    """Base class for the separable convex expressions; the calculus is
    written once, on ``Sum``, and any other expression forwards to a cached
    one-term ``Sum`` of itself."""

    @functools.cached_property
    def _sum(self) -> "Sum":
        return Sum((self,))

    def value(self, x) -> float:
        return self._sum.value(x)

    def subgrad(self, x) -> np.ndarray:
        """Canonical subgradient selection; uses sign(0) = 0 at l1 kinks."""
        return self._sum.subgrad(x)

    def eps_subdiff_box(self, x, eps: float):
        """Bounds ``(lo, hi)`` of the eps-relaxed subdifferential at x, read
        off the compiled triple by ``subdiff_bounds``."""
        x = as_point(x)
        return subdiff_bounds(*separable_coefficients(self, x.shape[0]), x, eps)

    def subdiff_box(self, x):
        """Bounds ``(lo, hi)`` of the exact subdifferential at x."""
        return self.eps_subdiff_box(x, 0.0)

    def modulus(self) -> float:
        """Exact strong-convexity modulus, read off the quadratic weight."""
        return self._sum.modulus()

    def check_dim(self, dim: int) -> None:
        """Raise if the expression cannot accept points of this dimension."""
        self._sum.check_dim(dim)

    def __add__(self, other):
        if not isinstance(other, ConvexExpr):
            return NotImplemented
        left = self.terms if isinstance(self, Sum) else (self,)
        right = other.terms if isinstance(other, Sum) else (other,)
        return Sum(left + right)

    def linearization_cert(self, x, z) -> EpsSubgradCert:
        """Certificate for the subgradient taken at anchor z, valid at x."""
        x = as_point(x)
        z = as_point(z, x.shape[0])
        w = self.subgrad(z)
        gap = self.value(x) - self.value(z) - float(w @ (x - z))
        return EpsSubgradCert(w=w, eps_achieved=max(gap, 0.0))

    def eps_subgrad(self, x, eps_target: float, rng) -> EpsSubgradCert:
        """Approximate subgradient at x with certified gap <= eps_target.

        Samples an anchor on a sphere around x, takes the exact subgradient
        there, and shrinks the radius geometrically until the linearization
        gap fits the budget.  eps_target = 0 returns the exact subgradient.
        """
        x = as_point(x)
        if eps_target < 0:
            raise ValueError("eps_target must be nonnegative")
        if eps_target == 0.0:
            return EpsSubgradCert(self.subgrad(x), 0.0)
        radius = min(0.1, math.sqrt(eps_target))
        for _ in range(64):
            u = rng.standard_normal(x.shape[0])
            norm = l2_norm(u)
            if norm == 0.0:
                continue
            cert = self.linearization_cert(x, x + (radius / norm) * u)
            if cert.eps_achieved <= eps_target:
                return cert
            radius *= 0.5
        # radius-0 fallback: the exact subgradient certifies with zero gap
        return EpsSubgradCert(self.subgrad(x), 0.0)


@dataclass(frozen=True)
class Quadratic(ConvexExpr):
    """``a * ||x||^2`` with finite a >= 0."""

    a: float

    def __post_init__(self):
        object.__setattr__(self, "a", float(self.a))
        if not 0.0 <= self.a < math.inf:
            raise ValueError("quadratic weight must be finite and nonnegative")


@dataclass(frozen=True, eq=False)
class Linear(ConvexExpr):
    """``<c, x>`` with finite c."""

    c: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "c", as_point(self.c))
        if not np.isfinite(self.c).all():
            raise ValueError("linear coefficients must be finite")


@dataclass(frozen=True)
class L1(ConvexExpr):
    """``b * sum_i |x_i|`` with finite b >= 0."""

    b: float

    def __post_init__(self):
        object.__setattr__(self, "b", float(self.b))
        if not 0.0 <= self.b < math.inf:
            raise ValueError("l1 weight must be finite and nonnegative")


@dataclass(frozen=True)
class Sum(ConvexExpr):
    """Sum of convex expressions, aggregated once at construction into
    ``quad*||x||^2 + <lin, x> + l1*sum_i |x_i|`` (``lin`` is None without a
    linear atom).  An absent or zero-weight part adds no term, so no 0*inf
    appears, and the parts are always summed in the order quad, lin, l1."""

    terms: tuple

    def __post_init__(self):
        terms = tuple(self.terms)
        quad = l1 = 0.0
        lin = None
        for t in terms:
            if isinstance(t, Sum):
                q, c, b = t.quad, t.lin, t.l1
            elif isinstance(t, Quadratic):
                q, c, b = t.a, None, 0.0
            elif isinstance(t, Linear):
                q, c, b = 0.0, t.c, 0.0
            elif isinstance(t, L1):
                q, c, b = 0.0, None, t.b
            else:
                raise TypeError(f"Sum terms must be separable atoms, got {type(t)!r}")
            quad += q
            l1 += b
            if c is not None:
                if lin is not None and lin.shape != c.shape:
                    raise ValueError(
                        f"dimension mismatch: linear terms have {lin.shape[0]} "
                        f"and {c.shape[0]} coefficients"
                    )
                lin = c.copy() if lin is None else lin + c
        if lin is not None:
            lin.flags.writeable = False
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "quad", quad)
        object.__setattr__(self, "lin", lin)
        object.__setattr__(self, "l1", l1)

    def _point(self, x) -> np.ndarray:
        return as_point(x, None if self.lin is None else self.lin.shape[0])

    def value(self, x) -> float:
        x = self._point(x)
        total = 0.0
        if self.quad:
            total += float(self.quad * (x @ x))
        if self.lin is not None:
            total += float(self.lin @ x)
        if self.l1:
            total += float(self.l1 * np.add.reduce(np.abs(x)))
        return total

    def subgrad(self, x) -> np.ndarray:
        x = self._point(x)
        out = np.zeros_like(x)
        if self.quad:
            out += 2.0 * self.quad * x
        if self.lin is not None:
            out += self.lin
        if self.l1:
            out += self.l1 * np.sign(x)
        return out

    def modulus(self) -> float:
        return 2.0 * self.quad

    def check_dim(self, dim: int) -> None:
        if self.lin is not None and self.lin.shape[0] != dim:
            raise ValueError(
                f"dimension mismatch: linear term has {self.lin.shape[0]} "
                f"coefficients, problem dimension is {dim}"
            )


def separable_coefficients(f: ConvexExpr, dim: int):
    """Aggregate (quad, lin, l1) with f(x) = quad*||x||^2 + <lin, x> + l1*sum|x_i|,
    read off the compiled Sum; lin is a read-only vector of length dim."""
    s = f if isinstance(f, Sum) else f._sum
    s.check_dim(dim)
    return s.quad, np.zeros(dim) if s.lin is None else s.lin, s.l1
