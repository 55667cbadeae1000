"""Convex building blocks with exact subdifferential calculus.

The atom set -- quadratic ``a*||x||^2``, linear ``<c, x>``, weighted l1
``b*sum_i |x_i|``, and sums thereof -- is coordinate-separable.  A ``Sum``
aggregates its atoms once, at construction, into one (quad, lin, l1) triple
and does all calculus on it; the atom classes only build and serialize.
That keeps every piece of calculus exact: subdifferentials are
per-coordinate interval boxes, strong-convexity moduli are read off the
quadratic weight, and approximate subgradients carry a machine-checkable
linearization-gap certificate.  Eps-widened boxes widen each *aggregated*
atom by its own eps-interval: still a sound superset of the
eps-subdifferential, and tighter than per-atom widening when a kind repeats.
"""

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
    "SubdiffBox",
    "EpsSubgradCert",
    "as_point",
    "expr_from_dict",
    "separable_coefficients",
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


@dataclass(frozen=True, eq=False)
class SubdiffBox:
    """Per-coordinate interval box; exactly the subdifferential of a separable
    convex function (the subdifferential of a separable sum is the product of
    the 1-D subdifferentials)."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = as_point(self.lo)
        hi = as_point(self.hi, lo.shape[0])
        if np.any(lo > hi + 1e-15):
            raise ValueError("box has lo > hi")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    def membership_gap(self, v) -> float:
        """Largest per-coordinate distance from v to the box (0 if inside)."""
        v = as_point(v, self.dim)
        return float(np.max(np.maximum(np.maximum(self.lo - v, v - self.hi), 0.0)))

    def contains(self, v, tol: float = 1e-10) -> bool:
        return self.membership_gap(v) <= tol

    def project(self, v) -> np.ndarray:
        v = as_point(v, self.dim)
        return np.clip(v, self.lo, self.hi)

    def gap_to(self, other: "SubdiffBox") -> float:
        """Largest per-coordinate gap between two boxes; 0 iff they intersect
        in every coordinate."""
        if other.dim != self.dim:
            raise ValueError("box dimension mismatch")
        lo_gap = np.maximum(self.lo - other.hi, 0.0)
        hi_gap = np.maximum(other.lo - self.hi, 0.0)
        return float(np.max(np.maximum(lo_gap, hi_gap)))

    def __add__(self, other):
        if not isinstance(other, SubdiffBox):
            return NotImplemented
        return SubdiffBox(self.lo + other.lo, self.hi + other.hi)


@dataclass(frozen=True, eq=False)
class EpsSubgradCert:
    """Approximate subgradient with a proof-carrying gap.

    ``w`` is an exact subgradient at ``anchor_z`` and ``eps_achieved`` equals
    ``f(x) - f(z) - <w, x - z> >= 0``, which certifies that ``w`` satisfies
    the subgradient inequality at ``x`` relaxed by ``eps_achieved``.
    """

    w: np.ndarray
    eps_achieved: float
    anchor_z: np.ndarray


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

    def eps_subdiff_box(self, x, eps: float) -> SubdiffBox:
        """Box containing the eps-relaxed subdifferential; each aggregated
        atom is widened by its own exact 1-D eps-interval, so a zero gap
        between two such boxes never misses an eps-critical point."""
        return self._sum.eps_subdiff_box(x, eps)

    def subdiff_box(self, x) -> SubdiffBox:
        """Exact subdifferential at x as a per-coordinate interval box."""
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
        return EpsSubgradCert(w=w, eps_achieved=max(gap, 0.0), anchor_z=z)

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
            return EpsSubgradCert(self.subgrad(x), 0.0, x.copy())
        radius = min(0.1, math.sqrt(eps_target))
        for _ in range(64):
            u = rng.standard_normal(x.shape[0])
            norm = float(np.linalg.norm(u))
            if norm == 0.0:
                continue
            cert = self.linearization_cert(x, x + (radius / norm) * u)
            if cert.eps_achieved <= eps_target:
                return cert
            radius *= 0.5
        # radius-0 fallback: the exact subgradient certifies with zero gap
        return EpsSubgradCert(self.subgrad(x), 0.0, x.copy())


@dataclass(frozen=True)
class Quadratic(ConvexExpr):
    """``a * ||x||^2`` with a >= 0."""

    a: float

    def __post_init__(self):
        object.__setattr__(self, "a", float(self.a))
        if self.a < 0:
            raise ValueError("quadratic weight must be nonnegative")

    def to_dict(self) -> dict:
        return {"quad": self.a}


@dataclass(frozen=True, eq=False)
class Linear(ConvexExpr):
    """``<c, x>``."""

    c: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "c", as_point(self.c))

    def to_dict(self) -> dict:
        return {"lin": [float(v) for v in self.c]}


@dataclass(frozen=True)
class L1(ConvexExpr):
    """``b * sum_i |x_i|`` with b >= 0."""

    b: float

    def __post_init__(self):
        object.__setattr__(self, "b", float(self.b))
        if self.b < 0:
            raise ValueError("l1 weight must be nonnegative")

    def to_dict(self) -> dict:
        return {"l1": self.b}


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
            total += float(self.l1 * np.sum(np.abs(x)))
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

    def eps_subdiff_box(self, x, eps: float) -> SubdiffBox:
        if eps < 0:
            raise ValueError("eps must be nonnegative")
        x = self._point(x)
        lo = np.zeros_like(x)
        hi = np.zeros_like(x)
        if self.quad:
            # {v : a s^2 >= a t^2 + v (s - t) - eps for all s} = 2at +- 2 sqrt(a eps)
            g = 2.0 * self.quad * x
            r = 2.0 * math.sqrt(self.quad * eps)
            lo += g - r
            hi += g + r
        if self.lin is not None:
            # the eps-relaxed subgradient set of an affine function is still {c}
            lo += self.lin
            hi += self.lin
        if self.l1:
            b = self.l1
            l1_lo = np.full_like(x, -b)
            l1_hi = np.full_like(x, b)
            pos = x > 0
            neg = x < 0
            if eps == 0.0:
                l1_lo[pos] = b
                l1_hi[neg] = -b
            else:
                # {v in [-b, b] : v t >= b|t| - eps}
                l1_lo[pos] = np.maximum(-b, b - eps / x[pos])
                l1_hi[neg] = np.minimum(b, -b + eps / (-x[neg]))
            lo += l1_lo
            hi += l1_hi
        return SubdiffBox(lo, hi)

    def modulus(self) -> float:
        return 2.0 * self.quad

    def check_dim(self, dim: int) -> None:
        if self.lin is not None and self.lin.shape[0] != dim:
            raise ValueError(
                f"dimension mismatch: linear term has {self.lin.shape[0]} "
                f"coefficients, problem dimension is {dim}"
            )

    def to_dict(self) -> dict:
        return {"sum": [t.to_dict() for t in self.terms]}


def expr_from_dict(d: dict) -> ConvexExpr:
    """Inverse of ``ConvexExpr.to_dict``."""
    if not isinstance(d, dict) or len(d) != 1:
        raise ValueError(f"malformed expression node: {d!r}")
    (key, payload), = d.items()
    if key == "quad":
        return Quadratic(payload)
    if key == "lin":
        return Linear(np.asarray(payload, dtype=float))
    if key == "l1":
        return L1(payload)
    if key == "sum":
        return Sum(tuple(expr_from_dict(t) for t in payload))
    raise ValueError(f"unknown expression atom {key!r}")


def separable_coefficients(f: ConvexExpr, dim: int):
    """Aggregate (quad, lin, l1) with f(x) = quad*||x||^2 + <lin, x> + l1*sum|x_i|,
    read off the compiled Sum; lin is a read-only vector of length dim."""
    s = f if isinstance(f, Sum) else f._sum
    s.check_dim(dim)
    return s.quad, np.zeros(dim) if s.lin is None else s.lin, s.l1
