"""The convex components of a DC problem, with exact subdifferential calculus.

Every component is one ``Sum(quad, lin, l1)``, the coordinate-separable
function ``quad*||x||^2 + <lin, x> + l1*sum_i |x_i|``.  All calculus is read
off that triple: subdifferentials are the per-coordinate bounds ``(lo, hi)``
of ``subdiff_bounds``, the strong-convexity modulus is read off the
quadratic weight, and approximate subgradients carry a machine-checkable
linearization-gap certificate.  Eps-widened bounds widen each of the three
parts by its own exact eps-interval, a sound superset of the
eps-subdifferential."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Sum",
    "EpsSubgradCert",
    "as_point",
    "l2_norm",
    "membership_gap",
    "row_norms",
    "subdiff_bounds",
    "value_rows",
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


def row_norms(V: np.ndarray) -> np.ndarray:
    """``l2_norm`` of each row of a 2-D float array, bit for bit:
    ``np.vecdot`` takes one BLAS dot per row, as ``v @ v`` does for one
    (``np.einsum`` sums in another order)."""
    return np.sqrt(np.vecdot(V, V))


def subdiff_bounds(quad: float, lin: np.ndarray, l1: float, x: np.ndarray,
                   eps: float = 0.0):
    """Per-coordinate bounds ``(lo, hi)`` of the eps-subdifferential at x of
    ``quad*||.||^2 + <lin, .> + l1*sum_i |._i|`` (the subdifferential of a
    separable sum is the product of the 1-D ones, so at eps = 0 the box is
    exact).  For eps > 0 each part is widened by its own exact 1-D
    eps-interval, so a zero gap between two such boxes never misses an
    eps-critical point.  ``x`` may be 2-D, one point per row.  ``lo`` and
    ``hi`` may be one array, so treat them as read-only.  The exact
    (eps = 0) bounds are whole-array arithmetic and selects, with no
    boolean-mask indexing."""
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
    return np.maximum(np.maximum.reduce(np.maximum(lo - v, v - hi), -1), 0.0)


@dataclass(frozen=True, eq=False)
class EpsSubgradCert:
    """Approximate subgradient with a proof-carrying gap.

    ``w`` is an exact subgradient at an anchor z and ``eps_achieved`` equals
    ``f(x) - f(z) - <w, x - z> >= 0``, which certifies that ``w`` satisfies
    the subgradient inequality at ``x`` relaxed by ``eps_achieved``.
    """

    w: np.ndarray
    eps_achieved: float


@dataclass(frozen=True, eq=False)
class Sum:
    """``quad*||x||^2 + <lin, x> + l1*sum_i |x_i|`` with finite weights
    quad, l1 >= 0 and a finite vector ``lin`` (zeros for no linear part),
    whose length is the dimension; ``lin`` is kept as a read-only copy.  A
    zero weight adds no term, so no 0*inf appears, and the parts are always
    summed in the order quad, lin, l1."""

    quad: float
    lin: np.ndarray
    l1: float

    def __post_init__(self):
        # + 0.0 turns a -0.0 weight into 0.0
        quad, l1 = float(self.quad) + 0.0, float(self.l1) + 0.0
        if not 0.0 <= quad < math.inf:
            raise ValueError("quadratic weight must be finite and nonnegative")
        if not 0.0 <= l1 < math.inf:
            raise ValueError("l1 weight must be finite and nonnegative")
        lin = as_point(self.lin).copy()
        if not np.isfinite(lin).all():
            raise ValueError("linear coefficients must be finite")
        lin.flags.writeable = False
        object.__setattr__(self, "quad", quad)
        object.__setattr__(self, "lin", lin)
        object.__setattr__(self, "l1", l1)

    def value(self, x) -> float:
        x = as_point(x, self.lin.shape[0])
        total = 0.0
        if self.quad:
            total += self.quad * float(x @ x)
        total += float(self.lin @ x)
        if self.l1:
            total += self.l1 * float(np.add.reduce(np.abs(x)))
        return total

    def _rows(self, Z, sq, abs_sum) -> np.ndarray:
        # value's running total over the rows of Z, given sq = z @ z where
        # quad is nonzero and abs_sum = sum_i |z_i| where l1 is.  quad * sq
        # is never -0.0, so 0.0 + quad * sq is quad * sq, bit for bit; a
        # total that starts at the lin part keeps the 0.0 + that turns -0.0
        # into 0.0
        lin = np.vecdot(Z, self.lin)
        total = self.quad * sq + lin if self.quad else 0.0 + lin
        if self.l1:
            total += self.l1 * abs_sum
        return total

    def subgrad(self, x) -> np.ndarray:
        """Canonical subgradient selection; uses sign(0) = 0 at l1 kinks."""
        x = as_point(x, self.lin.shape[0])
        # 0.0 + ... turns a -0.0 quadratic part into 0.0 before lin is added
        if self.quad:
            out = 0.0 + 2.0 * self.quad * x + self.lin
        else:
            out = 0.0 + self.lin
        if self.l1:
            out += self.l1 * np.sign(x)
        return out

    def bounds(self, x, eps: float = 0.0):
        """Bounds ``(lo, hi)`` of the eps-subdifferential at x (the exact
        one at eps = 0), by ``subdiff_bounds``."""
        x = as_point(x, self.lin.shape[0])
        return subdiff_bounds(self.quad, self.lin, self.l1, x, eps)

    def modulus(self) -> float:
        """Exact strong-convexity modulus, read off the quadratic weight."""
        return 2.0 * self.quad

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


def value_rows(f1: Sum, f2: Sum, Z) -> tuple:
    """(f1, f2) at every row of the 2-D float array Z: two float64 arrays,
    each entry bit for bit the ``value`` of its row.  z @ z and sum_i |z_i|
    are computed once per row for both: the square by one BLAS dot per row
    (``np.vecdot``, as ``z @ z`` takes one), the sum by the reduction
    ``value`` takes."""
    sq = np.vecdot(Z, Z) if f1.quad or f2.quad else None
    abs_sum = np.add.reduce(np.abs(Z), axis=-1) if f1.l1 or f2.l1 else None
    return f1._rows(Z, sq, abs_sum), f2._rows(Z, sq, abs_sum)
