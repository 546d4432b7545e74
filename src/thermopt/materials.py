"""Temperature-dependent electrical conductivity models.

Each model provides sigma(u) >= 0, vanishing at a critical temperature
u_star (possibly infinite), together with the derived quantities used by the
substitution diagnostics and the a-priori bound chain:

    F(u)    = integral_0^u ds / sigma(s)   (maps [0, u_star) onto [0, inf))
    F_inv   = inverse of F
    a(v)    = sigma(F_inv(v))              (strictly positive, nonincreasing)
    M(v)    = integral_0^v ds / a(s)       (`reciprocal_a_moment`)
    mu      = max(sup sigma, sup |sigma'|) over [0, u_star]

Both concrete families evaluate all of these in closed form, elementwise on
arrays of any shape; there is no quadrature or root finding. Negative
temperature arguments (transients of the nonlinear iteration) are clamped to
0; callers that need to report clamping count negatives before evaluating.
Models are immutable and every evaluation is a pure function, safe for
concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

_DENSE_SAMPLES = 4096
_MU_SLACK = 1e-6


@dataclass(frozen=True)
class TruncationLevel:
    """Level n in (0, u_star) at which sigma is blended to a positive floor."""

    n: float
    delta: float


class ConductivityModel:
    """Common interface; concrete families implement the evaluations."""

    kind = "abstract"
    sigma0: float
    u_star: float

    def sigma(self, u):
        raise NotImplementedError

    def sigma_prime(self, u):
        raise NotImplementedError

    def F(self, u):
        raise NotImplementedError

    def F_inv(self, v):
        raise NotImplementedError

    def a(self, v):
        raise NotImplementedError

    def lipschitz_mu(self) -> float:
        """C1 norm bound of sigma over [0, u_star]."""
        raise NotImplementedError

    def reciprocal_a_moment(self, v):
        """integral_0^v ds / a(s), used by the bound chain; 0 for v <= 0."""
        raise NotImplementedError


def _clamp(u):
    return np.maximum(np.asarray(u, dtype=float), 0.0)


def _positive_finite(value: float) -> bool:
    return math.isfinite(value) and value > 0


class TruncatedPower(ConductivityModel):
    """sigma(u) = sigma0 (1 - u/u_star)^p for u < u_star, zero beyond.

    p >= 2 keeps sigma in C1 across u_star and makes F(u) diverge at u_star.
    With c = sigma0 (p - 1) / u_star every derived quantity has a closed
    form at every p, written with expm1/log1p so that no digits cancel near 0:

        F(u)     = ((1 - u/u_star)^(1-p) - 1) / c
        F_inv(v) = u_star (1 - (1 + c v)^(-1/(p-1)))
        a(v)     = sigma0 (1 + c v)^(-p/(p-1))
        M(v)     = ((1 + c v)^k - 1) / (sigma0 c k),  k = (2p - 1)/(p - 1)
    """

    kind = "truncated_power"

    def __init__(self, sigma0: float, u_star: float, exponent_p: float = 2.0):
        if not _positive_finite(sigma0):
            raise DomainError("sigma0 must be finite and positive")
        if not _positive_finite(u_star):
            raise DomainError("u_star must be finite and positive (a model without "
                              "a critical temperature is kind = constant)")
        if not (math.isfinite(exponent_p) and exponent_p >= 2):
            raise DomainError("exponent p must be finite and >= 2 for C1 regularity")
        self.sigma0 = float(sigma0)
        self.u_star = float(u_star)
        self.exponent_p = float(exponent_p)
        self._c = self.sigma0 * (self.exponent_p - 1.0) / self.u_star

    def sigma(self, u):
        u = _clamp(u)
        t = np.maximum(1.0 - u / self.u_star, 0.0)
        return self.sigma0 * t ** self.exponent_p

    def sigma_prime(self, u):
        u = _clamp(u)
        t = np.maximum(1.0 - u / self.u_star, 0.0)
        return -self.exponent_p * self.sigma0 / self.u_star * t ** (self.exponent_p - 1.0)

    def F(self, u):
        u = np.asarray(u, dtype=float)
        if np.any(u < 0) or np.any(u >= self.u_star):
            raise DomainError("F is defined on [0, u_star)")
        return np.expm1((1.0 - self.exponent_p) * np.log1p(-u / self.u_star)) / self._c

    def F_inv(self, v):
        v = np.asarray(v, dtype=float)
        if np.any(v < 0):
            raise DomainError("F_inv is defined on [0, inf)")
        return -self.u_star * np.expm1(-np.log1p(self._c * v) / (self.exponent_p - 1.0))

    def a(self, v):
        p = self.exponent_p
        return self.sigma0 * np.exp(-p / (p - 1.0) * np.log1p(self._c * _clamp(v)))

    def lipschitz_mu(self) -> float:
        # sup sigma = sigma0 at u=0; sup |sigma'| = p sigma0 / u_star at u=0
        return max(self.sigma0, self.exponent_p * self.sigma0 / self.u_star)

    def reciprocal_a_moment(self, v):
        p = self.exponent_p
        k = (2.0 * p - 1.0) / (p - 1.0)
        return np.expm1(k * np.log1p(self._c * _clamp(v))) / (self.sigma0 * self._c * k)


class Constant(ConductivityModel):
    """Uniformly positive conductivity; the nondegenerate baseline."""

    kind = "constant"

    def __init__(self, sigma0: float):
        if not _positive_finite(sigma0):
            raise DomainError("sigma0 must be finite and positive")
        self.sigma0 = float(sigma0)
        self.u_star = math.inf

    def sigma(self, u):
        return np.full_like(_clamp(u), self.sigma0)

    def sigma_prime(self, u):
        return np.zeros_like(_clamp(u))

    def F(self, u):
        u = np.asarray(u, dtype=float)
        if np.any(u < 0):
            raise DomainError("F is defined on [0, inf)")
        return u / self.sigma0

    def F_inv(self, v):
        v = np.asarray(v, dtype=float)
        if np.any(v < 0):
            raise DomainError("F_inv is defined on [0, inf)")
        return self.sigma0 * v

    def a(self, v):
        return np.full_like(np.asarray(v, dtype=float), self.sigma0)

    def lipschitz_mu(self) -> float:
        return self.sigma0

    def reciprocal_a_moment(self, v):
        return _clamp(v) / self.sigma0


class TruncatedModel(ConductivityModel):
    """sigma_n: equals sigma below the level n, then a C1 cubic blend down to
    the constant floor sigma(n)/2 on [n, n+delta], constant beyond.

    Only sigma/sigma' evaluations are meaningful for a truncated model; it
    exists to make each linearized solve uniformly elliptic.
    """

    kind = "truncated"

    def __init__(self, base: ConductivityModel, level: TruncationLevel):
        self.base = base
        self.level = level
        self.sigma0 = base.sigma0
        self.u_star = math.inf  # sigma_n never vanishes
        n, d = level.n, level.delta
        self._sn = float(base.sigma(n))
        self._spn = float(base.sigma_prime(n))
        self._n, self._d = n, d

    def sigma(self, u):
        u = _clamp(u)
        n, d, sn, spn = self._n, self._d, self._sn, self._spn
        t = np.clip((u - n) / d, 0.0, 1.0)
        blend = sn * (t ** 3 - 1.5 * t ** 2 + 1.0) + d * spn * t * (1.0 - t) ** 2
        out = np.where(u <= n, self.base.sigma(np.minimum(u, n)), blend)
        return np.where(u >= n + d, 0.5 * sn, out)

    def sigma_prime(self, u):
        u = _clamp(u)
        n, d, sn, spn = self._n, self._d, self._sn, self._spn
        t = np.clip((u - n) / d, 0.0, 1.0)
        dblend = sn * (3.0 * t ** 2 - 3.0 * t) / d + spn * (1.0 - t) * (1.0 - 3.0 * t)
        out = np.where(u <= n, self.base.sigma_prime(np.minimum(u, n)), dblend)
        return np.where(u >= n + d, 0.0, out)

    def lipschitz_mu(self) -> float:
        s = np.linspace(0.0, self._n + self._d, _DENSE_SAMPLES)
        return float(max(np.max(np.abs(self.sigma(s))),
                         np.max(np.abs(self.sigma_prime(s))))) + _MU_SLACK


def truncate(model: ConductivityModel, n: float,
             delta: float | None = None) -> TruncatedModel:
    """Build sigma_n with floor sigma(n)/2 and C1 blend of width delta.

    Default blend width is 0.05 (u_star - n). Requires 0 < n < u_star.
    """
    if not (0.0 < n < model.u_star):
        raise DomainError(f"truncation level {n} outside (0, u_star)")
    if delta is None:
        if not math.isfinite(model.u_star):
            raise DomainError("truncation of a model without finite u_star "
                              "needs an explicit blend width")
        delta = 0.05 * (model.u_star - n)
    if delta <= 0:
        raise DomainError("blend width must be positive")
    return TruncatedModel(model, TruncationLevel(float(n), float(delta)))
