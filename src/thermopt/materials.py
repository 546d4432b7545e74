"""Temperature-dependent electrical conductivity models.

Each model provides sigma(u) >= 0, vanishing at a critical temperature
u_star (possibly infinite), together with the derived quantities used by the
substitution diagnostics and the a-priori bound chain:

    F(u)    = integral_0^u ds / sigma(s)   (maps [0, u_star) onto [0, inf))
    F_inv   = inverse of F
    a(v)    = sigma(F_inv(v))              (strictly positive, nonincreasing)
    M(v)    = integral_0^v ds / a(s)       (`reciprocal_a_moment`)
    mu      = max(sup sigma, sup |sigma'|) over [0, u_star]

The two families, TruncatedPower and Constant, are the model interface;
ConductivityModel names their union. Both evaluate all of these in closed
form, elementwise, returning float arrays of the argument's shape; there is
no quadrature or root finding. sigma, sigma' and a clamp negative arguments
(transients of the nonlinear iteration) to 0 and M is 0 there, so callers
pass them unclamped; F and F_inv raise DomainError on them. Callers that
need to report clamping count negatives before evaluating.
Models are immutable and every evaluation is a pure function, safe for
concurrent use.

The truncation sigma_n is a separate two-method object that checks its level.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError


def _clamp(u):
    return np.maximum(np.asarray(u, dtype=float), 0.0)


def _positive_finite(value: float) -> bool:
    return math.isfinite(value) and value > 0


class TruncatedPower:
    """sigma(u) = sigma0 (1 - u/u_star)^p for u < u_star, zero beyond.

    p >= 2 keeps sigma in C1 across u_star and makes F(u) diverge at u_star.
    With c = sigma0 (p - 1) / u_star every derived quantity has a closed
    form at every p, written with expm1/log1p so that no digits cancel near 0:

        F(u)     = ((1 - u/u_star)^(1-p) - 1) / c
        F_inv(v) = u_star (1 - (1 + c v)^(-1/(p-1)))
        a(v)     = sigma0 (1 + c v)^(-p/(p-1))
        M(v)     = ((1 + c v)^k - 1) / (sigma0 c k),  k = (2p - 1)/(p - 1)
    """

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
        """C1 norm bound of sigma over [0, u_star]."""
        # sup sigma = sigma0 at u=0; sup |sigma'| = p sigma0 / u_star at u=0
        return max(self.sigma0, self.exponent_p * self.sigma0 / self.u_star)

    def reciprocal_a_moment(self, v):
        """integral_0^v ds / a(s), used by the bound chain; 0 for v <= 0."""
        p = self.exponent_p
        k = (2.0 * p - 1.0) / (p - 1.0)
        return np.expm1(k * np.log1p(self._c * _clamp(v))) / (self.sigma0 * self._c * k)


class Constant:
    """Uniformly positive conductivity; the nondegenerate baseline."""

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
        """C1 norm bound of sigma over [0, u_star]."""
        return self.sigma0

    def reciprocal_a_moment(self, v):
        """integral_0^v ds / a(s), used by the bound chain; 0 for v <= 0."""
        return _clamp(v) / self.sigma0


# The model interface: what config.build_model returns.
ConductivityModel = TruncatedPower | Constant


class TruncatedModel:
    """sigma_n: sigma below the level n, a C1 cubic blend of width
    delta = 0.05 (u_star - n) down to the floor sigma(n)/2, constant beyond.
    Only sigma and sigma'; it keeps each linearized solve uniformly elliptic,
    and its constructor is the one check of the level, 0 < n < u_star < inf.
    """

    def __init__(self, base: ConductivityModel, n: float):
        if not 0.0 < n < base.u_star < math.inf:
            why = ("outside (0, u_star)" if math.isfinite(base.u_star)
                   else "given for a model without a critical temperature")
            raise DomainError(f"truncation level {n} {why}")
        self.base = base
        self.n = float(n)
        self.delta = 0.05 * (base.u_star - self.n)
        self._sn = float(base.sigma(self.n))
        self._spn = float(base.sigma_prime(self.n))

    def _on_band(self, u, below, blend, floor):
        """below(min(u, n)), then blend((u - n) / delta) if u > n, floor if u >= n + delta."""
        u = _clamp(u)
        out = np.asarray(below(np.minimum(u, self.n)))
        band = u > self.n
        out[band] = blend(np.clip((u[band] - self.n) / self.delta, 0.0, 1.0))
        out[u >= self.n + self.delta] = floor
        return out

    def sigma(self, u):
        d, sn, spn = self.delta, self._sn, self._spn
        blend = lambda t: sn * (t ** 3 - 1.5 * t ** 2 + 1.0) + d * spn * t * (1.0 - t) ** 2
        return self._on_band(u, self.base.sigma, blend, 0.5 * sn)

    def sigma_prime(self, u):
        d, sn, spn = self.delta, self._sn, self._spn
        dblend = lambda t: sn * (3.0 * t ** 2 - 3.0 * t) / d + spn * (1.0 - t) * (1.0 - 3.0 * t)
        return self._on_band(u, self.base.sigma_prime, dblend, 0.0)
