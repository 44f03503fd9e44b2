"""Service, inter-arrival and service-rate primitives.

A :class:`ServiceLaw` bundles exactly the analytic data the fluid equations
consume (cdf, tail, density with its sup and Lipschitz constant) with a
seedable sampler for the event-driven simulator.  Constants are supplied in
closed form by each constructor, never estimated: the fluid solver reads a
rate's floor and bound to choose its march and drain step, and bounds its
quadrature slack with the density bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.special import ndtr


class DensityRequiredError(ValueError):
    """Raised when an operation needs a Lipschitz density the law lacks."""


@dataclass(frozen=True)
class ServiceLaw:
    """Distribution of a single service requirement on (0, inf).

    ``pdf`` is None for laws without a density; ``density_lipschitz`` is
    ``inf`` for laws whose density exists but is not Lipschitz.  The fluid
    solver only accepts laws with ``has_lipschitz_density``.
    """

    kind: str
    params: dict
    cdf: Callable = field(repr=False)
    pdf: Optional[Callable] = field(repr=False)
    density_bound: float
    density_lipschitz: float
    mean: float
    _sampler: Callable = field(repr=False)
    atom: Optional[float] = None  # location of the point mass, if any

    def tail(self, x):
        """P(v > x); equals 1 - cdf pointwise."""
        return 1.0 - self.cdf(x)

    @property
    def has_lipschitz_density(self) -> bool:
        return self.pdf is not None and math.isfinite(self.density_lipschitz)

    def require_lipschitz_density(self):
        if not self.has_lipschitz_density:
            raise DensityRequiredError(
                f"service law '{self.kind}' has no Lipschitz density; "
                "density required"
            )

    def tail_geq(self, x):
        """P(v >= x); differs from tail() only at a point mass."""
        if self.atom is None:
            return self.tail(x)
        return np.where(np.asarray(x, dtype=float) <= self.atom, 1.0, 0.0)

    def tail_gt(self, x):
        """P(v > x)."""
        if self.atom is None:
            return self.tail(x)
        return np.where(np.asarray(x, dtype=float) < self.atom, 1.0, 0.0)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        out = self._sampler(rng, size)
        while np.any(out <= 0.0):  # requirements are strictly positive
            bad = out <= 0.0
            out[bad] = self._sampler(rng, int(bad.sum()))
        return out


def make_exponential(rate: float) -> ServiceLaw:
    """Exponential law with the given hazard rate."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    return ServiceLaw(
        kind="exponential",
        params={"rate": rate},
        cdf=lambda x: -np.expm1(-rate * np.maximum(x, 0.0)),
        pdf=lambda x: rate * np.exp(-rate * np.maximum(x, 0.0)),
        density_bound=rate,
        density_lipschitz=rate * rate,
        mean=1.0 / rate,
        _sampler=lambda rng, size: rng.exponential(1.0 / rate, size),
    )


def _lognormal_pdf(x, mu, sigma):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0.0
    xp = x[pos]
    z = (np.log(xp) - mu) / sigma
    out[pos] = np.exp(-0.5 * z * z) / (xp * sigma * math.sqrt(2.0 * math.pi))
    return out if out.ndim else float(out)


def _lognormal_lipschitz(mu: float, sigma: float) -> float:
    # |g'| has closed-form critical points: with u = (log x - mu)/sigma,
    # d/du log|g'| = 0  <=>  (u + 2 sigma)(u + sigma) = 1.
    roots = np.roots([1.0, 3.0 * sigma, 2.0 * sigma * sigma - 1.0])
    sup = 0.0
    for u in roots:
        x = math.exp(mu + sigma * u)
        dens = _lognormal_pdf(np.array([x]), mu, sigma)[0]
        slope = abs(dens / x * (1.0 + u / sigma))
        sup = max(sup, slope)
    return sup


def make_lognormal(mu: float, sigma: float) -> ServiceLaw:
    if sigma <= 0:
        raise ValueError("sigma must be positive")

    def cdf(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        pos = x > 0.0
        out[pos] = ndtr((np.log(x[pos]) - mu) / sigma)
        return out if out.ndim else float(out)

    mode = math.exp(mu - sigma * sigma)
    return ServiceLaw(
        kind="lognormal",
        params={"mu": mu, "sigma": sigma},
        cdf=cdf,
        pdf=lambda x: _lognormal_pdf(x, mu, sigma),
        density_bound=_lognormal_pdf(np.array([mode]), mu, sigma)[0],
        density_lipschitz=_lognormal_lipschitz(mu, sigma),
        mean=math.exp(mu + 0.5 * sigma * sigma),
        _sampler=lambda rng, size: rng.lognormal(mu, sigma, size),
    )


def make_uniform(a: float, b: float) -> ServiceLaw:
    """Uniform on [a, b].  The density has jumps, so the fluid solver
    rejects this law; the simulator accepts it."""
    if not (0.0 <= a < b):
        raise ValueError("need 0 <= a < b")
    width = b - a

    def cdf(x):
        return np.clip((np.asarray(x, dtype=float) - a) / width, 0.0, 1.0)

    def pdf(x):
        x = np.asarray(x, dtype=float)
        out = np.where((x >= a) & (x <= b), 1.0 / width, 0.0)
        return out if out.ndim else float(out)

    return ServiceLaw(
        kind="uniform",
        params={"a": a, "b": b},
        cdf=cdf,
        pdf=pdf,
        density_bound=1.0 / width,
        density_lipschitz=math.inf,
        mean=0.5 * (a + b),
        _sampler=lambda rng, size: rng.uniform(a, b, size),
    )


def make_deterministic(value: float) -> ServiceLaw:
    """Point mass: simulation only, no density at all."""
    if value <= 0:
        raise ValueError("value must be positive")
    return ServiceLaw(
        kind="deterministic",
        params={"value": value},
        cdf=lambda x: np.where(np.asarray(x, dtype=float) >= value, 1.0, 0.0),
        pdf=None,
        density_bound=math.inf,
        density_lipschitz=math.inf,
        mean=value,
        _sampler=lambda rng, size: np.full(size, value),
        atom=value,
    )


SERVICE_KINDS = {
    "exponential": make_exponential,
    "lognormal": make_lognormal,
    "uniform": make_uniform,
    "deterministic": make_deterministic,
}


@dataclass(frozen=True)
class ArrivalLaw:
    """Renewal inter-arrival law at unit scale: gaps have mean 1/rate.

    ``rate == 0`` means no arrivals at all.  The simulator for the n-server
    system divides every gap by n, so the n-th system sees arrival rate
    n * rate.
    """

    kind: str
    rate: float
    _gap_sampler: Optional[Callable] = field(repr=False, default=None)

    def sample_gaps(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.rate == 0.0:
            raise ValueError("arrival rate is zero; no gaps to sample")
        out = self._gap_sampler(rng, size)
        while np.any(out <= 0.0):
            bad = out <= 0.0
            out[bad] = self._gap_sampler(rng, int(bad.sum()))
        return out


def make_arrivals(kind: str, rate: float) -> ArrivalLaw:
    if rate < 0:
        raise ValueError("arrival rate must be >= 0")
    if rate == 0.0:
        return ArrivalLaw(kind=kind, rate=0.0)
    mean = 1.0 / rate
    if kind == "exponential":
        sampler = lambda rng, size: rng.exponential(mean, size)
    elif kind == "deterministic":
        sampler = lambda rng, size: np.full(size, mean)
    elif kind == "uniform":
        sampler = lambda rng, size: rng.uniform(0.0, 2.0 * mean, size)
    else:
        raise ValueError(f"unknown arrival kind '{kind}'")
    return ArrivalLaw(kind=kind, rate=rate, _gap_sampler=sampler)


ARRIVAL_KINDS = ("exponential", "deterministic", "uniform")


@dataclass(frozen=True)
class RateFunction:
    """Bounded Lipschitz per-server work rate as a function of the scaled
    customer count.  ``bound``, the supremum of k, and ``floor``, its
    infimum over x >= 0, are exact, not estimated: the fluid solver marches
    in drain time when the floor is positive."""

    kind: str
    params: dict
    fn: Callable = field(repr=False)
    bound: float
    floor: float

    def __call__(self, x):
        return self.fn(np.maximum(np.asarray(x, dtype=float), 0.0))


def constant_rate(value: float) -> RateFunction:
    if value < 0:
        raise ValueError("rate must be >= 0")
    return RateFunction(
        kind="constant",
        params={"value": value},
        fn=lambda x: np.full_like(np.asarray(x, dtype=float), value),
        bound=value,
        floor=value,
    )


def capped_linear_rate(base: float, slope: float, cap: float) -> RateFunction:
    """min(base + slope * x, cap)."""
    if base < 0 or slope < 0 or cap < 0:
        raise ValueError("capped-linear parameters must be >= 0")
    return RateFunction(
        kind="capped_linear",
        params={"base": base, "slope": slope, "cap": cap},
        fn=lambda x: np.minimum(base + slope * np.asarray(x, dtype=float), cap),
        bound=cap if slope > 0 else min(base, cap),
        floor=min(base, cap),
    )


def table_rate(xs, ks) -> RateFunction:
    """Piecewise-linear rate from a table; flat beyond the last knot.

    The bound is the largest knot value.  The floor is the least value at
    x = 0 or at a knot at or beyond 0, so a flat table has floor == bound,
    like a constant rate.
    """
    xs = np.asarray(xs, dtype=float)
    ks = np.asarray(ks, dtype=float)
    if xs.size < 2 or xs.size != ks.size:
        raise ValueError("table needs at least two knots")
    if np.min(np.diff(xs)) <= 0:
        raise ValueError("table knots must increase strictly")
    if np.min(ks) < 0:
        raise ValueError("table rates must be >= 0")
    return RateFunction(
        kind="table",
        params={"xs": tuple(xs), "ks": tuple(ks)},
        fn=lambda x: np.interp(np.asarray(x, dtype=float), xs, ks),
        bound=float(np.max(ks)),
        floor=float(min(np.interp(0.0, xs, ks), np.min(ks[xs >= 0.0], initial=np.inf))),
    )


def _table_rate_from_knots(knots) -> RateFunction:
    xs, ks = zip(*knots)
    return table_rate(xs, ks)


RATE_KINDS = {
    "constant": constant_rate,
    "capped_linear": capped_linear_rate,
    "table": _table_rate_from_knots,
}
