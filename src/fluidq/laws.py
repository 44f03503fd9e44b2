"""Service, inter-arrival and service-rate primitives.

A :class:`ServiceLaw` bundles exactly the analytic data the fluid equations
consume (tail, density with its sup and Lipschitz constant) with a
seedable sampler for the event-driven simulator.  Each law and each rate
kind states its formula once, in its constructor; the scenario module's
law table maps the kind names of a scenario file to these constructors.
Constants are supplied in closed form by each constructor, never
estimated: the fluid solver reads a rate's floor and bound to choose its
march and drain step, and bounds its quadrature slack with the density
bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np


class DensityRequiredError(ValueError):
    """Raised when an operation needs a Lipschitz density the law lacks."""


def _positive(sampler: Callable, rng: np.random.Generator, size: int) -> np.ndarray:
    """``sampler(rng, size)``, each value <= 0 drawn again until all are
    positive: requirements and gaps are strictly positive."""
    out = sampler(rng, size)
    while np.any(out <= 0.0):
        bad = out <= 0.0
        out[bad] = sampler(rng, int(bad.sum()))
    return out


@dataclass(frozen=True)
class ServiceLaw:
    """Distribution of a single service requirement on (0, inf).

    ``tail`` is P(v > x).  ``pdf`` is None for laws without a density;
    ``density_lipschitz`` is ``inf`` for laws whose density exists but is
    not Lipschitz.  The fluid solver only accepts laws with
    ``has_lipschitz_density``.
    """

    kind: str
    params: dict
    tail: Callable = field(repr=False)
    pdf: Optional[Callable] = field(repr=False)
    density_bound: float
    density_lipschitz: float
    mean: float
    _sampler: Callable = field(repr=False)
    atom: Optional[float] = None  # location of the point mass, if any
    _tail_and_pdf: Optional[Callable] = field(repr=False, default=None)

    def tail_and_pdf(self, x):
        """``(tail(x), pdf(x))``, the same floats as the two calls; a law
        with a shared first step (the lognormal's log) takes it once."""
        if self._tail_and_pdf is not None:
            return self._tail_and_pdf(x)
        return self.tail(x), self.pdf(x)

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

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return _positive(self._sampler, rng, size)


def make_exponential(rate: float) -> ServiceLaw:
    """Exponential law with the given hazard rate."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    return ServiceLaw(
        kind="exponential",
        params={"rate": rate},
        tail=lambda x: 1.0 - (-np.expm1(-rate * np.maximum(x, 0.0))),
        pdf=lambda x: rate * np.exp(-rate * np.maximum(x, 0.0)),
        density_bound=rate,
        density_lipschitz=rate * rate,
        mean=1.0 / rate,
        _sampler=lambda rng, size: rng.exponential(1.0 / rate, size),
    )


def _lognormal_lipschitz(mu: float, sigma: float, pdf: Callable) -> float:
    # |g'| has closed-form critical points: with u = (log x - mu)/sigma,
    # d/du log|g'| = 0  <=>  (u + 2 sigma)(u + sigma) = 1.
    roots = np.roots([1.0, 3.0 * sigma, 2.0 * sigma * sigma - 1.0])
    sup = 0.0
    for u in roots:
        x = math.exp(mu + sigma * u)
        dens = pdf(np.array([x]))[0]
        slope = abs(dens / x * (1.0 + u / sigma))
        sup = max(sup, slope)
    return sup


def make_lognormal(mu: float, sigma: float) -> ServiceLaw:
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    # the constants below are exponentials of at most 2|mu| + 2 sigma^2 +
    # 2|log sigma| + 2 in magnitude; a float overflows past exp(709.78)
    if not 2.0 * (abs(mu) + sigma * sigma + abs(math.log(sigma)) + 1.0) <= 709.0:
        raise ValueError(f"lognormal mu={mu!r} sigma={sigma!r}: its mean or density constants overflow")
    from scipy.special import ndtr  # scipy is imported only for this law

    def tail_and_pdf(x, density=True):
        # All elements go through one log and one z.  The elements with
        # x <= 0 or NaN are set afterwards, and only they may trip the log
        # or divide by zero, so the caller's errstate still sees the rest.
        # Without ``density`` the pair is the tail alone: the density's
        # denominator x * sigma may overflow where the tail cannot.
        shape = np.shape(x)
        x = np.ascontiguousarray(x, dtype=float)
        off = ~(x > 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.log(x)
        z -= mu
        z /= sigma
        tail = ndtr(z)
        np.subtract(1.0, tail, out=tail)
        tail[off] = 1.0
        out = (tail,)
        if density:
            pdf = np.multiply(-0.5, z)
            pdf *= z
            np.exp(pdf, out=pdf)
            den = np.multiply(x, sigma, out=z)
            den *= math.sqrt(2.0 * math.pi)
            den[off] = 1.0
            pdf /= den
            pdf[off] = 0.0
            out += (pdf,)
        if shape == ():
            return tuple(float(a[0]) for a in out)
        return tuple(a.reshape(shape) for a in out)

    pdf = lambda x: tail_and_pdf(x)[1]
    mode = math.exp(mu - sigma * sigma)
    return ServiceLaw(
        kind="lognormal",
        params={"mu": mu, "sigma": sigma},
        tail=lambda x: tail_and_pdf(x, density=False)[0],
        pdf=pdf,
        density_bound=pdf(np.array([mode]))[0],
        density_lipschitz=_lognormal_lipschitz(mu, sigma, pdf),
        mean=math.exp(mu + 0.5 * sigma * sigma),
        _sampler=lambda rng, size: rng.lognormal(mu, sigma, size),
        _tail_and_pdf=tail_and_pdf,
    )


def make_uniform(a: float, b: float) -> ServiceLaw:
    """Uniform on [a, b].  The density has jumps, so the fluid solver
    rejects this law; the simulator accepts it."""
    if not (0.0 <= a < b):
        raise ValueError("need 0 <= a < b")
    width = b - a

    def pdf(x):
        x = np.asarray(x, dtype=float)
        out = np.where((x >= a) & (x <= b), 1.0 / width, 0.0)
        return out if out.ndim else float(out)

    return ServiceLaw(
        kind="uniform",
        params={"a": a, "b": b},
        tail=lambda x: 1.0 - np.clip((np.asarray(x, dtype=float) - a) / width, 0.0, 1.0),
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
        tail=lambda x: 1.0 - np.where(np.asarray(x, dtype=float) >= value, 1.0, 0.0),
        pdf=None,
        density_bound=math.inf,
        density_lipschitz=math.inf,
        mean=value,
        _sampler=lambda rng, size: np.full(size, value),
        atom=value,
    )


# Gap samplers at unit scale, keyed by arrival kind: (rng, mean, size) ->
# gaps with the given mean.
ARRIVAL_KINDS = {
    "exponential": lambda rng, mean, size: rng.exponential(mean, size),
    "deterministic": lambda rng, mean, size: np.full(size, mean),
    "uniform": lambda rng, mean, size: rng.uniform(0.0, 2.0 * mean, size),
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

    def sample_gaps(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.rate == 0.0:
            raise ValueError("arrival rate is zero; no gaps to sample")
        gaps, mean = ARRIVAL_KINDS[self.kind], 1.0 / self.rate
        return _positive(lambda r, k: gaps(r, mean, k), rng, size)


def make_arrivals(kind: str, rate: float) -> ArrivalLaw:
    if rate < 0:
        raise ValueError("arrival rate must be >= 0")
    if rate == 0.0:
        return ArrivalLaw(kind=kind, rate=0.0)
    if kind not in ARRIVAL_KINDS:
        raise ValueError(f"unknown arrival kind '{kind}'")
    return ArrivalLaw(kind=kind, rate=rate)


@dataclass(frozen=True)
class RateFunction:
    """Bounded Lipschitz per-server work rate as a function of the scaled
    customer count.  ``bound``, the supremum of k, and ``floor``, its
    infimum over x >= 0, are exact, not estimated: the fluid solver marches
    in drain time when the floor is positive.

    ``scalar`` is the kind's one formula: it maps one count, a float
    already clipped at 0, to a float.  Calling the function clips the
    count and applies ``scalar`` to each element of an array."""

    kind: str
    params: dict
    bound: float
    floor: float
    scalar: Callable = field(repr=False)

    def __call__(self, x):
        """k(max(x, 0)); a float for a float, an array otherwise."""
        if isinstance(x, float):
            # np.maximum's clip: NaN stays NaN, -0.0 becomes 0.0
            return self.scalar(0.0 if x <= 0.0 else float(x))
        x = np.maximum(np.asarray(x, dtype=float), 0.0)
        return np.fromiter(map(self.scalar, x.ravel().tolist()), float, x.size).reshape(x.shape)


def constant_rate(value: float) -> RateFunction:
    if value < 0:
        raise ValueError("rate must be >= 0")
    return RateFunction(
        kind="constant",
        params={"value": value},
        bound=value,
        floor=value,
        scalar=lambda x: float(value),
    )


def capped_linear_rate(base: float, slope: float, cap: float) -> RateFunction:
    """min(base + slope * x, cap)."""
    if base < 0 or slope < 0 or cap < 0:
        raise ValueError("capped-linear parameters must be >= 0")
    return RateFunction(
        kind="capped_linear",
        params={"base": base, "slope": slope, "cap": cap},
        bound=cap if slope > 0 else min(base, cap),
        floor=min(base, cap),
        scalar=lambda x: float(min(base + slope * x, cap)),
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
    k = lambda x: float(np.interp(x, xs, ks))
    return RateFunction(
        kind="table",
        params={"xs": tuple(xs), "ks": tuple(ks)},
        bound=float(np.max(ks)),
        floor=min(k(0.0), float(np.min(ks[xs >= 0.0], initial=np.inf))),
        scalar=k,
    )
