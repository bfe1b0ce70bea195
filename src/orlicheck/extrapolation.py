"""Weighted extrapolation of sequence-norm bounds into log-refined Orlicz
classes, and the summing-norm profile of the Sobolev embedding.

The extrapolation engine takes a family of bounds ||x||_p^p <= f(p) on a
right neighbourhood (q, q+eps) of an endpoint q, integrable against the
weight (p-q)^alpha with alpha > -1, and certifies membership of x in the
sequence Orlicz class of Phi(x) = x^q / |ln x|^{alpha+1}.  The quantitative
chain is verified literally: after normalising x below 1/2 and bucketing the
entries by reciprocal integer intervals,

    gamma(alpha+1, eps*ln 2) * sum_n #K_n n^{-q} (ln n)^{-(alpha+1)}
        <= int_q^{q+eps} f(p) (p-q)^alpha dp,

where gamma is the lower incomplete gamma function.

For the Sobolev embedding of smoothness k and integrability p on the
d-torus, the summing-norm profile is pi_{v,1} <= K (v - p0)^{1-2/p} on
(p0, 2) with p0 = max(2d/(2k+d), p) and K normalised to 1; the admissible
logarithm exponent of the target Orlicz class is gamma > p0(2/p - 1), and
the profile integral converges exactly for alpha above gamma_min - 1.

Both endpoint integrals are taken in the offset variable x = -ln(v - q), in
which the weighted integrand is exp(k log f(q + e^{-x}) - (alpha+1) x) on
[-ln eps, oo); ``numerics.integrate_log_improper`` marches it by decades and
classifies it.  A power-law bound is exponential in x, so its geometric tail
is exact, and no offset v - q is ever formed, so none rounds away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .numerics import ImproperIntegral, Status, integrate_log_improper
from .reports import VerificationReport, worst_of
from .young import YoungFunction, make_logpower

__all__ = [
    "BoundProfile",
    "BucketDecomposition",
    "bucket",
    "weighted_integral",
    "HypothesisError",
    "verify_extrapolation_chain",
    "sobolev_profile",
    "admissible_gamma",
    "SummingResult",
    "summing_criterion",
]


@dataclass(frozen=True)
class BoundProfile:
    """Upper bound f, finite on the open interval (q, q+eps), in log form.

    ``log_fn(x) = ln f(q + e^{-x})`` for x > -ln eps, vectorised over arrays
    of x; x is the offset variable -ln(v - q), so the endpoint q is x -> oo.
    """

    q: float
    eps: float
    log_fn: Callable[[np.ndarray], np.ndarray]


@dataclass
class BucketDecomposition:
    """Counts of normalised entries by reciprocal intervals [1/n, 1/(n-1)).

    Entries are scaled (never up) so the maximum sits strictly below 1/2,
    keeping every nonzero entry in a bucket with n >= 3; zero entries are
    dropped.  An entry e goes to bucket ceil(1/e), 1/e rounded to a float:
    1/3 lands in bucket 3, but 1/49 in 50, as 1/(1/49) = 49.00000000000001.
    """

    counts: dict[int, int]
    scale: float
    entries: np.ndarray

    def sum_power(self, exponent_fn: Callable[[np.ndarray], np.ndarray]) -> float:
        ns = np.array(sorted(self.counts))
        cs = np.array([self.counts[int(n)] for n in ns], dtype=float)
        return float(np.sum(cs * exponent_fn(ns.astype(float))))


def bucket(x) -> BucketDecomposition:
    """Normalise a nonnegative sequence below 1/2 and bucket it.

    The scale is min(1, (1/2 - 1e-12)/max(x)); sequences already below the
    threshold are left untouched.  An entry that is negative or not finite
    raises ValueError.
    """
    a = np.asarray(x, dtype=float).ravel()
    bad = np.flatnonzero(~np.isfinite(a))
    if bad.size:
        raise ValueError(f"sequence entry {bad[0]} is {a[bad[0]]}, not finite")
    if np.any(a < 0):
        raise ValueError("bucket entries must be >= 0")
    a = a[a > 0]
    if a.size == 0:
        return BucketDecomposition({}, 1.0, a)
    m = float(np.max(a))
    limit = 0.5 - 1e-12
    scale = 1.0 if m <= limit else limit / m
    e = a * scale
    ns, cs = np.unique(np.ceil(1.0 / e).astype(int), return_counts=True)
    return BucketDecomposition(dict(zip(ns.tolist(), cs.tolist())), scale, e)


def _endpoint_integral(profile: BoundProfile, alpha: float,
                       power: Callable[[np.ndarray], np.ndarray | float]
                       ) -> ImproperIntegral:
    """int_{x0}^oo exp(power(x) log_fn(x) - (alpha+1) x) dx, x0 = -ln eps,
    valued as in ``weighted_integral``."""
    if not -1.0 < alpha < math.inf:
        raise ValueError(
            f"weight exponent alpha must be finite and > -1, not {alpha}")
    a1 = alpha + 1.0
    r = integrate_log_improper(
        lambda x: power(x) * profile.log_fn(x) - a1 * x, -math.log(profile.eps))
    if r.status is Status.CONVERGED:
        return replace(r, value=r.value + r.tail_bound)
    if r.status is Status.DIVERGENT:
        return replace(r, value=math.inf)
    return r


def weighted_integral(profile: BoundProfile, alpha: float) -> ImproperIntegral:
    """int_q^{q+eps} f(p) (p-q)^alpha dp for alpha > -1.

    In x = -ln(p-q) this is int exp(ln f - (alpha+1) x) dx over
    [-ln eps, oo), marched by ``integrate_log_improper``, whose result is
    returned with its value set by its status: converged is valued with the
    geometric tail added; divergent (decades stop decaying) is valued inf;
    truncated (decade budget spent) keeps the partial sum, a lower bound.
    An alpha that is not a finite number > -1, or a NaN integrand, raises
    ValueError.  A bound f ~ (p-q)^{-beta} has its borderline at
    alpha = beta - 1, where the march says divergent.
    """
    return _endpoint_integral(profile, alpha, lambda x: 1.0)


class HypothesisError(ValueError):
    """The claimed bound ||x||_p^p <= f(p) fails at some grid point."""

    def __init__(self, p: float, lhs: float, rhs: float):
        self.witness = p
        super().__init__(
            f"||x||_p^p = {lhs:.6g} exceeds f(p) = {rhs:.6g} at p = {p:.6g}")


def verify_extrapolation_chain(x, profile: BoundProfile,
                               alpha: float) -> VerificationReport:
    """Quantitative extrapolation chain for ||x||_p^p <= f(p) on (q, q+eps),
    with q, eps and f given by ``profile``.

    Rejects an entry of x that is not finite as ``bucket`` does, then asserts
    the hypothesis on 33 points p = q + eps*(1e-6 .. 1), evaluating f(p) as
    exp(profile.log_fn(-ln(p - q))) from the offsets themselves (raising
    HypothesisError with a witness where it fails, and ValueError where f
    is NaN), then checks

        gamma(alpha+1, eps ln 2) * sum_n #K_n n^{-q} (ln n)^{-(alpha+1)}
            <= int_q^{q+eps} f(p)(p-q)^alpha dp

    on the bucket decomposition of the normalised sequence, and reports the
    resulting Orlicz modular sum Phi(x_k) for Phi(x) = x^q/|ln x|^{alpha+1}.
    The margin is the integral less the chain lhs, with slack 1e-9
    max(integral, 1); a divergent integral is inf, and so is its margin.

    The bound enters only in log form, so one that blows up at q is
    integrated as it is, and no offset p - q rounds away.  The gamma factor
    is the same march on f(t) = e^{-t} over (0, eps ln 2), and ValueError is
    raised if it does not converge (alpha + 1 too small for the decade
    budget).
    """
    q, eps = profile.q, profile.eps
    a = np.abs(np.asarray(x, dtype=float).ravel())
    dec = bucket(a)     # rejects an entry that is not finite
    offsets = np.linspace(eps * 1e-6, eps, 33)
    bounds = np.broadcast_to(np.exp(profile.log_fn(-np.log(offsets))),
                             offsets.shape)
    for p, rhs in zip((q + offsets).tolist(), bounds.tolist()):
        lhs = float(np.sum(a[a > 0] ** p))
        if math.isnan(rhs):
            raise ValueError(f"bound f(p) is NaN at p = {p:.6g}")
        if lhs > rhs * (1.0 + 1e-12):
            raise HypothesisError(p, lhs, rhs)

    a1 = alpha + 1.0
    gamma = weighted_integral(
        BoundProfile(0.0, eps * math.log(2.0), lambda x: -np.exp(-x)), alpha)
    if gamma.status is not Status.CONVERGED:
        raise ValueError(f"gamma({a1:g}, eps ln 2) is {gamma.status.value}")
    gamma_factor = gamma.value
    bucket_sum = dec.sum_power(
        lambda n: n ** (-q) * np.log(n) ** (-a1))
    lhs_chain = gamma_factor * bucket_sum

    rhs_chain = weighted_integral(profile, alpha)

    phi = make_logpower(max(q, 1.0), a1) if q >= 1.0 else None
    modular = float(np.sum(phi(dec.entries))) if phi is not None else math.nan

    return worst_of(
        "extrapolation-chain", [rhs_chain.value - lhs_chain], None,
        1e-9 * max(rhs_chain.value, 1.0),
        quantities={"gamma_factor": gamma_factor, "bucket_sum": bucket_sum,
                    "chain_lhs": lhs_chain,
                    "weighted_integral": rhs_chain.value,
                    "integral_status": rhs_chain.status,
                    "orlicz_modular": modular},
        inputs={"q": q, "eps": eps, "alpha": alpha, "n_entries": int(a.size),
                "scale": dec.scale},
        tolerance="chain lhs <= weighted integral, 1e-9 relative",
    )


def sobolev_profile(d: int, k: int, p: float) -> BoundProfile:
    """Summing-norm profile of the Sobolev embedding on the d-torus.

    The bound is v -> (v - p0)^{1-2/p} on (p0, 2), p0 = max(2d/(2k+d), p),
    with the constant normalised to 1; its log in x = -ln(v - p0) is the
    closed form -(1 - 2/p) x.
    Parameter constraints: d >= 2, 1 <= k <= d-1, 1 <= p < 2 and p < d/k.
    """
    if not (isinstance(d, int) and d >= 2):
        raise ValueError("dimension d must be an integer >= 2")
    if not (isinstance(k, int) and 1 <= k <= d - 1):
        raise ValueError("smoothness k must be an integer in [1, d-1]")
    if not (1.0 <= p < 2.0):
        raise ValueError("integrability p must lie in [1, 2)")
    if not p < d / k:
        raise ValueError("requires p < d/k")
    p0 = max(2.0 * d / (2.0 * k + d), float(p))
    expo = 1.0 - 2.0 / p
    return BoundProfile(q=p0, eps=2.0 - p0, log_fn=lambda x: -expo * x)


def admissible_gamma(d: int, k: int, p: float) -> tuple[float, float]:
    """Endpoint p0 and the least admissible log exponent gamma_min.

    gamma_min = p0 (2/p - 1): the profile integral with weight
    (v-p0)^alpha converges exactly for alpha > gamma_min - 1.
    """
    profile = sobolev_profile(d, k, p)
    p0 = profile.q
    return p0, p0 * (2.0 / p - 1.0)


@dataclass
class SummingResult:
    """Profile integral with the induced Orlicz target."""

    value: float | None
    status: Status
    target: YoungFunction | None


def summing_criterion(profile: BoundProfile, alpha: float) -> SummingResult:
    """int_{q}^{q+eps} f(v)^v (v-q)^alpha dv with its induced Orlicz target.

    A finite value certifies membership in the (Phi, 1)-summing class for
    Phi(x) = x^q / |ln x|^{alpha+1}; the returned handle is the matching
    logpower Young function (constructible when q >= 1).  An alpha that
    is not a finite number > -1 raises ValueError.  The integral is taken
    in x = -ln(v-q) as in ``weighted_integral``, with
    f^v = exp((q + e^{-x}) ln f): converged
    gives the value, divergent and truncated (decade budget spent) give
    None.  For ``sobolev_profile`` the borderline is alpha = gamma_min - 1,
    where the integrand tends to 1 and the march reports divergent.
    """
    q = profile.q
    res = _endpoint_integral(profile, alpha, lambda x: q + np.exp(-x))
    target = make_logpower(q, alpha + 1.0) if q >= 1.0 else None
    value = res.value if res.status is Status.CONVERGED else None
    return SummingResult(value, res.status, target)
