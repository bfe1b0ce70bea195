"""Numerical verification of the integral embedding conditions.

The central quantity, for a Young function Phi, weight Psi and dimension d,
is the two-part expression at scale s >= 1:

    s^{d-1} / Phi^{-1}(s^d) * int_1^s Psi(t)/t dt
        + int_s^oo Psi(t) s^{d-1} / (Phi^{-1}(t s^{d-1}) t) dt.

Uniform boundedness of this over s is the embedding criterion.  Its d = 2
case under Psi(t) = Phi^{-1}(t^2)/t (``embedding_weight``) is the integral
condition of the Hilbert-factorization result, which
``factorization_integral_condition`` sweeps as exactly that, with no second
spelling.  Every check runs in the log domain (x = ln t), where Psi and Phi
enter only as ln Psi(e^x) and ln Phi^{-1}(e^y).
That keeps near-linear Young functions representable: their second integrals
converge only at astronomically large t (far beyond float range) although
every intermediate quantity is of moderate size.

Truncation control is decade-by-decade with a geometric tail bound; the
boundedness classification regresses the totals against ln s over the top
decade of the s sweep and compares the slope, normalised by the mean level,
against 0.01 (the square-function counterexample grows like ln s and lands
two orders of magnitude above that threshold).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .numerics import Status, integrate_finite_log, integrate_log_improper
from .reports import VerificationReport, worst_of
from .young import YoungFunction

__all__ = [
    "Weight",
    "constant_weight",
    "power_weight",
    "embedding_weight",
    "ConditionEvaluation",
    "embedding_condition_eval",
    "embedding_condition_sup",
    "factorization_integral_condition",
    "weight_domination_check",
    "lorentz_embedding_probe",
]


@dataclass(frozen=True)
class Weight:
    """Increasing continuous weight on [1, oo), known only in the log domain.

    ``log_value(x)`` returns ln Psi(e^x) and must stay finite for x far
    beyond ln(float max); ``log_breaks`` lists kink locations in x where the
    quadrature should split panels.
    """

    name: str
    log_value: Callable = field(repr=False)
    log_breaks: tuple[float, ...] = ()


def constant_weight() -> Weight:
    return Weight("const(1)", lambda x: np.zeros_like(x, dtype=float))


def power_weight(theta: float) -> Weight:
    return Weight(f"power({theta:g})",
                  lambda x: theta * np.asarray(x, dtype=float))


def embedding_weight(phi: YoungFunction) -> Weight:
    """Psi(t) = Phi^{-1}(t^2) / t, the substitution that turns the
    factorization integral condition into the embedding condition."""
    def log_value(x):
        x = np.asarray(x, dtype=float)
        return phi.log_inverse(2.0 * x) - x

    breaks = tuple(b / 2.0 for b in phi.log_inverse_breaks)
    return Weight(f"inv2/t[{phi.kind}]", log_value, breaks)


@dataclass
class ConditionEvaluation:
    """Both terms of the embedding expression at one scale s.

    ``tail_bound`` estimates the dropped tail of the improper second
    integral (geometric extrapolation of the last decade); ``status`` is the
    second integral's: truncated means the decade budget ran out before the
    tail fell below 1e-6 of the total, divergent that the integrand failed
    the decade decay test.
    """

    s: float
    first_term: float
    second_term: float
    tail_bound: float
    total: float
    status: Status
    log10_t_reached: float

    @property
    def truncated(self) -> bool:
        return self.status is Status.TRUNCATED

    @property
    def divergent(self) -> bool:
        return self.status is Status.DIVERGENT


def _evaluate(phi: YoungFunction, psi: Weight, d: int, s: float,
              nodes: int) -> ConditionEvaluation:
    """``embedding_condition_eval``, called directly by the factor sweep."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if not 1.0 <= s < math.inf:
        raise ValueError("scale s must be >= 1")
    sigma = math.log(s)
    shift = (d - 1) * sigma
    pref = math.exp(shift - float(phi.log_inverse(d * sigma)))
    first = pref * integrate_finite_log(psi.log_value, 0.0, sigma, nodes=nodes,
                                        breakpoints=psi.log_breaks)

    def log_integrand(x):
        return psi.log_value(x) + shift - phi.log_inverse(x + shift)

    breaks = (*psi.log_breaks, *(b - shift for b in phi.log_inverse_breaks))
    second = integrate_log_improper(log_integrand, sigma, nodes=nodes,
                                    breakpoints=breaks)
    return ConditionEvaluation(
        s=s, first_term=first, second_term=second.value,
        tail_bound=second.tail_bound, total=first + second.value,
        status=second.status, log10_t_reached=second.x_end / math.log(10.0))


def embedding_condition_eval(phi: YoungFunction, psi: Weight, d: int,
                             s: float, *, nodes: int = 64
                             ) -> ConditionEvaluation:
    """Both terms of the embedding expression at a finite scale s >= 1.

    ``nodes`` is the Gauss-Legendre order of every panel; the second term
    marches at most 2600 decades.
    """
    return _evaluate(phi, psi, d, s, nodes)


def _sweep(check_id: str, inputs: dict, s_grid: Sequence[float],
           evaluate: Callable[[float], ConditionEvaluation]
           ) -> VerificationReport:
    """Classify ``evaluate`` over the sorted grid, each scale checked first,
    as ``embedding_condition_sup`` states."""
    s_grid = sorted(float(s) for s in s_grid)
    if not s_grid:
        raise ValueError("s grid must be nonempty")
    if not all(1.0 <= s < math.inf for s in s_grid):
        raise ValueError("scale s must be >= 1")
    evals = [evaluate(s) for s in s_grid]
    totals = np.array([e.total for e in evals])
    svals = np.array(s_grid)
    i = int(np.argmax(totals))
    sup_value, witness = float(totals[i]), float(svals[i])
    top = svals >= svals[-1] / 10.0
    if np.count_nonzero(top) >= 2:
        y = totals[top]
        slope = float(np.polyfit(np.log(svals[top]), y, 1)[0])
        rel = slope / max(float(np.mean(y)), 1e-300)
    else:
        slope, rel = 0.0, 0.0
    diverged = any(e.status is Status.DIVERGENT for e in evals)
    bounded = (not diverged) and abs(rel) < 0.01
    return VerificationReport(
        check_id=check_id, passed=bounded,
        margin=-math.inf if diverged else 0.01 - abs(rel), witness=witness,
        quantities={"sup_value": sup_value, "witness_s": witness,
                    "bounded": bounded, "slope": slope,
                    "relative_slope": rel,
                    "status": max((e.status for e in evals),
                                  key=list(Status).index),
                    "evaluations": evals},
        inputs={**inputs, "s_grid": s_grid},
        tolerance="|relative slope| < 0.01 and no divergent evaluation")


def embedding_condition_sup(phi: YoungFunction, psi: Weight, d: int,
                            s_grid: Sequence[float]) -> VerificationReport:
    """Max of the embedding expression over an s grid, with classification.

    The sweep is ``bounded`` (and passes) when no evaluation diverged and
    the level-normalised regression slope of total against ln s over the
    top decade of the grid stays below 0.01 in absolute value; the margin
    is 0.01 - |relative_slope|, or -inf after a divergent evaluation, and
    the witness is the s of the largest total, ``witness_s``.  ``status``
    is the worst status among the evaluations; a truncated one leaves
    ``bounded`` as it is, but says that its total, and so the sup, may be
    short.
    """
    return _sweep("embedding-condition-sup",
                  {"phi": repr(phi), "psi": psi.name, "d": d}, s_grid,
                  lambda s: embedding_condition_eval(phi, psi, d, s))


def factorization_integral_condition(phi: YoungFunction,
                                     s_grid: Sequence[float]
                                     ) -> VerificationReport:
    """The integral condition of the Hilbert-factorization result:

        s/Phi^{-1}(s^2) * int_1^s Phi^{-1}(t^2)/t^2 dt
            + int_s^oo Phi^{-1}(t^2) s / (t^2 Phi^{-1}(t s)) dt < C.

    It is the embedding expression at d = 2 under ``embedding_weight``,
    Psi(t) = Phi^{-1}(t^2)/t, swept as ``embedding_condition_sup`` sweeps;
    only an oracle can check it independently of that sweep.
    """
    psi = embedding_weight(phi)
    return _sweep("factorization-integral-condition", {"phi": repr(phi)},
                  s_grid, lambda s: _evaluate(phi, psi, 2, s, 64))


def weight_domination_check(phi: YoungFunction, psi: Weight,
                            t_grid: Sequence[float]) -> VerificationReport:
    """1/t <= Psi(t) / Phi^{-1}(t^2) over a positive grid.

    The primary margin is dimensionless: min of t * Psi(t)/Phi^{-1}(t^2) - 1,
    taken as expm1(ln Psi(e^x) - ln Phi^{-1}(e^{2x}) + x) at x = ln t; the
    raw difference Psi(t)/Phi^{-1}(t^2) - 1/t, that margin over t, is echoed
    in the quantities.
    """
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1:
        raise ValueError("t grid must be 1-D")
    if t.size == 0:
        raise ValueError("t grid must be nonempty")
    if not np.all((0 < t) & (t < np.inf)):
        raise ValueError("t grid must be positive")
    x = np.log(t)
    margins = np.expm1(psi.log_value(x) - phi.log_inverse(2.0 * x) + x)
    return worst_of(
        "weight-domination", margins, t, 1e-9,
        quantities={"min_raw_margin": float(np.min(margins / t))},
        inputs={"phi": repr(phi), "psi": psi.name, "grid_size": int(t.size)},
        tolerance="t Psi(t)/Phi^{-1}(t^2) - 1 >= -1e-9")


def lorentz_embedding_probe(phi: YoungFunction, d: int,
                            t_grid: Sequence[float]) -> VerificationReport:
    """Informative probe of Phi(t) <= t^{d/(d-1)} + 1 on a grid.

    This pointwise bound is sufficient (not equivalent) for the background
    hypothesis L_{d/(d-1)} -> L_Phi; it is reported but never gates a check.
    """
    if d < 2:
        raise ValueError("the probe needs dimension >= 2")
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1:
        raise ValueError("t grid must be 1-D")
    if t.size == 0 or not np.all((0 <= t) & (t < np.inf)):
        raise ValueError("t grid must be nonempty, finite and >= 0")
    return worst_of(
        "lorentz-embedding-probe", t ** (d / (d - 1.0)) + 1.0 - phi(t), t, 0.0,
        quantities={"informative_only": True},
        inputs={"phi": repr(phi), "d": d, "grid_size": int(t.size)},
        tolerance="t^{d/(d-1)} + 1 - Phi(t) >= 0")
