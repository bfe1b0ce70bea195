"""Inputs, operations and correctness gate of the four benchmark workloads.

A workload is built once per process (``build``), then run pass after pass.
One pass is a fixed list of tasks; a task returns one ``Record`` per
operation it performed.  An operation is one check, or one scale evaluation
of the embedding sweep.  ``gate`` then marks every record that failed:

* ``status``: the program itself reported that it could not deliver a
  bounded result (truncated or divergent improper integral);
* ``wrong``: the result broke an invariant that holds for every seed, or it
  differs from the stored reference (default seed only) by more than the
  stated accuracy of the routine that computed it;
* ``error``: the operation raised.

Everything it calls in ``orlicheck`` is public API.
"""

from __future__ import annotations

import math
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable

import numpy as np

from orlicheck import besov, conditions, sampling, trig, young

S_GRID = np.geomspace(1.0, 1e6, 25)
EMBED_ALPHAS = (0.01, 0.05, 0.13)
FACTOR_ALPHA = 0.13
SECTION7_ALPHA = 0.05
# Two degree-3 polynomials per degree-8 one keep the pooled median inside
# the degree-3 checks and the 90th percentile inside the degree-8 ones.
SANDWICH_POLYS = ((3, 0), (3, 1), (8, 0))   # (degree, index)
SANDWICH_T = np.geomspace(1.0, 2.0 ** 15, 90)
FRAME_LEVELS = (3, 4, 5, 6)
POLYS_PER_LEVEL = 2
L1_LEVELS = (5, 6)
L1_BOUND = 18.0

# Relative tolerances against the stored reference, tied to the accuracy
# each routine states for itself.
TOL_PARSEVAL = 1e-12     # Phi = t^2: exact coefficient sums, only rounding
TOL_EMBED = 1e-9         # embedding / factorization totals (tier-1 tolerance)
TOL_LUX_SEQ = 1e-10      # norm_seq: Brent root with rtol 1e-13
TOL_QUADRATURE = 1e-5    # poly_norm / poly_l1: grid quadrature saturates here
# Quadrature slack for the triangle bound modulus <= 2 * ||f||.
SLACK_TRIANGLE = 1e-4


@dataclass
class Record:
    """One operation: its time, the quantities it returned and its failures."""

    key: str
    seconds: float
    quantities: dict = field(default_factory=dict)
    error: str | None = None
    status: list = field(default_factory=list)
    wrong: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.error or self.status or self.wrong)

    @property
    def incorrect(self) -> bool:
        return bool(self.error or self.wrong)


class Untraced:
    """Tracer stand-in for untraced passes: no spans, Young functions as is."""

    def span(self, name: str):
        return nullcontext()

    def young(self, phi):
        return phi


def _timed(key: str, fn: Callable[[], Any],
           quantities: Callable[[Any], dict]) -> Record:
    t0 = time.perf_counter()
    try:
        out = fn()
    except Exception as exc:  # an operation that raises is a failed operation
        return Record(key, time.perf_counter() - t0,
                      error=f"{type(exc).__name__}: {exc}")
    rec = Record(key, time.perf_counter() - t0)
    rec.quantities = quantities(out)
    return rec


def _check(tr, span: str, key: str, fn: Callable[[], Any],
           quantities: Callable[[Any], dict]) -> list[Record]:
    """A task of one operation, inside a span named after its layer."""
    with tr.span(span):
        return [_timed(key, fn, quantities)]


def random_poly2(degree: int, rng: np.random.Generator) -> trig.TrigPoly:
    """Full-box 2-D polynomial with complex Gaussian coefficients."""
    return trig.TrigPoly(2, {(k, l): complex(*rng.standard_normal(2))
                             for k in range(-degree, degree + 1)
                             for l in range(-degree, degree + 1)})


def _sqrt_weight(t: float) -> float:
    return t ** 0.5


def _finite(rec: Record) -> None:
    bad = [k for k, v in rec.quantities.items()
           if not all(math.isfinite(x) for x in np.ravel(v))]
    if bad:
        rec.wrong.append("non-finite " + ", ".join(bad))


# ---------------------------------------------------------------------------
# embed_sweep
# ---------------------------------------------------------------------------

def _build_embed(seed: int, tr) -> dict:
    alphas = list(EMBED_ALPHAS)
    np.random.default_rng(seed).shuffle(alphas)   # the seed orders the sweeps
    return {"order": alphas,
            "phis": {a: young.make_section7(a) for a in EMBED_ALPHAS}}


def _eval_quantities(ev) -> dict:
    return {"total": float(ev.total), "first": float(ev.first_term),
            "second": float(ev.second_term),
            "truncated": bool(ev.truncated), "divergent": bool(ev.divergent),
            "log10_t_reached": float(ev.log10_t_reached)}


def _sweep(alpha: float, phi) -> list[Record]:
    """embedding_condition_sup over S_GRID, timed per scale evaluation.

    The sweep calls ``conditions.embedding_condition_eval`` once per scale;
    that module attribute is swapped for a timer for the sweep's duration.
    """
    psi = conditions.embedding_weight(phi)
    records: list[Record] = []
    inner = conditions.embedding_condition_eval

    def timed_eval(*args, **kwargs):
        key = f"embed/a{alpha:g}/s{len(records):02d}"
        t0 = time.perf_counter()
        try:
            ev = inner(*args, **kwargs)
        except Exception as exc:
            records.append(Record(key, time.perf_counter() - t0,
                                  error=f"{type(exc).__name__}: {exc}"))
            raise
        records.append(Record(key, time.perf_counter() - t0,
                              _eval_quantities(ev)))
        return ev

    conditions.embedding_condition_eval = timed_eval
    try:
        scan = conditions.embedding_condition_sup(phi, psi, 2, S_GRID)
    except Exception as exc:
        if not (records and records[-1].error):   # raised outside an eval
            records.append(Record(f"embed/a{alpha:g}/sweep", 0.0,
                                  error=f"{type(exc).__name__}: {exc}"))
        return records
    finally:
        conditions.embedding_condition_eval = inner
    if not scan.bounded:
        for rec in records:
            rec.wrong.append(f"sweep at alpha={alpha:g} classified divergent")
    return records


def _factorization(phi, tr) -> list[Record]:
    out = []
    for i, s in enumerate(S_GRID):
        out += _check(tr, "conditions.eval",
                      f"factor/a{FACTOR_ALPHA:g}/s{i:02d}",
                      partial(conditions.factorization_integral_condition,
                              phi, [float(s)]),
                      lambda scan: _eval_quantities(scan.evaluations[0]))
    return out


def _tasks_embed(inp: dict, tr) -> list[Callable[[], list[Record]]]:
    phis = {a: tr.young(phi) for a, phi in inp["phis"].items()}
    tasks = [partial(_sweep, a, phis[a]) for a in inp["order"]]
    tasks.append(partial(_factorization, phis[FACTOR_ALPHA], tr))
    return tasks


def _check_embed(rec: Record, by_key: dict) -> None:
    q = rec.quantities
    if q["truncated"]:
        rec.status.append(f"truncated at log10 t = {q['log10_t_reached']:.0f}")
    if q["divergent"]:
        rec.status.append("divergent where a bounded value is expected")
    twin = by_key.get(rec.key.replace("factor/", "embed/", 1))
    if rec.key.startswith("factor/") and twin and not twin.error:
        a, b = q["total"], twin.quantities["total"]
        if not abs(a - b) <= TOL_EMBED * abs(b):
            rec.wrong.append(f"factorization total {a!r} != embedding {b!r}")


# ---------------------------------------------------------------------------
# sandwich_hilbert
# ---------------------------------------------------------------------------

def _build_sandwich(seed: int, tr) -> dict:
    polys = {(d, j): random_poly2(d, np.random.default_rng((seed, d, j)))
             for d, j in SANDWICH_POLYS}
    return {"polys": polys, "phi": young.make_power(2.0)}


def _sandwich_quantities(rep) -> dict:
    q = rep.quantities
    keep = ("sum", "sum_tail", "lower_integral", "upper_integral",
            "margin_lower", "margin_upper")
    out = {k: float(q[k]) for k in keep}
    out["passed"] = bool(rep.passed)
    return out


def _tasks_sandwich(inp: dict, tr) -> list[Callable[[], list[Record]]]:
    params = besov.BesovParams(tr.young(inp["phi"]), _sqrt_weight, n_max=13,
                               h_angles=32, h_radii=6)

    return [partial(_check, tr, "besov.sandwich", f"sandwich/deg{d}/p{j}",
                    partial(besov.check_sum_integral_sandwich, f, params,
                            SANDWICH_T),
                    _sandwich_quantities)
            for (d, j), f in inp["polys"].items()]


def _check_sandwich(rec: Record, by_key: dict) -> None:
    for side in ("margin_lower", "margin_upper"):
        if not rec.quantities[side] >= 0.0:
            rec.wrong.append(f"{side} = {rec.quantities[side]!r} < 0")


# ---------------------------------------------------------------------------
# frame_sampling
# ---------------------------------------------------------------------------

def _build_frame(seed: int, tr) -> dict:
    frames, polys = {}, {}
    for n in FRAME_LEVELS:
        with tr.span("trig.frame_build"):
            frames[n] = trig.frame(n)
        with tr.span("trig.band_kernel_build"):
            trig.band_kernel(n)
        polys[n] = [sampling.random_poly_on_frame(n, seed * 1000 + 10 * n + j)
                    for j in range(POLYS_PER_LEVEL)]
    return {"frames": frames, "polys": polys,
            "phi": young.make_section7(SECTION7_ALPHA)}


def _sampling_quantities(chk) -> dict:
    return {"lhs": float(chk.lhs), "rhs": float(chk.rhs),
            "passed": bool(chk.passed), "supported": bool(chk.supported)}


def _tasks_frame(inp: dict, tr) -> list[Callable[[], list[Record]]]:
    phi = tr.young(inp["phi"])

    tasks = []
    for n, polys in inp["polys"].items():
        for j, f in enumerate(polys):
            tasks.append(partial(
                _check, tr, f"sampling.orlicz.L{n}", f"orlicz/L{n}/p{j}",
                partial(sampling.orlicz_sampling_check, f, n, phi,
                        young.SECTION7_R, poly_id=f"L{n}p{j}",
                        fr=inp["frames"][n], check_preconditions=(j == 0)),
                _sampling_quantities))
            tasks.append(partial(
                _check, tr, "sampling.l2_lower", f"l2lower/L{n}/p{j}",
                partial(sampling.l2_sampling_lower, f, n,
                        poly_id=f"L{n}p{j}"),
                _sampling_quantities))
    return tasks


# ---------------------------------------------------------------------------
# besov_section7
# ---------------------------------------------------------------------------

def _build_besov(seed: int, tr) -> dict:
    for k in range(max(L1_LEVELS) + 1):
        with tr.span("trig.band_kernel_build"):
            trig.band_kernel(k)
    return {"phi": young.make_section7(SECTION7_ALPHA),
            "f1": sampling.random_poly_1d(3, seed),
            "f2": random_poly2(3, np.random.default_rng((seed, 3)))}


def _value_quantities(v) -> dict:
    return {"value": float(v)}


def _norm_quantities(res) -> dict:
    return {"value": float(res.value), "lux": float(res.lux),
            "terms": [float(t) for t in res.terms]}


def _tasks_besov(inp: dict, tr) -> list[Callable[[], list[Record]]]:
    phi = tr.young(inp["phi"])
    classical = besov.BesovParams(phi, _sqrt_weight, n_max=10)
    band = besov.BesovParams(phi, _sqrt_weight)

    tasks = [
        partial(_check, tr, "besov.classical_norm", "classical/1d-deg3",
                partial(besov.besov_norm_classical, inp["f1"], classical),
                _norm_quantities),
        partial(_check, tr, "besov.band_norm", "band/2d-deg3",
                partial(besov.besov_norm_tilde, inp["f2"], band),
                _norm_quantities),
        partial(_check, tr, "besov.modulus_check", "modulus/2d-deg3",
                partial(besov.modulus, inp["f2"], 0.5, phi, angles=8,
                        radii=2, refine=False),
                _value_quantities),
    ]
    for k in L1_LEVELS:
        tasks.append(partial(
            _check, tr, "trig.poly_l1", f"l1/band{k}",
            partial(lambda k: trig.poly_l1(trig.band_kernel(k)), k),
            _value_quantities))
    return tasks


def _check_besov(rec: Record, by_key: dict) -> None:
    q = rec.quantities
    kind = _kind(rec)
    if kind in ("classical", "band") and not 0.0 < q["lux"] <= q["value"]:
        rec.wrong.append("norm below its L_Phi part")
    if kind == "classical":
        moduli = [t / _sqrt_weight(2.0 ** n) for n, t in enumerate(q["terms"])]
        if max(moduli) > 2.0 * q["lux"] * (1.0 + SLACK_TRIANGLE):
            rec.wrong.append("modulus above 2 ||f|| (triangle bound)")
    if kind == "modulus":
        band = by_key.get("band/2d-deg3")
        if not q["value"] > 0.0:
            rec.wrong.append("modulus of a nonconstant polynomial is 0")
        elif band and not band.error and q["value"] > (
                2.0 * band.quantities["lux"] * (1.0 + SLACK_TRIANGLE)):
            rec.wrong.append("modulus above 2 ||f|| (triangle bound)")
    if kind == "l1" and not q["value"] <= L1_BOUND:
        rec.wrong.append(f"band kernel L1 {q['value']!r} > {L1_BOUND}")


# ---------------------------------------------------------------------------
# shared
# ---------------------------------------------------------------------------

# Quantities compared with the reference, per kind of operation (the first
# part of its key), with their relative tolerances.
REFERENCE_TOLERANCES = {
    "embed": {"total": TOL_EMBED},
    "factor": {"total": TOL_EMBED},
    "sandwich": {"sum": TOL_PARSEVAL, "lower_integral": TOL_PARSEVAL,
                 "upper_integral": TOL_PARSEVAL},
    "orlicz": {"lhs": TOL_LUX_SEQ, "rhs": TOL_QUADRATURE},
    "l2lower": {"lhs": TOL_PARSEVAL, "rhs": TOL_PARSEVAL},
    "classical": {"value": TOL_QUADRATURE, "lux": TOL_QUADRATURE},
    "band": {"value": TOL_QUADRATURE, "lux": TOL_QUADRATURE},
    "modulus": {"value": TOL_QUADRATURE},
    "l1": {"value": TOL_QUADRATURE},
}


def _kind(rec: Record) -> str:
    return rec.key.split("/")[0]


@dataclass(frozen=True)
class Workload:
    """``check`` adds the workload's own invariants to the shared gate;
    ``seed_free``: the inputs do not depend on the seed, so the stored
    reference applies to every seed."""

    build: Callable[[int, Any], dict]
    tasks: Callable[[dict, Any], list]
    check: Callable[[Record, dict], None] | None = None
    seed_free: bool = False

    def gate(self, records: list[Record], ref: dict) -> None:
        """Mark the failures of one pass's records (see the module doc)."""
        by_key = {r.key: r for r in records}
        for rec in records:
            if rec.error:
                continue
            q = rec.quantities
            _finite(rec)
            for flag in ("passed", "supported"):
                if q.get(flag) is False:
                    rec.wrong.append(f"check returned {flag}=False")
            if self.check:
                self.check(rec, by_key)
            expect = ref.get(rec.key, {})
            for name, tol in REFERENCE_TOLERANCES[_kind(rec)].items():
                want, got = expect.get(name), q[name]
                if want is not None and not abs(got - want) <= tol * abs(want):
                    rec.wrong.append(f"{name} = {got!r}, reference {want!r} "
                                     f"(rel. tol {tol:g})")


WORKLOADS = {
    "embed_sweep": Workload(_build_embed, _tasks_embed, _check_embed,
                            seed_free=True),
    "sandwich_hilbert": Workload(_build_sandwich, _tasks_sandwich,
                                 _check_sandwich),
    "frame_sampling": Workload(_build_frame, _tasks_frame),
    "besov_section7": Workload(_build_besov, _tasks_besov, _check_besov),
}
