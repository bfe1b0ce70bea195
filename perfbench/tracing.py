"""Span tracer for the traced benchmark run.

Spans are recorded from outside the package: the tracer swaps wrappers into
the module attributes through which one ``orlicheck`` module calls another
(e.g. ``orlicheck.besov.poly_norm``), patches two ``TrigPoly`` methods on the
class, and rebuilds the benchmark's own Young functions with
``dataclasses.replace`` so that their forward, inverse and log-inverse maps
are traced.  Each span keeps (name, start, end, parent, pass id) plus a work
count, in memory; ``metrics`` aggregates them and ``dump`` writes them out.

A span's self time is its duration minus the durations of its child spans;
the process is single-threaded, so children never overlap.
"""

from __future__ import annotations

import dataclasses
import inspect
import time
from array import array
from pathlib import Path

import numpy as np

from orlicheck import besov, conditions, luxemburg, numerics, sampling, trig

SETUP = -1          # pass id of spans recorded while the inputs are built
COMPLEX_BYTES = 16  # one complex128 grid value


def _bound(fn, args, kwargs) -> dict:
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _elements(fn, args, kwargs, out):
    return float(np.size(args[0])), 0.0


def _points(fn, args, kwargs, out):
    poly, m = args[0], args[1]
    return float(m ** poly.dim), 0.0


def _decades(fn, args, kwargs, out):
    return float(out.n_decades), float(out.truncated)


def _allowed_grids(fn, args, kwargs, out):
    """Grids poly_norm may visit: its first grid plus every allowed doubling
    (0 on its exact Parseval route for Phi = t^2)."""
    a = _bound(fn, args, kwargs)
    phi, f = a["phi"], a["f"]
    if a["exact_l2"] and phi.kind == "power" and phi.params.get("p") == 2.0:
        return 0.0, 0.0
    m = max(min(max(8, a["oversample"] * (f.degree + 1)), a["max_grid"]),
            2 * f.degree + 1)
    grids = 1
    for _ in range(a["max_doublings"]):
        if 2 * m > a["max_grid"]:
            break
        m *= 2
        grids += 1
    return float(grids), 0.0


def _shifts(fn, args, kwargs, out):
    """Shift norms modulus evaluates, from its polar-grid parameters."""
    a = _bound(fn, args, kwargs)
    f = a["f"]
    if not f.coeffs:
        return 0.0, 0.0
    if f.dim == 1:
        n = 4 * a["radii"] + (9 if a["refine"] else 0)
    else:
        n = a["angles"] * a["radii"] + (45 if a["refine"] else 0)
    return float(n), 0.0


# (owner, attribute, span name, work counter).  The owner is the module
# through which the caller looks the function up, or the TrigPoly class.
SITES = [
    (conditions, "embedding_condition_eval", "conditions.eval", None),
    (conditions, "integrate_log_improper", "numerics.improper", _decades),
    (conditions, "integrate_finite_log", "numerics.finite_log", None),
    (numerics, "gauss_panel", "numerics.panel", None),
    (besov, "poly_norm", "luxemburg.poly_norm", _allowed_grids),
    (sampling, "poly_norm", "luxemburg.poly_norm", _allowed_grids),
    (luxemburg, "norm_fun", "luxemburg.norm_fun", None),
    (sampling, "norm_seq", "luxemburg.norm_seq", None),
    (trig.TrigPoly, "sample_uniform", "trig.sample_uniform", _points),
    (trig.TrigPoly, "translate", "trig.translate", None),
    (sampling, "sample_on_grid", "trig.sample_on_grid", None),
    (besov, "convolve", "trig.convolve", None),
    (sampling, "convolve", "trig.convolve", None),
    (besov, "modulus", "besov.modulus", _shifts),
    (sampling, "check_supermultiplicativity", "sampling.precondition", None),
    (sampling, "check_inverse_product", "sampling.precondition", None),
    (sampling, "supermultiplicativity_pairs", "sampling.precondition", None),
]


class _Span:
    def __init__(self, tracer: "Tracer", nid: int):
        self.tracer, self.nid = tracer, nid

    def __enter__(self):
        self.idx = self.tracer._open(self.nid)
        self.t0 = time.perf_counter()

    def __exit__(self, *exc):
        self.tracer._close(self.idx, self.t0, time.perf_counter(), 0.0, 0.0)
        return False


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.pass_id = SETUP
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._stack: list[int] = []
        self.name = array("i")
        self.parent = array("i")
        self.pass_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self.flag = array("d")
        self._saved: list = []

    # -- recording ------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.pass_of.append(self.pass_id)
        for arr in (self.start, self.end, self.work, self.flag):
            arr.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float, t1: float, work: float,
               flag: float) -> None:
        self._stack.pop()
        self.start[idx], self.end[idx] = t0, t1
        self.work[idx], self.flag[idx] = work, flag

    def span(self, name: str) -> _Span:
        return _Span(self, self._id(name))

    def wrap(self, name: str, fn, counter=None):
        nid = self._id(name)

        def traced(*args, **kwargs):
            idx = self._open(nid)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self._close(idx, t0, time.perf_counter(), 0.0, 0.0)
                raise
            t1 = time.perf_counter()
            work, flag = (counter(fn, args, kwargs, out) if counter
                          else (0.0, 0.0))
            self._close(idx, t0, t1, work, flag)
            return out

        return traced

    def young(self, phi):
        """Copy of a Young function whose three maps record spans."""
        return dataclasses.replace(
            phi,
            _forward=self.wrap("young.fwd", phi._forward, _elements),
            _inverse=self.wrap("young.inv", phi._inverse, _elements),
            _log_inverse=self.wrap("young.loginv", phi._log_inverse,
                                   _elements))

    def install(self) -> None:
        for owner, attr, name, counter in SITES:
            orig = owner.__dict__[attr]
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self.wrap(name, orig, counter))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    # -- output ---------------------------------------------------------------

    def arrays(self) -> dict:
        return {"name": np.frombuffer(self.name, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "pass_id": np.frombuffer(self.pass_of, dtype=np.int32),
                "start": np.frombuffer(self.start),
                "end": np.frombuffer(self.end),
                "work": np.frombuffer(self.work),
                "flag": np.frombuffer(self.flag)}

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def metrics(self, traced_passes: int) -> dict:
        """Per-layer metrics, per traced pass unless stated otherwise.

        ``*_s`` of a layer primitive is self time; ``*_s`` of a check the
        workload calls (sandwich, band and classical norms, sampling checks,
        preconditions, poly_l1) and of set-up builds is inclusive time.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent],
                            weights=dur[has_parent], minlength=dur.size)
        own = dur - child
        in_pass = a["pass_id"] >= 0
        in_setup = a["pass_id"] == SETUP
        parent_name = np.where(has_parent,
                               a["name"][np.maximum(a["parent"], 0)], -1)
        per = 1.0 / max(traced_passes, 1)

        def sel(name, where=in_pass):
            nid = self._ids.get(name, -2)
            return (a["name"] == nid) & where

        def under(name, parents):
            pids = [self._ids.get(p, -2) for p in parents]
            return sel(name) & np.isin(parent_name, pids)

        def calls(name):
            return float(np.count_nonzero(sel(name)))

        def self_s(name):
            return float(own[sel(name)].sum())

        def incl_s(name, where=in_pass):
            return float(dur[sel(name, where)].sum())

        def work(name):
            return float(a["work"][sel(name)].sum())

        def ratio(num, den):
            return num / den if den > 0 else 0.0

        m = {}
        for short, name in (("fwd", "young.fwd"), ("loginv", "young.loginv")):
            m[f"young.{short}_calls"] = calls(name) * per
            m[f"young.{short}_elems"] = work(name) * per
            m[f"young.{short}_s"] = self_s(name) * per
        m["young.fwd_ns_per_elem"] = 1e9 * ratio(incl_s("young.fwd"),
                                                 work("young.fwd"))
        m["young.inv_calls"] = calls("young.inv") * per
        m["young.inv_s"] = self_s("young.inv") * per

        improper = sel("numerics.improper")
        n_improper = float(np.count_nonzero(improper))
        m["numerics.improper_calls"] = n_improper * per
        m["numerics.improper_s"] = self_s("numerics.improper") * per
        m["numerics.decades"] = work("numerics.improper") * per
        m["numerics.decades_per_integral"] = ratio(work("numerics.improper"),
                                                   n_improper)
        m["numerics.truncated_frac"] = ratio(float(a["flag"][improper].sum()),
                                             n_improper)
        m["numerics.panels"] = calls("numerics.panel") * per
        m["numerics.panel_s"] = self_s("numerics.panel") * per
        m["numerics.finite_log_s"] = self_s("numerics.finite_log") * per

        m["conditions.eval_calls"] = calls("conditions.eval") * per
        m["conditions.eval_s"] = self_s("conditions.eval") * per

        pn = sel("luxemburg.poly_norm")
        n_pn = float(np.count_nonzero(pn))
        grids = np.bincount(a["parent"][under("luxemburg.norm_fun",
                                              ["luxemburg.poly_norm"])],
                            minlength=dur.size)
        allowed = a["work"]
        capped = pn & (allowed > 0) & (grids >= allowed)
        roots = calls("luxemburg.norm_fun") + calls("luxemburg.norm_seq")
        modular = float(np.count_nonzero(
            under("young.fwd", ["luxemburg.norm_fun", "luxemburg.norm_seq"])))
        m["luxemburg.poly_norm_calls"] = n_pn * per
        m["luxemburg.poly_norm_s"] = self_s("luxemburg.poly_norm") * per
        m["luxemburg.grids_per_poly_norm"] = ratio(float(grids[pn].sum()),
                                                   n_pn)
        m["luxemburg.poly_norm_capped_frac"] = ratio(
            float(np.count_nonzero(capped)), n_pn)
        m["luxemburg.norm_fun_calls"] = calls("luxemburg.norm_fun") * per
        m["luxemburg.norm_fun_s"] = self_s("luxemburg.norm_fun") * per
        m["luxemburg.norm_seq_s"] = self_s("luxemburg.norm_seq") * per
        m["luxemburg.modular_evals_per_root"] = ratio(modular, roots)

        m["trig.sample_uniform_calls"] = calls("trig.sample_uniform") * per
        m["trig.sample_uniform_points"] = work("trig.sample_uniform") * per
        m["trig.sample_uniform_s"] = self_s("trig.sample_uniform") * per
        m["trig.sample_on_grid_s"] = self_s("trig.sample_on_grid") * per
        for short in ("translate", "convolve"):
            m[f"trig.{short}_calls"] = calls(f"trig.{short}") * per
            m[f"trig.{short}_s"] = self_s(f"trig.{short}") * per
        m["trig.poly_l1_s"] = incl_s("trig.poly_l1") * per
        l1_grids = a["work"][under("trig.sample_uniform", ["trig.poly_l1"])]
        m["trig.poly_l1_grid_bytes"] = COMPLEX_BYTES * float(
            l1_grids.max(initial=0.0))
        m["trig.band_kernel_build_s"] = incl_s("trig.band_kernel_build",
                                               in_setup)
        m["trig.frame_build_s"] = incl_s("trig.frame_build", in_setup)

        m["besov.modulus_calls"] = calls("besov.modulus") * per
        m["besov.modulus_s"] = self_s("besov.modulus") * per
        m["besov.shifts"] = work("besov.modulus") * per
        m["besov.shift_us"] = 1e6 * ratio(incl_s("besov.modulus"),
                                          work("besov.modulus"))
        for short in ("sandwich", "band_norm", "classical_norm"):
            m[f"besov.{short}_s"] = incl_s(f"besov.{short}") * per

        for n in (3, 4, 5, 6):
            m[f"sampling.orlicz_s.L{n}"] = (incl_s(f"sampling.orlicz.L{n}")
                                            * per)
        m["sampling.precondition_s"] = incl_s("sampling.precondition") * per
        m["sampling.l2_lower_s"] = incl_s("sampling.l2_lower") * per
        return m
