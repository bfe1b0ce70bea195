"""What perfbench/workloads.py reads off the package's results: each
quantity extractor is fed a real result of the builder its workload calls,
on tiny inputs, so a change of result type that would break the benchmark
fails here first.  One pass each of the two workloads built on Luxemburg
roots is gated against the stored reference, so a change of their values
fails here too."""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402
from orlicheck import besov, conditions, sampling, trig, young  # noqa: E402


def _plain_values(q: dict) -> bool:
    return all(type(v) in (float, bool) or (type(v) is list and all(
        type(x) is float for x in v)) for v in q.values())


def test_eval_quantities_of_both_condition_builders():
    phi = young.make_section7(0.05)
    psi = conditions.embedding_weight(phi)
    ev = conditions.embedding_condition_eval(phi, psi, 2, 10.0)
    scan = conditions.factorization_integral_condition(phi, [10.0])
    qs = [workloads._eval_quantities(e) for e in (ev, scan.evaluations[0])]
    for q in qs:
        assert set(q) == {"total", "first", "second", "truncated",
                          "divergent", "log10_t_reached"}
        assert _plain_values(q)
        assert not (q["truncated"] or q["divergent"])
    assert qs[0]["total"] == ev.total
    assert abs(qs[1]["total"] / qs[0]["total"] - 1.0) <= workloads.TOL_EMBED


def test_sweep_reads_bounded_and_evaluations():
    phi = young.make_section7(0.05)
    scan = conditions.embedding_condition_sup(
        phi, conditions.embedding_weight(phi), 2, [1.0, 10.0])
    assert scan.bounded is True
    assert [e.s for e in scan.evaluations] == [1.0, 10.0]
    assert all(isinstance(e, conditions.ConditionEvaluation)
               for e in scan.evaluations)


def test_sandwich_quantities():
    params = besov.BesovParams(young.make_power(2.0), math.sqrt, n_max=3,
                               h_angles=4, h_radii=2)
    f = workloads.random_poly2(1, np.random.default_rng(0))
    for g in (f, trig.TrigPoly(2, {})):
        rep = besov.check_sum_integral_sandwich(g, params,
                                                np.geomspace(1.0, 8.0, 6))
        q = workloads._sandwich_quantities(rep)
        assert set(q) == {"sum", "sum_tail", "lower_integral",
                          "upper_integral", "margin_lower", "margin_upper",
                          "passed"}
        assert _plain_values(q) and q["passed"]


def test_sampling_quantities_of_both_sampling_checks():
    f = sampling.random_poly_on_frame(3, 0)
    phi = young.make_section7(0.05)
    for chk in (sampling.orlicz_sampling_check(f, 3, phi, young.SECTION7_R,
                                               check_preconditions=False),
                sampling.l2_sampling_lower(f, 3)):
        q = workloads._sampling_quantities(chk)
        assert set(q) == {"lhs", "rhs", "passed", "supported"}
        assert _plain_values(q) and q["passed"] and q["supported"]
        assert 0.0 < q["lhs"] <= q["rhs"]


def test_norm_and_value_quantities():
    phi = young.make_section7(0.05)
    f1 = sampling.random_poly_1d(1, 0)
    f2 = workloads.random_poly2(1, np.random.default_rng(0))
    norms = [besov.besov_norm_classical(
                 f1, besov.BesovParams(phi, math.sqrt, n_max=2, h_angles=4,
                                       h_radii=2)),
             besov.besov_norm_tilde(f2, besov.BesovParams(phi, math.sqrt))]
    for res in norms:
        q = workloads._norm_quantities(res)
        assert set(q) == {"value", "lux", "terms"}
        assert _plain_values(q) and 0.0 < q["lux"] <= q["value"]
    for v in (besov.modulus(f2, 0.5, phi, angles=4, radii=2, refine=False),
              trig.poly_l1(trig.band_kernel(2))):
        q = workloads._value_quantities(v)
        assert set(q) == {"value"} and _plain_values(q) and q["value"] > 0.0


@pytest.mark.parametrize("name", ["besov_section7", "frame_sampling"])
def test_reference_seed_pass_is_correct(name):
    # one pass of the workloads whose values come from Luxemburg roots, on
    # the seed of the stored reference and gated against it as run.py does
    refs = json.loads((PERFBENCH / "reference.json").read_text())
    spec = workloads.WORKLOADS[name]
    ref = refs["workloads"][name]
    inputs = spec.build(refs["seed"], workloads.Untraced())
    records = [rec for task in spec.tasks(inputs, workloads.Untraced())
               for rec in task()]
    spec.gate(records, ref)
    assert {rec.key for rec in records} == set(ref)
    assert [(r.key, r.error, r.wrong) for r in records if r.incorrect] == []
