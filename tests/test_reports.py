"""VerificationReport, the one outcome of every check: its JSON form, its
attribute view of the quantities, and the package's exported names."""

import copy
import inspect
import json
import math
import pickle

import numpy as np
import pytest

import orlicheck
from orlicheck import (besov, conditions, extrapolation, geometry, luxemburg,
                       numerics, reports, sampling, trig, young)
from orlicheck.numerics import Status
from orlicheck.reports import VerificationReport

POWER2 = young.make_power(2.0)
SECTION7 = young.make_section7(0.05)
TINY_BESOV = besov.BesovParams(POWER2, math.sqrt, n_max=3, h_angles=4,
                               h_radii=2)
FRAME_POLY = sampling.random_poly_on_frame(3, 0)
POLY2 = trig.TrigPoly(2, {(1, 0): 1.0, (0, -1): 0.5j, (1, 1): -0.25})

# every check builder of the package, on tiny inputs
BUILDERS = {
    "validate": lambda: young.validate(POWER2),
    "sqrt-concavity": lambda: young.check_sqrt_concavity(
        POWER2, np.geomspace(0.1, 10.0, 9)),
    "supermultiplicativity": lambda: young.check_supermultiplicativity(
        POWER2, 1.0, young.supermultiplicativity_pairs(0, 8)),
    "inverse-product": lambda: young.check_inverse_product(
        POWER2, 1.0, np.geomspace(0.1, 10.0, 5)),
    "l2-embedding": lambda: luxemburg.embed_l2_check(POWER2, [0.3, 0.4]),
    "weight-domination": lambda: conditions.weight_domination_check(
        POWER2, conditions.embedding_weight(POWER2), [0.5, 1.0, 4.0]),
    "lorentz-probe": lambda: conditions.lorentz_embedding_probe(
        POWER2, 2, [0.1, 0.5, 1.0]),
    "embedding-sup": lambda: conditions.embedding_condition_sup(
        SECTION7, conditions.embedding_weight(SECTION7), 2, [1.0, 10.0]),
    "embedding-sup-divergent": lambda: conditions.embedding_condition_sup(
        POWER2, conditions.power_weight(0.5), 2, [1.0, 10.0]),
    "factorization": lambda: conditions.factorization_integral_condition(
        SECTION7, [1.0, 10.0]),
    "classical-1d": lambda: sampling.classical_check_1d(
        sampling.random_poly_1d(2, 0), young.make_power(1.5)),
    "orlicz-sampling": lambda: sampling.orlicz_sampling_check(
        FRAME_POLY, 3, POWER2, 1.0),
    "l2-sampling-lower": lambda: sampling.l2_sampling_lower(FRAME_POLY, 3),
    "sandwich": lambda: besov.check_sum_integral_sandwich(
        POLY2, TINY_BESOV, np.geomspace(1.0, 8.0, 6)),
    "norm-comparison": lambda: besov.check_norm_comparison(POLY2, TINY_BESOV),
    "ball-symmdiff": lambda: geometry.check_symmdiff_lower_bound(
        geometry.BallPair(2, 1.0, 0.25)),
    "extrapolation-chain": lambda: extrapolation.verify_extrapolation_chain(
        [0.3, 0.1], extrapolation.sobolev_profile(2, 1, 1.0), 0.5),
    "extrapolation-chain-divergent":
        lambda: extrapolation.verify_extrapolation_chain(
            [0.3, 0.1], extrapolation.sobolev_profile(2, 1, 1.0), -0.5),
}


@pytest.mark.parametrize("name", BUILDERS)
def test_to_dict_is_json_and_deterministic(name):
    first, second = BUILDERS[name](), BUILDERS[name]()
    assert isinstance(first, VerificationReport)
    text = json.dumps(first.to_dict())
    assert json.dumps(second.to_dict()) == text
    d = json.loads(text)
    assert list(d) == ["check_id", "passed", "margin", "witness",
                       "quantities", "inputs", "tolerance"]
    assert d["passed"] is bool(first.passed)


def test_to_dict_writes_status_and_infinite_margins_as_strings():
    d = BUILDERS["embedding-sup-divergent"]().to_dict()
    assert d["margin"] == "-inf" and d["passed"] is False
    assert d["quantities"]["status"] == "divergent"
    evals = d["quantities"]["evaluations"]
    assert [type(e) for e in evals] == [dict, dict]
    assert {e["status"] for e in evals} == {"divergent"}
    assert set(evals[0]) == {"s", "first_term", "second_term", "tail_bound",
                             "total", "status", "log10_t_reached"}
    d = BUILDERS["extrapolation-chain-divergent"]().to_dict()
    assert d["margin"] == "inf" and d["passed"] is True
    assert d["quantities"]["integral_status"] == "divergent"
    assert type(d["quantities"]["integral_status"]) is str


def test_to_dict_writes_numpy_and_complex_values_as_json():
    rep = VerificationReport(
        check_id="plain", passed=np.bool_(True), margin=np.float64(0.5),
        witness=np.array([[1, 2], [3, 4]]),
        quantities={"count": np.int64(7), "flag": np.bool_(False),
                    "z": 1.5 - 2j, "grid": np.array([0.25, np.inf]),
                    "nested": (np.float32(0.5), {3: np.int32(-1)})},
        inputs={}, tolerance="")
    d = rep.to_dict()
    assert json.loads(json.dumps(d)) == d
    assert d["passed"] is True and d["margin"] == 0.5
    assert d["witness"] == [[1, 2], [3, 4]]
    q = d["quantities"]
    assert q["count"] == 7 and type(q["count"]) is int
    assert q["flag"] is False
    assert q["z"] == [1.5, -2.0]
    assert q["grid"] == [0.25, "inf"]
    assert q["nested"] == [0.5, {"3": -1}]


def test_quantities_read_as_attributes_and_survive_copy_and_pickle():
    rep = BUILDERS["embedding-sup"]()
    assert rep.bounded is rep.quantities["bounded"] is True
    assert rep.status is Status.CONVERGED
    assert rep.witness == rep.witness_s
    with pytest.raises(AttributeError):
        rep.classification
    with pytest.raises(AttributeError):
        rep._private
    for twin in (copy.copy(rep), copy.deepcopy(rep),
                 pickle.loads(pickle.dumps(rep))):
        assert twin.to_dict() == rep.to_dict()
        assert twin.sup_value == rep.sup_value


# margins, points, slack, the index of the worst entry, and the verdict
WORST_OF = {
    # the worst margin passes under its own slack, 1.0, although it fails
    # under the array's smallest, 0.0
    "per-point slack": ([-0.5, 0.1, -0.2], [[1.0, 2.0], [3.0, 4.0],
                                            [5.0, 6.0]], [1.0, 0.0, 0.25],
                        0, True),
    "scalar points": ([0.3, -1e-10, 0.0], [0.5, 1.5, 2.5], 1e-9, 1, True),
    "first of ties": ([0.0, -2.0, 1.0, -2.0], [[1, 2], [3, 4], [5, 6], [7, 8]],
                      1.0, 1, False),
    "NaN first": ([1.0, math.nan, -3.0], [1.0, 2.0, 3.0], math.inf, 1, False),
    # the worst margin passes under its own slack, 10.0, but the second
    # misses its own, 0.5, so the check fails
    "every point under its own slack": ([-5.0, -1.0], [1.0, 2.0],
                                        [10.0, 0.5], 0, False),
}


@pytest.mark.parametrize("margins, points, slack, i, passed",
                         WORST_OF.values(), ids=list(WORST_OF))
def test_worst_of_reports_the_first_least_margin_under_its_own_slack(
        margins, points, slack, i, passed):
    def worst(slack):
        return reports.worst_of("w", np.array(margins), np.array(points),
                                np.array(slack), inputs={"n": len(margins)},
                                tolerance="margin >= -slack")

    rep = worst(slack)
    assert repr(rep.margin) == repr(margins[i])
    want = (tuple(map(float, points[i])) if isinstance(points[i], list)
            else points[i])
    assert rep.witness == want and type(rep.witness) is type(want)
    entries = rep.witness if type(want) is tuple else [rep.witness]
    assert {type(v) for v in entries} == {float}
    assert rep.passed is passed
    assert (rep.check_id, rep.quantities, rep.inputs, rep.tolerance) == (
        "w", {}, {"n": len(margins)}, "margin >= -slack")
    if np.ndim(slack):
        assert worst(min(slack)).passed is False


def test_status_has_three_members_ordered_best_to_worst():
    assert [s.value for s in Status] == ["converged", "truncated",
                                         "divergent"]
    assert Status("truncated") is Status.TRUNCATED == "truncated"


# ---------------------------------------------------------------------------
# exported names
# ---------------------------------------------------------------------------

MODULES = [besov, conditions, extrapolation, geometry, luxemburg, sampling,
           trig, young]


@pytest.mark.parametrize("mod", MODULES, ids=lambda m: m.__name__)
def test_every_name_in_all_exists(mod):
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []


def test_package_reexports_only_live_names():
    live = set().union(*(m.__all__ for m in MODULES))
    live |= {"Status", "VerificationReport"}
    exported = {n for n, v in vars(orlicheck).items()
                if not n.startswith("_") and not inspect.ismodule(v)}
    assert exported <= live
    assert orlicheck.Status is numerics.Status
    assert orlicheck.VerificationReport is reports.VerificationReport
