"""The names perfbench/tracing.py relies on: the module attributes it swaps
for traced wrappers, and the keywords its work counters read by name."""

import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from orlicheck import besov, luxemburg, sampling, trig  # noqa: E402
from orlicheck.sampling import random_poly_1d  # noqa: E402
from orlicheck.young import make_section7  # noqa: E402


@pytest.mark.parametrize("owner, attr", [(o, a) for o, a, _, _ in
                                         tracing.SITES],
                         ids=lambda v: getattr(v, "__name__", v))
def test_every_site_is_an_attribute_of_its_owner(owner, attr):
    assert attr in owner.__dict__


def test_work_counters_bind_on_poly_norm_and_modulus():
    f, phi = random_poly_1d(3, 0), make_section7(0.05)
    grids, _ = tracing._allowed_grids(luxemburg.poly_norm, (phi, f), {}, None)
    assert grids == 5.0
    shifts, _ = tracing._shifts(besov.modulus, (f, 0.5, phi), {}, None)
    assert shifts == 41.0
    # the count is the one modulus evaluates
    rows = []
    real = besov._shift_norms

    def counted(f, hs, phi):
        rows.append(len(hs))
        return real(f, hs, phi)

    with mock.patch.object(besov, "_shift_norms", counted):
        besov.modulus(f, 0.5, phi)
    assert sum(rows) == shifts


def test_poly_l1_samples_through_sample_uniform():
    # trig.poly_l1_grid_bytes counts the points of the sample_uniform spans
    # under poly_l1; _points reads the grid size as the second positional
    calls = []
    real = trig.TrigPoly.sample_uniform

    def counted(self, *args):
        calls.append(args)
        return real(self, *args)

    with mock.patch.object(trig.TrigPoly, "sample_uniform", counted):
        trig.poly_l1(trig.band_kernel(3))
    assert calls


def test_shift_count_is_zero_on_an_array_built_zero_polynomial():
    phi = make_section7(0.05)
    for f in (trig.poly_from_box(np.zeros((1, 1))),
              trig.poly_from_box(np.zeros(5))):
        assert tracing._shifts(besov.modulus, (f, 0.5, phi), {}, None) \
            == (0.0, 0.0)


def test_dict_built_workload_polynomial_equals_the_array_built_one():
    for degree in (1, 3, 8):
        f = workloads.random_poly2(degree, np.random.default_rng(degree))
        z = np.random.default_rng(degree).standard_normal(
            ((2 * degree + 1) ** 2, 2))
        box = (z[:, 0] + 1j * z[:, 1]).reshape((2 * degree + 1,) * 2)
        assert f == trig.poly_from_box(box)


@pytest.mark.parametrize("attr, route", [
    ("translate", lambda: besov.modulus(random_poly_1d(3, 0), 0.5,
                                        make_section7(0.05), refine=False)),
    ("sample_uniform", lambda: trig.sample_on_grid(
        sampling.random_poly_on_frame(3, 0), trig.frame(3))),
], ids=["translate", "sample_uniform"])
def test_patched_trigpoly_methods_are_the_ones_called(attr, route):
    # tracing wraps these two on the class, and the routes that the
    # benchmark times reach them there
    calls = []
    real = getattr(trig.TrigPoly, attr)

    def counted(self, *args):
        calls.append(attr)
        return real(self, *args)

    with mock.patch.object(trig.TrigPoly, attr, counted):
        route()
    assert calls


def test_sweeps_reach_modulus_through_the_module_with_all_their_radii():
    # tracing wraps besov.modulus on the module; the sandwich takes each
    # integrand and the dyadic sum, and the classical norm its dyadic sum,
    # in one call with an array of radii
    f = random_poly_1d(3, 0)
    params = besov.BesovParams(make_section7(0.05), lambda t: t ** 0.5,
                               n_max=5, h_radii=2)
    grid = np.geomspace(1.0, 64.0, 7)
    with mock.patch.object(besov, "modulus", wraps=besov.modulus) as om:
        besov.check_sum_integral_sandwich(f, params, grid)
        besov.besov_norm_classical(f, params)
    radii = [c.args[1] for c in om.call_args_list]
    assert all(isinstance(t, np.ndarray) and t.ndim == 1 for t in radii)
    assert [len(t) for t in radii] == [7, 7, 6, 6]
