"""Trigonometric polynomials on the 1- and 2-torus in coefficient space.

Coefficient maps are sparse dictionaries keyed by lattice points (int for
dimension 1, (int, int) for dimension 2).  All torus integrals use the
normalised measure (2 pi)^{-d} dx, so convolution is the coefficient-wise
product of coefficient maps and the L2 norm is the plain Euclidean norm of
the coefficients.  Translation, evaluation and uniform sampling are written
once for any dimension, from the sorted support array.

Grid quadrature
---------------
refine_on_grid      the one oversample-and-double loop: applies a functional
                    of the samples on uniform grids that double until its
                    value settles to ``rel_tol``, and returns
                    (value, grid, converged).  poly_l1, luxemburg.poly_norm
                    and sampling.classical_check_1d are each one call to it.

Kernel constructions
--------------------
fejer(n)            nonnegative kernel with triangular coefficients
                    1 - |k|/(n+1) on [-n, n]; value n+1 at the origin.
plateau_kernel(k)   2-D product kernel whose 1-D factor has coefficients
                    identically 1 on [-2^k, 2^k] with linear decay to zero at
                    +-2^{k+1} (Fejer kernel times 1 + 2cos(2^k x) per axis);
                    k = -1 degenerates to the single coefficient 1 at the
                    origin, while k = 0 keeps the product form (1 + 2cos x
                    per axis, plateau [-1, 1]).  Collapsing k = 0 to the
                    origin coefficient as well would leave the level-3 band
                    with spectrum inside the frame hole, invalidating the
                    frame sampling step there.
band_kernel(k)      dyadic differences of plateau kernels: b_0 = plateau(-1),
                    b_1 = plateau(0), b_{k+1} = plateau(k) - plateau(k-2).
                    For k >= 3 the coefficients of b_k vanish on the closed
                    square [-2^{k-3}, 2^{k-3}]^2 and are supported inside
                    (-2^{k-1}, 2^{k-1})^2, so each one lives on a dyadic
                    frame.

The frame of level n >= 3 is the lattice annulus
(-2^n, 2^n)^2 minus [-2^{n-3}, 2^{n-3}]^2 together with the uniform sampling
grid x_k = 2 pi (k + 2^n - 1)/(2^{n+1} - 1): grid indices run over the same
annulus, so "samples on the frame" is a well-defined finite sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain
from typing import Callable, Iterable, Mapping

import numpy as np

__all__ = [
    "TrigPoly",
    "fejer",
    "plateau_kernel",
    "band_kernel",
    "Frame",
    "frame",
    "convolve",
    "sample_on_grid",
    "poly_l1",
    "refine_on_grid",
    "poly_from_coeff_list",
    "poly_to_coeff_list",
]


def _norm_key(dim: int, key) -> tuple[int, ...]:
    if dim == 1:
        if isinstance(key, tuple):
            (k,) = key
            return (int(k),)
        return (int(key),)
    k, l = key
    return (int(k), int(l))


@dataclass(frozen=True)
class TrigPoly:
    """Finite Fourier-coefficient map on Z or Z^2; immutable and pure.

    ``degree`` is the per-axis coordinate degree max |k_i| over the nonzero
    support.  Evaluation on uniform grids uses a zero-padded inverse FFT when
    the grid is at least Nyquist for the degree; arbitrary points use direct
    summation over the sparse support.
    """

    dim: int
    coeffs: Mapping[tuple[int, ...], complex] = field(default_factory=dict)

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError("dimension must be 1 or 2")
        clean = {}
        for key, val in self.coeffs.items():
            kk = _norm_key(self.dim, key)
            val = complex(val)
            if val != 0:
                clean[kk] = val
        object.__setattr__(self, "coeffs", clean)

    @cached_property
    def degree(self) -> int:
        if not self.coeffs:
            return 0
        return max(max(abs(c) for c in key) for key in self.coeffs)

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted support as an int (count, dim) array and its coefficients."""
        keys = sorted(self.coeffs)
        ks = np.fromiter(chain.from_iterable(keys), dtype=np.int64,
                         count=len(keys) * self.dim).reshape(len(keys), self.dim)
        cs = np.fromiter((self.coeffs[k] for k in keys), dtype=complex,
                         count=len(keys))
        return ks, cs

    def support(self) -> set[tuple[int, ...]]:
        return set(self.coeffs)

    def coeff(self, key) -> complex:
        return self.coeffs.get(_norm_key(self.dim, key), 0j)

    # -- algebra ------------------------------------------------------------

    def _combine(self, other: "TrigPoly", sign: float) -> "TrigPoly":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        out = dict(self.coeffs)
        for key, val in other.coeffs.items():
            out[key] = out.get(key, 0j) + sign * val
        return TrigPoly(self.dim, out)

    def __add__(self, other):
        return self._combine(other, 1.0)

    def __sub__(self, other):
        return self._combine(other, -1.0)

    def __mul__(self, scalar):
        s = complex(scalar)
        return TrigPoly(self.dim, {k: s * v for k, v in self.coeffs.items()})

    __rmul__ = __mul__

    def translate(self, h) -> "TrigPoly":
        """f(. + h): multiply each coefficient by exp(i k . h), exact."""
        hv = np.atleast_1d(np.asarray(h, dtype=float))
        if hv.shape != (self.dim,):
            raise ValueError(f"shift needs {self.dim} components")
        ks, cs = self._arrays
        phase = (ks * hv).sum(axis=1)
        return TrigPoly(self.dim, dict(zip(map(tuple, ks.tolist()),
                                           cs * np.exp(1j * phase))))

    # -- evaluation ----------------------------------------------------------

    def eval_at(self, *points):
        """Direct summation sum c_k exp(i k . x), vectorised over points."""
        if len(points) != self.dim:
            raise ValueError(f"evaluation needs {self.dim} coordinates")
        xs = np.broadcast_arrays(*(np.asarray(p, dtype=float) for p in points))
        out = np.zeros(xs[0].shape, dtype=complex)
        for k, c in zip(*self._arrays):
            out += c * np.exp(1j * sum(ki * x for ki, x in zip(k, xs)))
        return out

    def sample_uniform(self, m: int) -> np.ndarray:
        """Values on the uniform grid 2 pi j / m per axis, j = 0..m-1.

        Exact (inverse DFT of folded coefficients) provided m >= 2*degree+1;
        the folded indices k mod m are then distinct.
        """
        if m < 2 * self.degree + 1:
            raise ValueError(f"grid size {m} aliases degree {self.degree}")
        ks, cs = self._arrays
        a = np.zeros((m,) * self.dim, dtype=complex)
        a[tuple((ks % m).T)] = cs
        return np.fft.ifftn(a) * m ** self.dim

    def l2_norm(self) -> float:
        """L2 norm w.r.t. normalised measure = Euclidean coefficient norm."""
        if not self.coeffs:
            return 0.0
        return float(np.sqrt(sum(abs(v) ** 2 for v in self.coeffs.values())))


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def fejer(n: int) -> TrigPoly:
    """1-D kernel with coefficients 1 - |k|/(n+1), k in [-n, n]."""
    if n < 0:
        raise ValueError("order must be >= 0")
    return TrigPoly(1, {(k,): 1.0 - abs(k) / (n + 1) for k in range(-n, n + 1)})


def _plateau_factor(k: int) -> dict[int, float]:
    """1-D coefficients: triangle of half-width 2^k convolved with the three
    shifts {-2^k, 0, 2^k}; identically 1 on [-2^k, 2^k]."""
    m = 2 ** k
    tri = lambda j: max(0.0, 1.0 - abs(j) / m)
    out = {}
    for j in range(-2 * m + 1, 2 * m):
        v = tri(j) + tri(j - m) + tri(j + m)
        if v != 0.0:
            out[j] = v
    return out


@lru_cache(maxsize=32)
def plateau_kernel(k: int) -> TrigPoly:
    """2-D product kernel with coefficient plateau 1 on [-2^k, 2^k]^2.

    k = -1 is the single coefficient 1 at the origin; every k >= 0 uses the
    product formula (at k = 0 the factor is 1 + 2cos x, plateau [-1, 1]).
    """
    if k < -1:
        raise ValueError("index must be >= -1")
    if k == -1:
        return TrigPoly(2, {(0, 0): 1.0})
    fac = _plateau_factor(k)
    coeffs = {(a, b): va * vb for a, va in fac.items() for b, vb in fac.items()}
    return TrigPoly(2, coeffs)


@lru_cache(maxsize=32)
def band_kernel(k: int) -> TrigPoly:
    """Telescoping band kernels: b_0 = plateau(-1), b_1 = plateau(0),
    b_{k+1} = plateau_kernel(k) - plateau_kernel(k-2)."""
    if k < 0:
        raise ValueError("index must be >= 0")
    if k == 0:
        return plateau_kernel(-1)
    if k == 1:
        return plateau_kernel(0)
    return plateau_kernel(k - 1) - plateau_kernel(k - 3)


# ---------------------------------------------------------------------------
# frames and sampling grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Frame:
    """Dyadic lattice annulus with its Marcinkiewicz sampling grid.

    indices = Z^2 intersected with (-2^n, 2^n)^2 minus [-2^{n-3}, 2^{n-3}]^2,
    listed in lexicographic order; omega is its cardinality, and the grid has
    (2^{n+1} - 1)^2 equispaced points per axis.
    """

    level: int
    indices: tuple[tuple[int, int], ...]
    omega: int
    grid_size: int

    def grid_coordinate(self, k: int) -> float:
        """x_k = 2 pi (k + 2^n - 1) / (2^{n+1} - 1)."""
        n = self.level
        return 2.0 * np.pi * (k + 2 ** n - 1) / self.grid_size

    @property
    def grid_spacing(self) -> float:
        return 2.0 * np.pi / self.grid_size


@lru_cache(maxsize=32)
def frame(n: int) -> Frame:
    """Frame of level n >= 3 (smaller n leaves no hole to remove)."""
    if n < 3:
        raise ValueError("frame level must be >= 3")
    outer = 2 ** n
    hole = 2 ** (n - 3)
    idx = tuple(
        (k, l)
        for k in range(-outer + 1, outer)
        for l in range(-outer + 1, outer)
        if not (abs(k) <= hole and abs(l) <= hole)
    )
    return Frame(n, idx, len(idx), 2 ** (n + 1) - 1)


def convolve(g: TrigPoly, f: TrigPoly) -> TrigPoly:
    """Convolution w.r.t. normalised measure: coefficient-wise product."""
    if g.dim != f.dim:
        raise ValueError("dimension mismatch")
    small, large = (g, f) if len(g.coeffs) <= len(f.coeffs) else (f, g)
    out = {}
    for key, val in small.coeffs.items():
        other = large.coeffs.get(key)
        if other is not None:
            out[key] = val * other
    return TrigPoly(g.dim, out)


def sample_on_grid(f: TrigPoly, fr: Frame) -> np.ndarray:
    """Values f(x_k, y_l) for (k, l) in the frame, in index order.

    The frame grid point of index k is at angle 2 pi (k + 2^n - 1)/M with
    M = 2^{n+1} - 1, i.e. the standard uniform M-grid re-indexed, so one
    padded FFT evaluates all of them.
    """
    if f.dim != 2:
        raise ValueError("frame sampling needs a 2-D polynomial")
    m = fr.grid_size
    shift = 2 ** fr.level - 1
    values = f.sample_uniform(m)
    ks = np.array([k for k, _ in fr.indices]) + shift
    ls = np.array([l for _, l in fr.indices]) + shift
    return values[ks, ls]


def refine_on_grid(f: TrigPoly, value: Callable[[np.ndarray], float], *,
                   degree: int | None = None, oversample: int = 8,
                   rel_tol: float, max_doublings: int,
                   max_grid: float = math.inf) -> tuple[float, int, bool]:
    """Grid quadrature with a doubling check: (value, grid, converged).

    Applies ``value`` to the samples of f on the uniform m-grid per axis,
    starting from m = max(8, oversample * (degree + 1)) capped at
    ``max_grid`` but never below the Nyquist size 2 * f.degree + 1, and
    doubles m while 2m <= max_grid, at most ``max_doublings`` times.  Stops
    with converged = True at the first grid whose value moved by at most
    ``rel_tol`` relatively; otherwise returns the last grid's value with
    converged = False.  ``degree`` defaults to the degree of f.
    """
    degree = f.degree if degree is None else degree
    m = max(min(max(8, oversample * (degree + 1)), max_grid),
            2 * f.degree + 1)
    prev = value(f.sample_uniform(m))
    for _ in range(max_doublings):
        if 2 * m > max_grid:
            break
        m *= 2
        cur = value(f.sample_uniform(m))
        if abs(cur - prev) <= rel_tol * max(abs(cur), 1e-300):
            return cur, m, True
        prev = cur
    return prev, m, False


def poly_l1(f: TrigPoly, *, oversample: int = 8, rel_tol: float = 1e-6,
            max_doublings: int = 3, max_grid: int = 4096) -> float:
    """L1 norm (normalised measure) by grid averaging with doubling check.

    ``max_grid`` caps the per-axis grid so high-degree kernels stay within
    memory; the trapezoid error at the cap is far below the bound margins
    these norms feed into.
    """
    return refine_on_grid(f, lambda v: float(np.mean(np.abs(v))),
                          oversample=oversample, rel_tol=rel_tol,
                          max_doublings=max_doublings, max_grid=max_grid)[0]


# ---------------------------------------------------------------------------
# coefficient I/O: JSON-friendly (k, l, re, im) tuples
# ---------------------------------------------------------------------------

def poly_to_coeff_list(f: TrigPoly) -> list[list[float]]:
    out = []
    for key in sorted(f.coeffs):
        c = f.coeffs[key]
        out.append([*key, c.real, c.imag])
    return out


def poly_from_coeff_list(rows: Iterable[Iterable[float]], dim: int) -> TrigPoly:
    coeffs = {}
    for row in rows:
        row = list(row)
        if len(row) != dim + 2:
            raise ValueError(f"coefficient rows need {dim + 2} entries")
        key = tuple(int(v) for v in row[:dim])
        coeffs[key] = complex(row[dim], row[dim + 1])
    return TrigPoly(dim, coeffs)
