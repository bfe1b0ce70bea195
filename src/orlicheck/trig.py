"""Trigonometric polynomials on the 1- and 2-torus in coefficient space.

Coefficient maps are sparse dictionaries keyed by lattice points (int for
dimension 1, (int, int) for dimension 2).  All torus integrals use the
normalised measure (2 pi)^{-d} dx, so convolution is the coefficient-wise
product of coefficient maps and the L2 norm is the plain Euclidean norm of
the coefficients.  Translation, evaluation and uniform sampling are written
once for any dimension, from the sorted support array.  Uniform sampling is
one pruned inverse FFT over a stack of polynomials (sample_boxes): their
coefficients fill rows of centred (2 degree + 1)^dim boxes
(coefficient_boxes), and each axis in turn is zero-padded to the grid and
transformed in place over all rows, so no transform runs over lines that are
all zero.  TrigPoly.sample_uniform is the one-row case.

Grid quadrature
---------------
refine_on_grid      the one oversample-and-double loop: calls a functional
                    of the grid size on uniform grids that double until its
                    value settles to ``rel_tol``, and returns
                    (value, grid, converged).  The functional may return a
                    vector, whose entries settle one by one.
                    luxemburg.poly_norm and sampling.classical_check_1d
                    sample each grid whole; luxemburg.poly_norms samples a
                    stack of polynomials in chunks of rows; poly_l1 samples
                    only the 1-D factors of a rank factorisation of f and
                    sums |f| block by block from them, so its memory does
                    not grow with the grid and its 4096-point cap only bounds
                    its time.  On the band kernels poly_l1 stops at that cap
                    unconverged: band_kernel(6) still moves by 8.2e-5
                    relatively on its last doubling, against its tolerance
                    1e-6.

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
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

# Points per block when poly_l1 sums |f| over a grid, and per chunk of rows
# when luxemburg.poly_norms samples a stack: the working set stays a few MB at
# any grid size.
SAMPLE_BLOCK = 2 ** 18

__all__ = [
    "TrigPoly",
    "fejer",
    "plateau_kernel",
    "band_kernel",
    "Frame",
    "frame",
    "convolve",
    "sample_on_grid",
    "coefficient_boxes",
    "sample_boxes",
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

    @cached_property
    def _folded(self) -> tuple[np.ndarray, np.ndarray]:
        """The spectrum folded onto one half for sums of even functions of k:
        each mirror pair {k, -k} as its member whose first nonzero coordinate
        is positive, a float (count, dim) array, with the Parseval weight
        |c_k|^2 + |c_{-k}|^2 (|c_k|^2 for a mode without its mirror).  The
        zero mode is dropped."""
        ks, cs = self._arrays
        live = ks.any(axis=1)
        ks, cs = ks[live], cs[live]
        lead = ks[np.arange(len(ks)), (ks != 0).argmax(axis=1)]
        reps, slot = np.unique(ks * np.sign(lead)[:, None], axis=0,
                               return_inverse=True)
        w = np.bincount(slot.ravel(), weights=np.abs(cs) ** 2,
                        minlength=len(reps))
        return reps.astype(float), w

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
        """Values on the uniform grid 2 pi j / m per axis, j = 0..m-1, as an
        (m,)*dim array: the one-row case of sample_boxes.  Exact provided
        m >= 2*degree+1.
        """
        return sample_boxes(coefficient_boxes([self], self.degree), m)[0]

    def l2_norm(self) -> float:
        """L2 norm w.r.t. normalised measure = Euclidean coefficient norm."""
        return float(np.linalg.norm(self._arrays[1]))


def coefficient_boxes(fs: Sequence[TrigPoly], degree: int) -> np.ndarray:
    """Stack the coefficients of fs, all of one dimension and of degree at
    most ``degree``, as rows of centred (2 degree + 1)^dim boxes: entry
    [r, k + degree] is the coefficient of e^{ik.x} in fs[r]."""
    boxes = np.zeros((len(fs),) + (2 * degree + 1,) * fs[0].dim,
                     dtype=complex)
    for r, f in enumerate(fs):
        ks, cs = f._arrays
        boxes[(r,) + tuple((ks + degree).T)] = cs
    return boxes


def sample_boxes(boxes: np.ndarray, m: int) -> np.ndarray:
    """Values on the uniform m-grid of the polynomials stacked in ``boxes``
    (see coefficient_boxes), as a (rows,) + (m,)*dim array, by one pruned
    inverse FFT over the row axis.

    Exact provided m >= 2*degree+1, so that the folded indices k mod m are
    distinct.  Each axis in turn is zero-padded to m at the indices k mod m
    and inverse-transformed in place, so each transform runs only over the
    slab of lines that can be nonzero.
    """
    dim, width = boxes.ndim - 1, boxes.shape[-1]
    d = (width - 1) // 2
    if m < width:
        raise ValueError(f"grid size {m} aliases degree {d}")
    folded = np.arange(-d, d + 1) % m
    b = boxes
    for ax in range(1, dim + 1):
        slab = np.zeros(b.shape[:ax] + (m,) + b.shape[ax + 1:], dtype=complex)
        slab[(slice(None),) * ax + (folded,)] = b
        b = np.fft.ifft(slab, axis=ax, norm="forward", out=slab)
    return b


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


def refine_on_grid(f: TrigPoly, value: Callable[[int], object], *,
                   degree: int | None = None, oversample: int = 8,
                   rel_tol: float, max_doublings: int,
                   max_grid: float = math.inf) -> tuple:
    """Grid quadrature with a doubling check: (value, grid, converged).

    Calls ``value(m)`` for uniform m-grids per axis, starting from
    m = max(8, oversample * (degree + 1)) capped at ``max_grid`` but never
    below the Nyquist size 2 * f.degree + 1, and doubles m while
    2m <= max_grid, at most ``max_doublings`` times.  ``value`` samples f, a
    stack of polynomials of its degree, or the 1-D factors of f, on the m-grid
    itself (see sample_boxes, poly_l1).  It returns a float or a vector of
    floats.  Each entry freezes, converged, at the first grid where it moved
    by at most ``rel_tol`` relatively; the loop stops once all have, and an
    entry that never did keeps the last grid's value, not converged.  The
    grid returned is the last one visited; value and converged have the
    shape of value(m).  ``degree`` defaults to the degree of f.
    """
    degree = f.degree if degree is None else degree
    m = max(min(max(8, oversample * (degree + 1)), max_grid),
            2 * f.degree + 1)
    val = np.array(value(m), dtype=float)
    done = np.zeros(val.shape, dtype=bool)
    for _ in range(max_doublings):
        if 2 * m > max_grid:
            break
        m *= 2
        cur = np.asarray(value(m), dtype=float)
        live = ~done
        done = done | (np.abs(cur - val)
                       <= rel_tol * np.maximum(np.abs(cur), 1e-300))
        val = np.where(live, cur, val)
        if done.all():
            break
    if val.ndim == 0:
        return float(val), m, bool(done)
    return val, m, done


def _rank_factors(f: TrigPoly) -> tuple[list[TrigPoly], list[TrigPoly]]:
    """1-D polynomials a_i, b_i with f(x, y) = sum_i a_i(x) b_i(y), from the
    SVD U S V^H of the coefficient box: a_i = s_i u_i and b_i = conj(v_i),
    keeping the singular values above numpy's matrix_rank cut s_0 w eps for
    box width w.  A 1-D f is the (w, 1) box, whose b is a constant."""
    ks, cs = f._arrays
    bad = ~np.isfinite(cs)
    if bad.any():
        named = dict(zip(map(tuple, ks[bad].tolist()), cs[bad].tolist()))
        raise ValueError(f"non-finite coefficients {named}")
    box = coefficient_boxes([f], f.degree)[0].reshape(2 * f.degree + 1, -1)
    u, s, vh = np.linalg.svd(box)
    r = int(np.count_nonzero(s > s[0] * max(box.shape) * np.finfo(float).eps))
    polys = lambda vecs: [TrigPoly(1, dict(enumerate(c, -(len(c) // 2))))
                          for c in vecs]
    return polys((u[:, :r] * s[:r]).T), polys(vh[:r])


def _factor_mean_abs(rows: list[TrigPoly], cols: list[TrigPoly], m: int,
                     n: int) -> float:
    """Mean of |sum_i a_i(x) b_i(y)| over the uniform m-grid in x times the
    n-grid in y, from the a_i (rows) and b_i (cols) sampled once each, summed
    over blocks of about SAMPLE_BLOCK points."""
    a, b = (np.array([p.sample_uniform(k) for p in ps]).reshape(-1, k).T
            for ps, k in ((rows, m), (cols, n)))
    step = max(1, SAMPLE_BLOCK // n)
    return sum(float(np.abs(a[i:i + step] @ b.T).sum())
               for i in range(0, m, step)) / (m * n)


def poly_l1(f: TrigPoly) -> float:
    """L1 norm (normalised measure) by grid averaging with doubling check.

    The grid starts at 8 (degree + 1) points per axis (refine_on_grid's
    default oversampling) and doubles at most 3 times, up to 4096 points per
    axis, until the mean moves by at most 1e-6 relatively.  Each grid samples
    the 2r one-dimensional factors of a rank-r factorisation of f
    (_rank_factors) and sums |f| from them in blocks of SAMPLE_BLOCK points:
    m^2 r work and a few MB whatever the grid, so the 4096 cap bounds the
    time only.  r is 1 for plateau_kernel and 2 for band_kernel; a full-rank
    f of high degree would cost more than a 2-D FFT.  The dropped singular
    values move each grid value by at most w^4 eps ||f||_1 for box width w.
    Non-finite coefficients raise ValueError.

    The doubling check may end at the cap rather than at 1e-6, and the value
    carries no status: on band_kernel(6) the last doubling, to 4096 points
    per axis, still moves it by 8.2e-5 relatively.  That is far below the
    margins of the bounds these norms feed into.
    """
    rows, cols = _rank_factors(f)
    return refine_on_grid(
        f, lambda m: _factor_mean_abs(rows, cols, m, m ** (f.dim - 1)),
        rel_tol=1e-6, max_doublings=3, max_grid=4096)[0]


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
