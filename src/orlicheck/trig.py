"""Trigonometric polynomials on the 1- and 2-torus in coefficient space.

A polynomial is stored as its sorted support ks and its coefficients cs
(see TrigPoly), and every operation is array work on them: sums merge the
supports, convolution intersects them, scaling and translation multiply cs.
Kernels and random polynomials are built as centred coefficient boxes
(poly_from_box).  All torus integrals use the normalised measure
(2 pi)^{-d} dx, so convolution is the coefficient-wise product and the L2
norm is the Euclidean norm of cs.  Uniform sampling is one pruned inverse
FFT over a stack of polynomials (sample_boxes): their coefficients fill rows
of centred (2 degree + 1)^dim boxes (coefficient_boxes), and each axis in
turn is zero-padded to the grid and transformed in place over all rows, so
no transform runs over lines that are all zero.  TrigPoly.sample_uniform is
the one-row case.

Grid quadrature
---------------
refine_on_grid      the one oversample-and-double loop: from a degree, it
                    calls a functional of the grid size on uniform grids
                    that double until its value settles to ``rel_tol``, and
                    returns (value, grid, converged).  The functional may
                    return a vector, whose entries settle one by one.
                    luxemburg.poly_norm and the two sampling checks sample
                    each grid whole; luxemburg.poly_norms samples a stack of
                    coefficient boxes in chunks of rows; poly_l1 samples only
                    the 1-D factors of a rank factorisation of f and sums |f|
                    block by block from them, so its memory does not grow
                    with the grid and its 4096-point cap only bounds its
                    time (it stops there unconverged on the band kernels).

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
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

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
    "poly_from_box",
]


def _norm_key(dim: int, key) -> tuple[int, ...]:
    key = key if isinstance(key, tuple) else (key,)
    if len(key) != dim:
        raise ValueError(f"lattice point {key} is not of dimension {dim}")
    return tuple(map(int, key))


def _linear(ks: np.ndarray, base: int) -> np.ndarray:
    """One int per lattice point of ks, increasing in lexicographic order,
    for coordinates |k_i| < base / 2."""
    return ks[:, 0] * base + ks[:, 1] if ks.shape[1] == 2 else ks[:, 0]


def _times(a, b) -> np.ndarray:
    """Element-wise a b rounded as Python rounds complex products, each real
    product on its own; NumPy's complex multiply may fuse one into the sum
    (moving the last bit, differently on different CPUs)."""
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


class TrigPoly:
    """Finite Fourier series on Z or Z^2; immutable and pure.

    Stored as ``ks``, the read-only int64 (count, dim) array of the lattice
    points with a nonzero coefficient in lexicographic order, and ``cs``,
    their read-only complex128 coefficients.  ``TrigPoly(dim, mapping)``
    builds from a dict keyed by ints or tuples.  ``coeffs`` holds the same
    data as a read-only tuple-keyed mapping, built on demand; ``coeff(k)``
    reads one entry (0 off the support).  ``degree`` is max |k_i| over the
    support.
    """

    def __init__(self, dim: int, coeffs: Mapping | None = None):
        clean = {_norm_key(dim, k): v for k, v in (coeffs or {}).items()}
        ks = np.array(list(clean), dtype=np.int64).reshape(len(clean), dim)
        order = np.lexsort(ks.T[::-1])
        self._set(dim, ks[order],
                  np.array(list(clean.values()), dtype=complex)[order])

    @classmethod
    def from_arrays(cls, dim: int, ks, cs) -> "TrigPoly":
        """From distinct lattice points ks, an int (count, dim) array in
        lexicographic order, and their coefficients cs; both are copied."""
        cs = np.array(cs, dtype=complex).ravel()
        ks = np.array(ks, dtype=np.int64).reshape(len(cs), dim)
        lin = _linear(ks, 2 * int(np.abs(ks).max(initial=0)) + 1)
        if np.any(lin[1:] <= lin[:-1]):
            raise ValueError("lattice points must be distinct and in "
                             "lexicographic order")
        return cls._of(dim, ks, cs)

    @classmethod
    def _of(cls, dim: int, ks: np.ndarray, cs: np.ndarray) -> "TrigPoly":
        """from_arrays for arrays known to be valid and owned by no writer."""
        return cls.__new__(cls)._set(dim, ks, cs)

    def _set(self, dim: int, ks: np.ndarray, cs: np.ndarray) -> "TrigPoly":
        if dim not in (1, 2):
            raise ValueError("dimension must be 1 or 2")
        live = cs != 0
        if not live.all():
            ks, cs = ks[live], cs[live]
        ks.flags.writeable = cs.flags.writeable = False
        self.dim, self.ks, self.cs = dim, ks, cs
        return self

    @cached_property
    def degree(self) -> int:
        return int(np.abs(self.ks).max(initial=0))

    def __eq__(self, other):
        if not isinstance(other, TrigPoly):
            return NotImplemented
        return (self.dim == other.dim and np.array_equal(self.ks, other.ks)
                and np.array_equal(self.cs, other.cs))

    def __repr__(self) -> str:
        return f"TrigPoly({self.dim}, {dict(self.coeffs)!r})"

    @cached_property
    def _folded(self) -> tuple[np.ndarray, np.ndarray]:
        """The spectrum folded onto one half for sums of even functions of k:
        each mirror pair {k, -k} as its member whose first nonzero coordinate
        is positive, a float (count, dim) array, with the Parseval weight
        |c_k|^2 + |c_{-k}|^2 (|c_k|^2 for a mode without its mirror).  The
        zero mode is dropped."""
        live = self.ks.any(axis=1)
        ks, cs = self.ks[live], self.cs[live]
        lead = ks[np.arange(len(ks)), (ks != 0).argmax(axis=1)]
        reps, slot = np.unique(ks * np.sign(lead)[:, None], axis=0,
                               return_inverse=True)
        w = np.bincount(slot.ravel(), weights=np.abs(cs) ** 2,
                        minlength=len(reps))
        return reps.astype(float), w

    @cached_property
    def coeffs(self) -> Mapping[tuple[int, ...], complex]:
        return MappingProxyType(dict(zip(map(tuple, self.ks.tolist()),
                                         self.cs.tolist())))

    def coeff(self, key) -> complex:
        return self.coeffs.get(_norm_key(self.dim, key), 0j)

    # -- algebra ------------------------------------------------------------

    def _combine(self, other: "TrigPoly", sign: float) -> "TrigPoly":
        """self + sign * other on the merged support; a coefficient that
        cancels to exactly 0 is dropped."""
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        base = 2 * max(self.degree, other.degree) + 1
        _, first, slot = np.unique(
            np.concatenate([_linear(self.ks, base), _linear(other.ks, base)]),
            return_index=True, return_inverse=True)
        cs = np.zeros(len(first), dtype=complex)
        cs[slot[:len(self.cs)]] = self.cs
        cs[slot[len(self.cs):]] += sign * other.cs
        return TrigPoly._of(
            self.dim, np.concatenate([self.ks, other.ks])[first], cs)

    def __add__(self, other):
        return self._combine(other, 1.0)

    def __sub__(self, other):
        return self._combine(other, -1.0)

    def __mul__(self, scalar):
        return TrigPoly._of(self.dim, self.ks,
                            _times(complex(scalar), self.cs))

    __rmul__ = __mul__

    def translate(self, h) -> "TrigPoly":
        """f(. + h): multiply each coefficient by exp(i k . h), exact."""
        hv = np.atleast_1d(np.asarray(h, dtype=float))
        if hv.shape != (self.dim,):
            raise ValueError(f"shift needs {self.dim} components")
        phase = (self.ks * hv).sum(axis=1)
        return TrigPoly._of(self.dim, self.ks,
                            _times(self.cs, np.exp(1j * phase)))

    # -- evaluation ----------------------------------------------------------

    def eval_at(self, *points):
        """Direct summation sum c_k exp(i k . x) over all coefficients and
        points at once (count x points values: meant for few points)."""
        if len(points) != self.dim:
            raise ValueError(f"evaluation needs {self.dim} coordinates")
        xs = np.array(np.broadcast_arrays(*points), dtype=float)
        return np.tensordot(self.cs,
                            np.exp(1j * np.tensordot(self.ks, xs, axes=1)),
                            axes=1)

    def sample_uniform(self, m: int) -> np.ndarray:
        """Values on the uniform grid 2 pi j / m per axis, j = 0..m-1, as an
        (m,)*dim array: the one-row case of sample_boxes.  Exact provided
        m >= 2*degree+1.
        """
        return sample_boxes(coefficient_boxes([self], self.degree), m)[0]

    def l2_norm(self) -> float:
        """L2 norm w.r.t. normalised measure = Euclidean coefficient norm."""
        return float(np.linalg.norm(self.cs))


def poly_from_box(box: np.ndarray) -> TrigPoly:
    """The polynomial whose coefficients fill the centred (2 d + 1)^dim box
    (entry [k + d] is the coefficient of e^{ik.x}); the box is copied."""
    d = (box.shape[0] - 1) // 2
    axis = np.arange(-d, d + 1)
    ks = np.stack(np.meshgrid(*(axis,) * box.ndim, indexing="ij"), axis=-1)
    return TrigPoly._of(box.ndim, ks.reshape(-1, box.ndim),
                        box.astype(complex).ravel())


def coefficient_boxes(fs: Sequence[TrigPoly], degree: int) -> np.ndarray:
    """Stack the coefficients of fs, all of one dimension and of degree at
    most ``degree``, as rows of centred (2 degree + 1)^dim boxes: entry
    [r, k + degree] is the coefficient of e^{ik.x} in fs[r]."""
    boxes = np.zeros((len(fs),) + (2 * degree + 1,) * fs[0].dim,
                     dtype=complex)
    for r, f in enumerate(fs):
        boxes[(r,) + tuple((f.ks + degree).T)] = f.cs
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
    return poly_from_box(1.0 - np.abs(np.arange(-n, n + 1)) / (n + 1))


def _plateau_factor(k: int) -> np.ndarray:
    """1-D coefficients on [-2^{k+1}, 2^{k+1}] as a centred box: triangle of
    half-width 2^k convolved with the three shifts {-2^k, 0, 2^k};
    identically 1 on [-2^k, 2^k] and 0 at both ends."""
    m = 2 ** k
    j = np.arange(-2 * m, 2 * m + 1)
    tri = lambda j: np.maximum(0.0, 1.0 - np.abs(j) / m)
    return tri(j) + tri(j - m) + tri(j + m)


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
    return poly_from_box(np.multiply.outer(fac, fac))


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

@dataclass(frozen=True, eq=False)
class Frame:
    """Dyadic lattice annulus with its Marcinkiewicz sampling grid.

    ks = Z^2 intersected with (-2^n, 2^n)^2 minus [-2^{n-3}, 2^{n-3}]^2, a
    read-only int64 (omega, 2) array in lexicographic order; the grid has
    grid_size = 2^{n+1} - 1 equispaced points per axis, and the frame index
    k sits at the angle 2 pi (k + 2^n - 1) / grid_size.
    """

    level: int
    ks: np.ndarray
    omega: int
    grid_size: int


@lru_cache(maxsize=32)
def frame(n: int) -> Frame:
    """Frame of level n >= 3 (smaller n leaves no hole to remove)."""
    if n < 3:
        raise ValueError("frame level must be >= 3")
    axis = np.arange(1 - 2 ** n, 2 ** n)
    ks = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1)
    ks = ks[np.abs(ks).max(axis=-1) > 2 ** (n - 3)]
    ks.flags.writeable = False
    return Frame(n, ks, len(ks), 2 ** (n + 1) - 1)


def convolve(g: TrigPoly, f: TrigPoly) -> TrigPoly:
    """Convolution w.r.t. normalised measure: coefficient-wise product, on
    the intersection of the two sorted supports (each point of the smaller
    one is looked up in the larger by binary search)."""
    if g.dim != f.dim:
        raise ValueError("dimension mismatch")
    small, large = (g, f) if len(g.cs) <= len(f.cs) else (f, g)
    base = 2 * max(g.degree, f.degree) + 1
    lin, key = _linear(large.ks, base), _linear(small.ks, base)
    at = np.minimum(np.searchsorted(lin, key), len(lin) - 1)
    hit = lin[at] == key
    return TrigPoly._of(g.dim, small.ks[hit],
                        _times(small.cs[hit], large.cs[at[hit]]))


def sample_on_grid(f: TrigPoly, fr: Frame) -> np.ndarray:
    """Values f(x_k, y_l) for (k, l) in the frame, in index order.

    The frame grid point of index k is at angle 2 pi (k + 2^n - 1)/M with
    M = 2^{n+1} - 1, i.e. the standard uniform M-grid re-indexed, so one
    padded FFT evaluates all of them.
    """
    if f.dim != 2:
        raise ValueError("frame sampling needs a 2-D polynomial")
    values = f.sample_uniform(fr.grid_size)
    return values[tuple((fr.ks + 2 ** fr.level - 1).T)]


def refine_on_grid(degree: int, value: Callable[[int], object], *,
                   oversample: int = 8, rel_tol: float, max_doublings: int,
                   max_grid: float = math.inf) -> tuple:
    """Grid quadrature with a doubling check: (value, grid, converged).

    Calls ``value(m)`` for uniform m-grids per axis, starting from
    m = max(8, oversample * (degree + 1)) capped at ``max_grid`` but never
    below the Nyquist size 2 * degree + 1, and doubles m while
    2m <= max_grid, at most ``max_doublings`` times.  ``value`` samples a
    polynomial of that degree, a stack of them, or the 1-D factors of one,
    on the m-grid itself (see sample_boxes, poly_l1), and returns a float or
    a vector.  Each entry freezes, converged, at the first grid where it
    moved by at most ``rel_tol`` relatively; the loop stops once all have,
    and an entry that never did keeps the last grid's value, not converged.
    The grid is the last one visited; value and converged have its shape.
    """
    m = max(min(max(8, oversample * (degree + 1)), max_grid), 2 * degree + 1)
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
    bad = ~np.isfinite(f.cs)
    if bad.any():
        named = dict(zip(map(tuple, f.ks[bad].tolist()), f.cs[bad].tolist()))
        raise ValueError(f"non-finite coefficients {named}")
    box = coefficient_boxes([f], f.degree)[0].reshape(2 * f.degree + 1, -1)
    u, s, vh = np.linalg.svd(box)
    r = int(np.count_nonzero(s > s[0] * max(box.shape) * np.finfo(float).eps))
    return ([poly_from_box(c) for c in (u[:, :r] * s[:r]).T],
            [poly_from_box(c) for c in vh[:r]])


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
        f.degree, lambda m: _factor_mean_abs(rows, cols, m, m ** (f.dim - 1)),
        rel_tol=1e-6, max_doublings=3, max_grid=4096)[0]
