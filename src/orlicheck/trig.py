"""Trigonometric polynomials on the 1- and 2-torus in coefficient space.

A polynomial is stored as its centred coefficient box trimmed to its
degree (see TrigPoly), and every operation is array work on boxes: sums pad
and add, convolution crops both to the smaller degree and multiplies,
scaling and translation multiply entries.  All torus integrals use the
normalised measure (2 pi)^{-d} dx, so convolution is the coefficient-wise
product and the L2 norm is the Euclidean norm of the box.

Uniform sampling works on a stack of polynomials (sample_boxes), their boxes
padded to one width w = 2 degree + 1 (coefficient_boxes); each axis of the
stack is transformed by one of two routes.  A fixed rule on w and the grid
size m alone picks it (_by_matrix).  A box that is narrow against the grid
is multiplied by the (w, m) matrix of e^{ikx_j}, the input-pruned DFT
(J. D. Markel, "FFT pruning", IEEE Trans. Audio Electroacoust. 19 (1971)
305-311).  Any other box goes by a pruned inverse FFT: the axis is
zero-padded to the grid and transformed in place, so that no transform runs
over lines that are all zero.  Each matrix is built once per (w, m) from
unit boxes through the FFT route.  TrigPoly.sample_uniform is the one-row
case.  sample_abs_chunks hands out |values| of a stack chunk by chunk: each
chunk goes through sample_boxes, which alone picks the route, into a
complex buffer (filled on the matrix route only) and a float one, both
reused from chunk to chunk.  It owns the chunking of stacks as poly_l1 owns
its blocks, so SAMPLE_BLOCK is read in this module only.

Grid quadrature
---------------
refine_on_grid      the one oversample-and-double loop: from a degree, it
                    calls a functional of the grid size on uniform grids
                    that double until its value settles to ``rel_tol``, and
                    returns (value, grid, converged).  The functional may
                    return a vector, whose entries settle one by one.
                    luxemburg.poly_norm and the two sampling checks sample
                    each grid whole; luxemburg.poly_norms norms a stack
                    of coefficient boxes from sample_abs_chunks; poly_l1
                    samples only the 1-D factors of a rank factorisation of
                    f and sums |f| block by block from them, so its memory
                    does not grow with the grid and its 4096-point cap only
                    bounds its time (it stops there unconverged on the band
                    kernels).
                    It sums over one orbit of the symmetries the coefficient
                    box shows exactly: half of each axis along which f is
                    even, in real arithmetic when f is real-valued.

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
                    (-2^k, 2^k)^2 (its degree is 2^k - 1), so b_k lives on
                    the frame of level k.

The frame of level n >= 3 is the lattice annulus (-2^n, 2^n)^2 minus
[-2^{n-3}, 2^{n-3}]^2, a mask on the centred box of degree 2^n - 1, with the
uniform grid x_k = 2 pi (k + 2^n - 1)/(2^{n+1} - 1) over the same box: the
mask picks "samples on the frame" out of the grid values, in C order.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

# Points per block when poly_l1 sums |f| over a grid, and per chunk of rows
# when sample_abs_chunks samples a stack: the working set stays a few MB at
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
    "sample_abs_chunks",
    "poly_l1",
    "refine_on_grid",
    "poly_from_box",
]


def _norm_key(dim: int, key) -> tuple[int, ...]:
    key = key if isinstance(key, tuple) else (key,)
    if len(key) != dim:
        raise ValueError(f"lattice point {key} is not of dimension {dim}")
    return tuple(map(int, key))


def _integer(n, name: str) -> int:
    """n as an int; a ValueError naming it unless n is an int or np.integer."""
    if not isinstance(n, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, not {n!r}")
    return int(n)


def _times(a, b) -> np.ndarray:
    """Element-wise a b rounded as Python rounds complex products, each real
    product on its own; NumPy's complex multiply may fuse one into the sum
    (moving the last bit, differently on different CPUs)."""
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _centre(inner: int, outer: int, dim: int) -> tuple[slice, ...]:
    """Slices of the centred box of degree ``inner`` in that of ``outer``."""
    return (slice(outer - inner, outer + inner + 1),) * dim


def _radius(degree: int, dim: int) -> np.ndarray:
    """max_i |k_i| at each entry of the centred box of the degree."""
    r = np.abs(np.arange(-degree, degree + 1))
    return r if dim == 1 else np.maximum.outer(r, r)


def _trimmed(box: np.ndarray) -> np.ndarray:
    """The box less its all-zero outer rings (its centre if all zero),
    peeled ring by ring from the outside, so that a box whose outer ring is
    not all zero costs one pass over that ring."""
    d = r = box.shape[0] // 2
    while r > 0:
        core = box[_centre(r, d, box.ndim)]
        if core[::2 * r].any() or (box.ndim == 2 and core[:, ::2 * r].any()):
            break
        r -= 1
    return box if r == d else box[_centre(r, d, box.ndim)].copy()


class TrigPoly:
    """Finite Fourier series on Z or Z^2; immutable and pure.

    Stored as ``box``, the read-only complex128 (2 degree + 1)^dim array
    whose entry [k + degree] is the coefficient of e^{ik.x}, its outer ring
    not all zero (the zero polynomial is the (1,)*dim zero box).
    ``TrigPoly(dim, mapping)`` builds from a dict keyed by ints or tuples.
    ``coeffs`` holds the nonzero coefficients as a read-only tuple-keyed
    mapping in lexicographic order, built on demand; ``coeff(k)`` reads one
    (0 off the support).
    """

    def __init__(self, dim: int, coeffs: Mapping | None = None):
        clean = {_norm_key(dim, k): v for k, v in (coeffs or {}).items()}
        keys = np.array(list(clean), dtype=np.int64).reshape(len(clean), dim)
        d = int(np.abs(keys).max(initial=0))
        box = np.zeros((2 * d + 1,) * dim, dtype=complex)
        box[tuple((keys + d).T)] = np.array(list(clean.values()),
                                            dtype=complex)
        self._set(box)

    @classmethod
    def _of(cls, box: np.ndarray) -> "TrigPoly":
        """From a complex centred box owned by no writer."""
        return cls.__new__(cls)._set(box)

    def _set(self, box: np.ndarray) -> "TrigPoly":
        if box.ndim not in (1, 2):
            raise ValueError("dimension must be 1 or 2")
        box = _trimmed(box)
        box.flags.writeable = False
        self.dim, self.degree, self.box = box.ndim, box.shape[0] // 2, box
        return self

    def __eq__(self, other):
        if not isinstance(other, TrigPoly):
            return NotImplemented
        return self.dim == other.dim and np.array_equal(self.box, other.box)

    def __repr__(self) -> str:
        return f"TrigPoly({self.dim}, {dict(self.coeffs)!r})"

    @cached_property
    def _folded(self) -> tuple[np.ndarray, np.ndarray]:
        """The spectrum folded onto one half for sums of even functions of k:
        each mirror pair {k, -k} with a nonzero member as its member whose
        first nonzero coordinate is positive, a float (count, dim) array in
        lexicographic order, with the Parseval weight |c_k|^2 + |c_{-k}|^2;
        no zero mode.  In C order these members follow the centre, each
        mirror as far before it."""
        sq = np.abs(self.box.ravel()) ** 2
        c = sq.size // 2
        w = sq[c + 1:] + sq[:c][::-1]
        live = w != 0
        pts = np.indices(self.box.shape).reshape(self.dim, -1).T[c + 1:]
        return (pts[live] - self.degree).astype(float), w[live]

    @cached_property
    def coeffs(self) -> Mapping[tuple[int, ...], complex]:
        live = self.box != 0
        pts = np.argwhere(live) - self.degree
        return MappingProxyType(dict(zip(map(tuple, pts.tolist()),
                                         self.box[live].tolist())))

    def coeff(self, key) -> complex:
        return self.coeffs.get(_norm_key(self.dim, key), 0j)

    # -- algebra ------------------------------------------------------------

    def _combine(self, other: "TrigPoly", sign: float) -> "TrigPoly":
        """self + sign * other on the box of the larger degree; the sum is
        trimmed to its degree."""
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        d = max(self.degree, other.degree)
        out = np.zeros((2 * d + 1,) * self.dim, dtype=complex)
        out[_centre(self.degree, d, self.dim)] = self.box
        out[_centre(other.degree, d, self.dim)] += sign * other.box
        return TrigPoly._of(out)

    def __add__(self, other):
        return self._combine(other, 1.0)

    def __sub__(self, other):
        return self._combine(other, -1.0)

    def __mul__(self, scalar):
        return TrigPoly._of(_times(complex(scalar), self.box))

    __rmul__ = __mul__

    def translate(self, h) -> "TrigPoly":
        """f(. + h): multiply each coefficient by exp(i k . h), exact."""
        hv = np.atleast_1d(np.asarray(h, dtype=float))
        if hv.shape != (self.dim,):
            raise ValueError(f"shift needs {self.dim} components")
        axis = np.arange(-self.degree, self.degree + 1)
        phase = (axis * hv[0] if self.dim == 1  # one sum k.h, one exp
                 else np.add.outer(axis * hv[0], axis * hv[1]))
        return TrigPoly._of(_times(self.box, np.exp(1j * phase)))

    # -- evaluation ----------------------------------------------------------

    def eval_at(self, *points):
        """Direct summation sum c_k exp(i k . x) over all coefficients and
        points at once (count x points values: meant for few points)."""
        if len(points) != self.dim:
            raise ValueError(f"evaluation needs {self.dim} coordinates")
        xs = np.array(np.broadcast_arrays(*points), dtype=float)
        pts = np.array(list(self.coeffs), dtype=float).reshape(-1, self.dim)
        vals = np.array(list(self.coeffs.values()), dtype=complex)
        return np.tensordot(vals, np.exp(1j * np.tensordot(pts, xs, axes=1)),
                            axes=1)

    def sample_uniform(self, m: int) -> np.ndarray:
        """Values on the uniform grid 2 pi j / m per axis, j = 0..m-1, as an
        (m,)*dim array: the one-row case of sample_boxes.  Exact provided
        m >= 2*degree+1.
        """
        return sample_boxes(self.box[None], m)[0]

    def l2_norm(self) -> float:
        """L2 norm w.r.t. normalised measure = Euclidean coefficient norm,
        over the nonzero entries (zeros would regroup the BLAS sum)."""
        return float(np.linalg.norm(self.box[self.box != 0]))


def poly_from_box(box: np.ndarray) -> TrigPoly:
    """The polynomial whose coefficients fill the centred (2 d + 1)^dim box
    (entry [k + d] is the coefficient of e^{ik.x}), copied and trimmed."""
    if len(set(box.shape)) != 1 or box.shape[0] % 2 == 0:
        raise ValueError(f"box shape {box.shape} is not square of odd width")
    return TrigPoly._of(np.array(box, dtype=complex))


def coefficient_boxes(fs: Sequence[TrigPoly], degree: int) -> np.ndarray:
    """Stack the coefficients of fs, all of one dimension and of degree at
    most ``degree``, as rows of centred (2 degree + 1)^dim boxes: entry
    [r, k + degree] is the coefficient of e^{ik.x} in fs[r].  An empty
    stack, or a polynomial of another dimension or of a larger degree,
    raises ValueError."""
    if not fs:
        raise ValueError("a stack needs at least one polynomial")
    dim = fs[0].dim
    boxes = np.zeros((len(fs),) + (2 * degree + 1,) * dim, dtype=complex)
    for r, f in enumerate(fs):
        if f.dim != dim or f.degree > degree:
            raise ValueError(f"a {f.dim}-D polynomial of degree {f.degree} "
                             f"does not fit a {dim}-D box of degree {degree}")
        boxes[(r,) + _centre(f.degree, degree, dim)] = f.box
    return boxes


def _by_matrix(width: int, m: int) -> bool:
    """The route rule of sample_boxes: a box of width w goes by the
    exponential matrix on an m-grid where w <= 3 bit_length(m) and the
    (w, m) matrix has at most 2^15 entries (512 KB, so the matrices that
    _exp_matrix caches stay small), otherwise by the FFT.  The matrix route
    costs about w complex products per value and axis, the FFT route a
    multiple of log2(m).  In every case measured under the rule (one row
    and chunks of rows, 1-D and 2-D, m from 15 to 4096, single-threaded
    BLAS) the matrix route was 1.38 to 10.7 times as fast.  Beyond it the
    FFT route won 41 of 98 cases.  Width 31 on 128- and 256-point grids
    stays on the FFT: one 2-D row there timed up to 1.3 times faster by the
    matrix alone, but slower inside the sampling checks."""
    return width <= 3 * operator.index(m).bit_length() and width * m <= 2 ** 15


def _sample_fft(boxes: np.ndarray, m: int) -> np.ndarray:
    """The FFT route of sample_boxes, as a fresh array: each axis in turn
    is zero-padded to m at the indices k mod m and inverse-transformed in
    place, so each transform runs only over the slab of lines that can be
    nonzero.  Each slab is a fresh np.zeros, whose zero pages cost less
    than zeroing a reused buffer (2.3 against 3.2 ms for 1024^2 points).

    A grid smaller than the box width aliases and raises ValueError; the
    exponential matrices are built through this route, so no matrix of
    such a grid exists either."""
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


@lru_cache(maxsize=32)
def _exp_matrix(width: int, m: int) -> np.ndarray:
    """The read-only (width, m) matrix whose row k + d holds e^{ikx_j} on the
    m-grid, for k = -d..d: the FFT route's samples of the unit boxes, so
    the two routes share these entries."""
    e = _sample_fft(np.eye(width, dtype=complex), m)
    e.flags.writeable = False
    return e


def _sample_matrix(boxes: np.ndarray, m: int,
                   out: np.ndarray) -> np.ndarray:
    """The matrix route of sample_boxes, into the C-contiguous complex
    array ``out`` of its shape: with E the exponential matrix, boxes @ E
    for a 1-D stack and (E^T @ boxes) @ E, the second product as one
    matrix over all rows, for a 2-D one."""
    width = boxes.shape[-1]
    e = _exp_matrix(width, m)
    if boxes.ndim == 2:
        return np.matmul(boxes, e, out=out)
    np.matmul(np.matmul(e.T, boxes).reshape(-1, width), e,
              out=out.reshape(-1, m))
    return out


def sample_boxes(boxes: np.ndarray, m: int,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Values on the uniform m-grid of the polynomials stacked in ``boxes``
    (see coefficient_boxes), as a (rows,) + (m,)*dim complex array.

    Exact provided m >= 2*degree+1, so that the folded indices k mod m are
    distinct.  Each axis goes by one of two routes, picked by _by_matrix
    from the box width w and m alone: a product with the (w, m) matrix of
    e^{ikx_j} (_sample_matrix) when w is small against m, otherwise a pruned
    inverse FFT over the row axis (_sample_fft).  The two agree to rounding.
    The matrix route writes into ``out`` when it is given (a C-contiguous
    complex array of the result's shape) and into a fresh array otherwise;
    the FFT route always returns a fresh array and leaves ``out`` alone.
    """
    if not _by_matrix(boxes.shape[-1], m):
        return _sample_fft(boxes, m)
    if out is None:
        out = np.empty(boxes.shape[:1] + (m,) * (boxes.ndim - 1),
                       dtype=complex)
    return _sample_matrix(boxes, m, out)


def sample_abs_chunks(boxes: np.ndarray, m: int) -> Iterator[np.ndarray]:
    """|values| on the uniform m-grid of the polynomials stacked in
    ``boxes``, chunk by chunk: consecutive rows of at most SAMPLE_BLOCK grid
    points (at least one row), each chunk a (rows, m**dim) float array; an
    empty stack yields nothing.

    Each chunk is sampled by sample_boxes into one complex buffer, and its
    modulus is written into one float buffer, both allocated once per call.
    The matrix route fills the complex buffer; the FFT route leaves it
    untouched and pads fresh zero slabs per chunk.  So each chunk handed out
    is a view that the next one overwrites: use it, or copy it, before
    asking for the next.
    """
    dim = boxes.ndim - 1
    step = max(1, min(len(boxes), SAMPLE_BLOCK // m ** dim))
    values = np.empty((step,) + (m,) * dim, dtype=complex)
    mags = np.empty((step, m ** dim))
    for r in range(0, len(boxes), step):
        chunk = boxes[r:r + step]
        z = sample_boxes(chunk, m, out=values[:len(chunk)])
        yield np.abs(z.reshape(len(chunk), -1), out=mags[:len(chunk)])


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64, typed=True)
def fejer(n: int) -> TrigPoly:
    """1-D kernel with coefficients 1 - |k|/(n+1), k in [-n, n]."""
    n = _integer(n, "fejer order")
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


@lru_cache(maxsize=32, typed=True)
def plateau_kernel(k: int) -> TrigPoly:
    """2-D product kernel with coefficient plateau 1 on [-2^k, 2^k]^2.

    k = -1 is the single coefficient 1 at the origin; every k >= 0 uses the
    product formula (at k = 0 the factor is 1 + 2cos x, plateau [-1, 1]).
    """
    k = _integer(k, "plateau_kernel index")
    if k < -1:
        raise ValueError("index must be >= -1")
    if k == -1:
        return TrigPoly(2, {(0, 0): 1.0})
    fac = _plateau_factor(k)
    return poly_from_box(np.multiply.outer(fac, fac))


@lru_cache(maxsize=32, typed=True)
def band_kernel(k: int) -> TrigPoly:
    """Telescoping band kernels: b_0 = plateau(-1), b_1 = plateau(0),
    b_{k+1} = plateau_kernel(k) - plateau_kernel(k-2)."""
    k = _integer(k, "band_kernel index")
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

    mask: a read-only boolean (grid_size, grid_size) array, grid_size =
    2^{n+1} - 1, set at [k + 2^n - 1] for the omega points k of Z^2 in
    (-2^n, 2^n)^2 minus [-2^{n-3}, 2^{n-3}]^2; the grid has grid_size
    equispaced points per axis, and frame index k sits at the angle
    2 pi (k + 2^n - 1) / grid_size.
    """

    level: int
    mask: np.ndarray
    omega: int
    grid_size: int


@lru_cache(maxsize=32, typed=True)
def frame(n: int) -> Frame:
    """Frame of level n >= 3 (smaller n leaves no hole to remove)."""
    n = _integer(n, "frame level")
    if n < 3:
        raise ValueError("frame level must be >= 3")
    mask = _radius(2 ** n - 1, 2) > 2 ** (n - 3)
    mask.flags.writeable = False
    return Frame(n, mask, int(np.count_nonzero(mask)), 2 ** (n + 1) - 1)


def convolve(g: TrigPoly, f: TrigPoly) -> TrigPoly:
    """Convolution w.r.t. normalised measure: coefficient-wise product of
    the two boxes cropped to the smaller degree."""
    if g.dim != f.dim:
        raise ValueError("dimension mismatch")
    d = min(g.degree, f.degree)
    return TrigPoly._of(_times(g.box[_centre(d, g.degree, g.dim)],
                               f.box[_centre(d, f.degree, f.dim)]))


def sample_on_grid(f: TrigPoly, fr: Frame) -> np.ndarray:
    """Values f(x_k, y_l) for (k, l) in the frame, in index order (the C
    order of the mask).

    The frame grid point of index k is at angle 2 pi (k + 2^n - 1)/M with
    M = 2^{n+1} - 1, i.e. the standard uniform M-grid re-indexed, so one
    padded FFT evaluates all of them and the mask picks the frame's.
    """
    if f.dim != 2:
        raise ValueError("frame sampling needs a 2-D polynomial")
    return f.sample_uniform(fr.grid_size)[fr.mask]


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


def _rank_factors(f: TrigPoly) -> tuple[list[TrigPoly], list[TrigPoly],
                                         tuple[bool, bool, bool]]:
    """1-D polynomials a_i, b_i with f(x, y) = sum_i a_i(x) b_i(y), from the
    SVD U S V^H of the coefficient box: a_i = s_i u_i and b_i = conj(v_i),
    keeping the singular values above numpy's matrix_rank cut s_0 w eps for
    box width w; a real box is factored in real arithmetic.  A 1-D f is the
    (w, 1) box, whose b is a constant.

    Also the symmetries the box shows exactly: (even in x, even in y, real)
    for a box equal to its mirror along axis 0, along axis 1, and to the
    conjugate of its mirror through the centre (a Hermitian box)."""
    if not np.isfinite(f.box).all():
        named = {k: c for k, c in f.coeffs.items() if not cmath.isfinite(c)}
        raise ValueError(f"non-finite coefficients {named}")
    box = f.box.reshape(2 * f.degree + 1, -1)
    sym = (np.array_equal(box, box[::-1]), np.array_equal(box, box[:, ::-1]),
           np.array_equal(box, box[::-1, ::-1].conj()))
    u, s, vh = np.linalg.svd(box if box.imag.any() else box.real)
    r = int(np.count_nonzero(s > s[0] * max(box.shape) * np.finfo(float).eps))
    return ([poly_from_box(c) for c in (u[:, :r] * s[:r]).T],
            [poly_from_box(c) for c in vh[:r]], sym)


def _fold_weights(m: int, even: bool) -> np.ndarray:
    """Weights of the points 2 pi j / m of one axis in a sum over the grid:
    all m points at weight 1, or for an even function only j = 0..m//2, at
    weight 2 where the mirror point m - j is another point (they sum to m)."""
    if not even:
        return np.ones(m)
    w = np.full(m // 2 + 1, 2.0)
    w[0] = 1.0
    if m % 2 == 0:
        w[-1] = 1.0
    return w


def _factor_mean_abs(rows: list[TrigPoly], cols: list[TrigPoly],
                     sym: tuple[bool, bool, bool], m: int, n: int) -> float:
    """Mean of |sum_i a_i(x) b_i(y)| over the uniform m-grid in x times the
    n-grid in y, from the a_i (rows) and b_i (cols) sampled once each and the
    symmetries sym of _rank_factors, summed over blocks of about SAMPLE_BLOCK
    points.  An even axis sums one half with _fold_weights; a real f takes
    the real part of each block by one real product,
    Re(A B^T) = [Re A, Im A] [Re B, -Im B]^T."""
    even_x, even_y, real = sym
    wx, wy = _fold_weights(m, even_x), _fold_weights(n, even_y)
    a, b = (np.array([p.sample_uniform(k) for p in ps])
            .reshape(-1, k)[:, :len(w)].T
            for ps, k, w in ((rows, m, wx), (cols, n, wy)))
    if real:
        a = np.concatenate([a.real, a.imag], axis=1)
        b = np.concatenate([b.real, -b.imag], axis=1)
    step = max(1, SAMPLE_BLOCK // len(wy))
    total = 0.0
    for i in range(0, len(wx), step):
        blk = a[i:i + step] @ b.T
        blk = np.abs(blk, out=blk) if real else np.abs(blk)
        total += float(wx[i:i + step] @ (blk @ wy))
    return total / (m * n)


def poly_l1(f: TrigPoly) -> float:
    """L1 norm (normalised measure) by grid averaging with doubling check.

    The grid starts at 8 (degree + 1) points per axis (refine_on_grid's
    default oversampling) and doubles at most 3 times, up to 4096 points per
    axis, until the mean moves by at most 1e-6 relatively.  Each grid samples
    the 2r one-dimensional factors of a rank-r factorisation of f
    (_rank_factors) and sums |f| from them in blocks of SAMPLE_BLOCK points,
    a few MB whatever the grid, so the 4096 cap bounds the time only.  The
    sum runs over one orbit of the symmetries that f's coefficient box shows
    exactly (_factor_mean_abs): along an axis where the box equals its
    mirror, f is even and only the points 0..m/2 are summed, each weighted
    by the size of its orbit; if the box is Hermitian, f is real and each
    block is one real product of inner dimension 2r.  The grid value is the
    full-grid mean to rounding.  A real, even f such as plateau_kernel
    (r = 1) or band_kernel (r = 2) costs (m/2 + 1)^2 real entries per grid,
    any other f m^2 r complex ones; a full-rank f of high degree would cost
    more than a 2-D FFT.  The dropped singular values move each grid value
    by at most w^4 eps ||f||_1 for box width w.  Non-finite coefficients
    raise ValueError.

    The doubling check may end at the cap rather than at 1e-6, and the value
    carries no status: on band_kernel(6) the last doubling, to 4096 points
    per axis, still moves it by 8.2e-5 relatively; summing one orbit keeps
    the grids, the cap and that value, so it is still uncertified.  That is
    far below the margins of the bounds these norms feed into.
    """
    rows, cols, sym = _rank_factors(f)
    return refine_on_grid(
        f.degree,
        lambda m: _factor_mean_abs(rows, cols, sym, m, m ** (f.dim - 1)),
        rel_tol=1e-6, max_doublings=3, max_grid=4096)[0]
