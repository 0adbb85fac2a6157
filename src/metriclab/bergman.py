"""Finite-degree Bergman kernel approximation and the induced metric density.

The kernel is built by orthonormalizing monomials against the discrete area
inner product of a quadrature grid.  With V the Vandermonde matrix of the
nodes and W the diagonal of weights, the weighted Vandermonde W^{1/2} V is
factorized by a stacked QR, W^{1/2} V = Q R, which merges one node block at
a time into the triangle R (LAPACK's triangular-pentagonal ``ztpqrt``), and
the basis is phi_j = sum_k B_{jk} zeta^k with B = R^{-T}: its values at the
nodes are the columns of Q = W^{1/2} V R^{-1}.  Neither Q nor the Gram matrix
V^H W V is ever formed.  Then

    K(z, w)  = sum_j phi_j(z) conj(phi_j(w))
    rho(z)^2 = d^2/(dz dzbar) log K(z, z)
             = (K * K_zzbar - K_z * conj(K_z)) / K^2,

with the derivatives taken termwise on the basis (no finite differences,
which would cancel catastrophically near the boundary).

The monomial variable zeta = (z - center)/scale is an affine renormalization
of the plane that conditions the basis for off-center domains; kernel and
density values are always reported in original z units.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.blas import zherk
from scipy.linalg.lapack import zpotrf, ztpqrt

from .errors import DomainError, FactorizationError, KernelInstabilityError
from .geometry import (
    DomainSpec,
    QuadratureGrid,
    capacity_radius,
    contains,
    gauss_quadrature_grid,
)

# grid nodes per block of the kernel fit, in the stacked QR and in every
# grid_overlap pass.  A degree-72 block of W^{1/2} V is 4096 x 73 complex,
# 4.8 MB, which stays in cache while ztpqrt merges it into R; 65,536-row
# panels (75 MB) made the fit stream memory.  Interleaved degree-72 fits
# of the 1.5 x 1 ellipse at h = 0.01 (271,617 nodes) on a 2-core Xeon with
# 2 MB L2: with one BLAS thread the orthonormalization took a median of
# 1.66, 1.64, 1.63 and 1.83 CPU s for 1,024, 2,048, 4,096 and 8,192 rows,
# but with two OpenBLAS threads, whose threading of the small gemm and
# zherk calls costs more than it saves, 6.1, 3.4, 2.2 and 2.6 s wall.
# The whole fit with its grid build, 4,096 rows, took 1.3-1.9 CPU s with
# one thread and 2.2-2.8 s wall with two.
_NODE_CHUNK = 4096
# column block of ztpqrt's compact WY updates.  The degree-72 QR pass above
# in 4,096-row blocks took a median of 0.53 CPU s for 8 columns, 0.42-0.43
# for 12 and 16, 0.52-0.55 for 24 and 32 and 1.34 for all 73
_TPQRT_BLOCK = 16
# points per block of a density evaluation: keeps its N x (degree+1)
# temporaries cache-sized
_DENSITY_BLOCK = 512
# degree panels of a density block's basis product.  The basis values of
# degrees [lo, hi) need only the powers zeta^0..zeta^(hi-1), so k equal
# panels do (k+1)/(2k) of the full product's arithmetic in k smaller
# products.  At degree 72 with one BLAS thread on a 2-core Xeon (fastest
# of 40 interleaved rounds) 512-point calls took 1.64, 1.54, 1.54 and
# 1.55 us per point with 1, 2, 3 and 4 panels, 100-point calls 1.92,
# 1.84, 1.84 and 1.93; 3 ties with 2 and does less arithmetic, which
# counts for more at higher degrees
_DENSITY_PANELS = 3


@dataclass
class _DensityWorkspace:
    """What every density block of one model reuses: the stacked
    coefficients of each degree panel and the block's buffers."""

    panels: list            # (hi, [B^T | D] rows :hi of the panel's columns)
    vander: np.ndarray      # flat room for a block's powers of zeta
    out: np.ndarray         # (_DENSITY_BLOCK, panels, 2, width): phi, phi'


def _density_workspace(model: KernelModel) -> _DensityWorkspace:
    """Panels of [B^T | D], D[m, j] = (m+1) B[j, m+1] / scale, so that
    phi_j = sum_m zeta^m B^T[m, j] and phi_j' = sum_m zeta^m D[m, j], the
    derivative taken in the original z variable.  The panels are equally
    wide; columns past degree N are zero and add nothing."""
    n = model.degree + 1
    width = -(-n // _DENSITY_PANELS)
    bt = np.zeros((n, _DENSITY_PANELS * width), dtype=complex)
    bt[:, :n] = model.coefficients.T
    d = np.zeros_like(bt)
    d[:-1] = np.arange(1, n)[:, None] * bt[1:] / model.scale
    panels = []
    for lo in range(0, _DENSITY_PANELS * width, width):
        hi = min(lo + width, n)
        panels.append((hi, np.hstack([bt[:hi, lo:lo + width], d[:hi, lo:lo + width]])))
    return _DensityWorkspace(
        panels=panels,
        vander=np.empty(_DENSITY_BLOCK * n, dtype=complex),
        out=np.empty((_DENSITY_BLOCK, _DENSITY_PANELS, 2, width), dtype=complex),
    )


@dataclass
class KernelModel:
    """Orthonormalized kernel basis: phi_j(z) = sum_{k<=j} B[j,k] zeta(z)^k.

    The density workspace is built from ``coefficients`` on the first
    density call, so the coefficients are not to be changed after it.
    """

    degree: int
    coefficients: np.ndarray      # (N+1, N+1) complex lower-triangular
    center: complex = 0.0
    scale: float = 1.0
    grid_descriptor: str = ""
    domain: DomainSpec | None = None
    orthonormality_defect: float = field(default=0.0)
    _workspace: _DensityWorkspace | None = field(
        default=None, init=False, repr=False, compare=False)

    # -- basis evaluation --------------------------------------------------

    def _zeta(self, z: np.ndarray) -> np.ndarray:
        return (z - self.center) / self.scale

    def basis_values(self, z) -> np.ndarray:
        """phi_j(z) for all j; output shape = z.shape + (N+1,)."""
        zz = np.asarray(z, dtype=complex)
        V = np.vander(self._zeta(zz).ravel(), self.degree + 1, increasing=True)
        out = V @ self.coefficients.T
        return out.reshape(zz.shape + (self.degree + 1,))


def kernel_eval(model: KernelModel, z, w):
    """K(z, w) = sum_j phi_j(z) conj(phi_j(w)); broadcasts elementwise."""
    pz = model.basis_values(z)
    pw = model.basis_values(w)
    out = np.einsum("...j,...j->...", pz, np.conj(pw))
    return complex(out) if out.ndim == 0 else out


def kernel_cross(model: KernelModel, zs, ws) -> np.ndarray:
    """Kernel matrix K(z_i, w_j) for two point arrays."""
    pz = model.basis_values(np.asarray(zs, dtype=complex).ravel())
    pw = model.basis_values(np.asarray(ws, dtype=complex).ravel())
    return pz @ pw.conj().T


def _density_terms(model: KernelModel, z: np.ndarray):
    """(K, K_z, K_zzbar) on the diagonal at the points z (at most
    _DENSITY_BLOCK of them), from one product per degree panel in the
    model's workspace."""
    if model._workspace is None:
        model._workspace = _density_workspace(model)
    ws = model._workspace
    p, n = z.size, model.degree + 1
    # column-major and contiguous, so each power is one run of memory:
    # numpy would buffer a strided 2-D operand in fresh arrays
    V = ws.vander[:p * n].reshape((p, n), order="F")
    V[:, 0] = 1.0
    if n > 1:
        np.subtract(z, model.center, out=V[:, 1])
        V[:, 1] /= model.scale
    # powers by doubling: zeta^(s-1+j) = zeta^(s-1) zeta^j
    s = 2
    while s < n:
        e = min(2 * s - 1, n)
        np.multiply(V[:, 1:e - s + 1], V[:, s - 1:s], out=V[:, s:e])
        s = e
    out = ws.out[:p]
    for k, (hi, C) in enumerate(ws.panels):
        np.matmul(V[:, :hi], C, out=out[:, k].reshape(p, -1))
    flat = out.view(float)
    A = np.einsum("ikj,ikj->i", flat[:, :, 0], flat[:, :, 0])
    Azz = np.einsum("ikj,ikj->i", flat[:, :, 1], flat[:, :, 1])
    # vecdot conjugates its first argument: sum_j conj(phi_j) phi_j'
    Az = np.vecdot(out[:, :, 0], out[:, :, 1]).sum(axis=1)
    return A, Az, Azz


def _blocks(n: int) -> list[slice]:
    """Row blocks of at most _DENSITY_BLOCK points covering range(n), none
    of them a single row when n > 1 (a 1-row matmul rounds differently)."""
    bounds = list(range(0, n, _DENSITY_BLOCK)) + [n]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        bounds[-2] -= 1
    return [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


def bergman_density(model: KernelModel, z, floor: float = 1e-12):
    """Metric density rho(z) = sqrt(d^2 log K(z,z) / dz dzbar).

    Evaluated in blocks of at most _DENSITY_BLOCK points, so memory stays
    bounded and each point's value does not depend on the batch size or on
    whether it is passed as a scalar.  Raises :class:`KernelInstabilityError`
    when K(z,z) falls below ``floor`` or the curvature radicand goes
    negative -- tiny negatives are reported, never clamped, because they
    flag a degree/grid too coarse at z.
    """
    zz = np.asarray(z, dtype=complex)
    flat = zz.ravel()
    if flat.size == 1:
        # a 1-row matmul rounds differently: a lone point runs as a pair
        flat = np.repeat(flat, 2)
    A = np.empty(flat.size)
    Az = np.empty(flat.size, dtype=complex)
    Azz = np.empty(flat.size)
    for sl in _blocks(flat.size):
        A[sl], Az[sl], Azz[sl] = _density_terms(model, flat[sl])
    A, Az, Azz = (t[:zz.size].reshape(zz.shape) for t in (A, Az, Azz))
    if np.any(A <= floor):
        raise KernelInstabilityError(
            f"kernel diagonal {A.min():.3e} at or below positivity floor {floor:.1e}"
        )
    rad = (A * Azz - (Az * np.conj(Az)).real) / (A * A)
    if np.any(rad < 0):
        worst = float(rad.min())
        raise KernelInstabilityError(
            f"negative curvature radicand {worst:.3e}; "
            f"kernel degree or grid resolution too coarse here"
        )
    rho = np.sqrt(rad)
    return float(rho) if rho.ndim == 0 else rho


def reproducing_residual(model: KernelModel, grid: QuadratureGrid,
                         coeffs, z: complex) -> float:
    """|f(z) - sum_nodes K(z, node) f(node) w| for a polynomial f.

    ``coeffs`` are polynomial coefficients in the original variable z,
    lowest degree first; deg f must not exceed the model degree.
    """
    c = np.asarray(coeffs, dtype=complex)
    if c.size - 1 > model.degree:
        raise ValueError("polynomial degree exceeds kernel degree")
    if model.domain is not None and not contains(model.domain, z):
        raise DomainError(f"{z} is not inside the kernel's domain")

    def f(pts):
        return np.polynomial.polynomial.polyval(pts, c)

    Kzw = kernel_cross(model, np.array([z]), grid.nodes)[0]
    integral = np.sum(Kzw * f(grid.nodes) * grid.weights)
    return float(abs(f(np.asarray(z)) - integral))


def _weighted_vander_blocks(grid: QuadratureGrid, center: complex, scale: float,
                           buf: np.ndarray):
    """W^{1/2} V of each node block of the grid in turn, in the monomials
    of zeta = (z - center) / scale, written into the flat buffer ``buf``
    of _NODE_CHUNK * n complex numbers as a (rows, n) Fortran-ordered
    block: column k is sqrt(w) zeta^k.  Each block is overwritten by the
    next, and zeta and sqrt(w) are formed for one block at a time."""
    n = buf.size // _NODE_CHUNK
    for start in range(0, grid.nodes.size, _NODE_CHUNK):
        sl = slice(start, start + _NODE_CHUNK)
        zeta = (grid.nodes[sl] - center) / scale
        block = buf[:zeta.size * n].reshape((-1, n), order="F")
        np.sqrt(grid.weights[sl], out=block[:, 0])
        for k in range(1, n):
            np.multiply(block[:, k - 1], zeta, out=block[:, k])
        yield block


def _stacked_r(blocks, n: int) -> np.ndarray:
    """R of the stacked QR W^{1/2} V = Q R over the node ``blocks`` of
    :func:`_weighted_vander_blocks`; Q is never formed.

    R starts at 0, and each Fortran-ordered block is merged into it by
    LAPACK's triangular-pentagonal QR ``ztpqrt``, which updates R in place
    and never touches its zero lower triangle.
    """
    R = np.zeros((n, n), dtype=complex, order="F")
    nb = min(_TPQRT_BLOCK, n)
    for block in blocks:
        info = ztpqrt(0, nb, R, block, overwrite_a=True, overwrite_b=True)[3]
        if info:
            raise ValueError(f"ztpqrt rejected argument {-info}")
    return R


def _tsqr_orthonormalize(grid: QuadratureGrid, degree: int, center: complex,
                         scale: float) -> tuple[np.ndarray, float]:
    """Triangular orthonormalization via QR of the weighted Vandermonde.

    With A = W^{1/2} V the columns of Q = A R^{-1} are the orthonormal
    basis's values at the nodes, so its coefficients are B = R^{-T}; since
    A^H A = R^H R, R^H is the Cholesky factor of the Gram matrix, computed
    backward-stably from the node values, which keeps degrees feasible far
    beyond the point where an explicitly assembled Gram matrix stops being
    numerically positive definite.  Runs in node blocks of _NODE_CHUNK
    (stacked QR: each block merged into R in place), so beyond the grid
    the fit holds two block buffers of _NODE_CHUNK x (degree + 1) complex
    numbers: one for the blocks of A, which the QR and every overlap pass
    reuse, and one for a block's basis values in the overlap passes.
    A grid with fewer nodes than monomials, an R diagonal entry at most
    n eps times its largest (a rank-deficient A), or a sweep whose overlap
    S is not positive definite raises :class:`FactorizationError` naming
    the first degree it cannot resolve.

    Returns (B, defect) with defect = max |S - I| for the grid overlap
    S = <phi_j, phi_k> of the basis.  Above 1e-10 one sweep
    B <- chol(S)^{-1} B re-orthonormalizes B first, so a fit makes at most
    two passes over the grid after the QR.  A final defect above 1e-6 raises
    :class:`KernelInstabilityError`: such a basis is far from orthonormal.
    """
    n = degree + 1
    if grid.nodes.size < n:
        raise FactorizationError(degree=grid.nodes.size)
    vander = np.empty(_NODE_CHUNK * n, dtype=complex)
    R = _stacked_r(_weighted_vander_blocks(grid, center, scale, vander), n)
    diag = np.diag(R)
    bad = np.abs(diag) <= n * np.finfo(float).eps * np.abs(diag).max()
    if bad.any():
        raise FactorizationError(degree=int(np.argmax(bad)))
    phases = diag / np.abs(diag)
    R = R * np.conj(phases)[:, None]
    B = solve_triangular(R, np.eye(n, dtype=complex), lower=False).T

    values = np.empty(_NODE_CHUNK * n, dtype=complex)

    def grid_overlap(Bcur):
        # S = Q^H Q from the actual basis values Q = A B^T on the grid
        U = np.zeros((n, n), dtype=complex)
        for A in _weighted_vander_blocks(grid, center, scale, vander):
            Q = np.matmul(A, Bcur.T, out=values[:A.size].reshape(A.shape))
            # Q is C-ordered, so Q.T reaches zherk uncopied; the upper
            # triangle of Q.T Q.T^H = conj(Q^H Q) is summed
            U += zherk(1.0, Q.T)
        # S, exactly Hermitian, from the upper triangle of conj(S)
        return np.triu(U).conj() + np.triu(U, 1).T

    S = grid_overlap(B)
    if np.max(np.abs(S - np.eye(n))) > 1e-10:
        # S is near-identity, so chol(S) is perfectly conditioned; one sweep
        # Q <- Q L^{-H}, that is B <- conj(L)^{-1} B, takes the defect to the
        # monomial basis's rounding noise, which further sweeps only move
        # about.  An S that is not positive definite fails at the leading
        # block of order info: degree info - 1
        L, info = zpotrf(S, lower=1)
        if info:
            raise FactorizationError(degree=info - 1)
        B = solve_triangular(L.conj(), B, lower=True)
        S = grid_overlap(B)
    err = np.abs(S - np.eye(n))
    defect = float(err.max())
    if defect > 1e-6:
        # err is symmetric: row k up to the diagonal completes degree k's block
        first = int(np.argmax(np.max(np.tril(err), axis=1) > 1e-6))
        raise KernelInstabilityError(
            f"orthonormality defect {defect:.3e} exceeds 1e-06; the leading block "
            f"of the basis overlap exceeds it from degree {first} on")
    return B, defect


def fit_kernel_model(domain: DomainSpec, degree: int = 40,
                     resolution: float = 0.01,
                     grid: QuadratureGrid | None = None) -> KernelModel:
    """Grid + orthonormalization pipeline with the documented defaults.

    The basis is centered at the domain's bounding-box center and scaled by
    its capacity radius, which keeps the smallest singular value of the
    weighted Vandermonde only polynomially small in the degree; the default
    grid is the kernel-grade Gauss rule.
    """
    if grid is None:
        grid = gauss_quadrature_grid(domain, resolution)
    center = domain.center
    scale = capacity_radius(domain)
    B, defect = _tsqr_orthonormalize(grid, degree, center, scale)
    return KernelModel(
        degree=degree, coefficients=B, center=complex(center),
        scale=float(scale), grid_descriptor=grid.descriptor,
        domain=domain, orthonormality_defect=defect,
    )


# ---------------------------------------------------------------------------
# flat-file serialization (header + row-major coefficient matrix)


def save_kernel(model: KernelModel, path) -> None:
    """Write the model to a flat numeric text file for cross-run reuse."""
    n = model.degree + 1
    with open(path, "w") as fh:
        fh.write("metriclab-kernel 1\n")
        fh.write(f"degree {model.degree}\n")
        fh.write(f"center {float(model.center.real)!r} {float(model.center.imag)!r}\n")
        fh.write(f"scale {float(model.scale)!r}\n")
        fh.write(f"grid {model.grid_descriptor or '-'}\n")
        fh.write(f"domain {model.domain.grid_key() if model.domain else '-'}\n")
        fh.write(f"orthonormality_defect {float(model.orthonormality_defect)!r}\n")
        for j in range(n):
            row = model.coefficients[j]
            fh.write(" ".join(f"{float(v.real)!r} {float(v.imag)!r}" for v in row) + "\n")


def load_kernel(path, domain: DomainSpec | None = None) -> KernelModel:
    """Read a model written by :func:`save_kernel`.  A malformed, truncated
    or overlong file, one of a format other than 1, or one fitted on another
    domain than ``domain`` raises ValueError naming the path and the line."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    magic = lines[0].split() if lines else []
    if not magic or magic[0] != "metriclab-kernel":
        raise ValueError(f"{path}, line 1: not a kernel model file")
    if magic[1:] != ["1"]:
        raise ValueError(f"{path}, line 1: kernel file format {' '.join(magic[1:])!r}, not 1")

    def line(i: int, key: str | None, count: int | None = None, kind=float) -> list:
        toks = lines[i].split() if i < len(lines) else []
        where = f"{path}, line {i + 1}"
        if key is not None:
            if toks[:1] != [key]:
                raise ValueError(f"{where}: expected header field {key!r}")
            toks = toks[1:]
        if count is not None and len(toks) != count:
            raise ValueError(f"{where}: expected {count} fields, found {len(toks)}")
        try:
            return [kind(tok) for tok in toks]
        except ValueError:
            raise ValueError(f"{where}: malformed number") from None

    (degree,) = line(1, "degree", 1, int)
    cx, cy = line(2, "center", 2)
    (scale,) = line(3, "scale", 1)
    grid = line(4, "grid", kind=str)
    stored = " ".join(line(5, "domain", kind=str))
    if domain is not None and stored not in ("-", domain.grid_key()):
        raise ValueError(f"{path}, line 6: kernel fitted on {stored!r}, "
                         f"not on {domain.grid_key()!r}")
    (defect,) = line(6, "orthonormality_defect", 1)
    n = degree + 1
    rows = np.array([line(i, None, 2 * n) for i in range(7, 7 + n)])
    if len(lines) > 7 + n:
        raise ValueError(f"{path}, line {8 + n}: unexpected line after the last coefficient row")
    return KernelModel(
        degree=degree, coefficients=rows.view(complex),
        center=complex(cx, cy), scale=scale,
        grid_descriptor=" ".join(grid),
        domain=domain,
        orthonormality_defect=defect,
    )
