"""Finite-degree Bergman kernel approximation and the induced metric density.

The kernel is built by orthonormalizing polynomials against the area inner
product, taken exactly on the boundary: by Green's theorem
<p, q> = (1/2i) oint p conj(Q) dz with Q' = q, under the contour rule of
:func:`geometry.boundary_rule`.  Arnoldi in zeta = (z - center)/scale on
the rule's nodes (Vandermonde with Arnoldi) multiplies the last basis
polynomial by zeta and orthogonalizes it against the others, carrying its
boundary primitive and its monomial coefficients along, so the Gram matrix
of the monomials is never formed.  The model keeps the coefficients:
phi_j = sum_k B_{jk} zeta^k.  Then

    K(z, w)  = sum_j phi_j(z) conj(phi_j(w))
    rho(z)^2 = d^2/(dz dzbar) log K(z, z)
             = (K * K_zzbar - K_z * conj(K_z)) / K^2,

with the derivatives taken termwise on the basis (no finite differences,
which would cancel catastrophically near the boundary): a block of points
gets phi and phi' together from one product of its powers of zeta with
the stacked coefficients [B^T | D].

The monomial variable zeta = (z - center)/scale is an affine renormalization
of the plane that conditions the basis for off-center domains; kernel and
density values are always reported in original z units.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FactorizationError, KernelInstabilityError
from .geometry import BoundaryRule, DomainSpec, boundary_rule, capacity_radius, contains

# points per block of a density evaluation: keeps its N x (degree+1)
# temporaries cache-sized
_DENSITY_BLOCK = 512
_POSITIVITY_FLOOR = 1e-12   # K(z, z) at or below it is no kernel value to trust


@dataclass(eq=False)
class KernelModel:
    """Orthonormalized kernel basis: phi_j(z) = sum_{k<=j} B[j,k] zeta(z)^k,
    on the domain it was fitted on.  A model equals only itself.

    The constructor stacks the coefficients every density block reuses,
    [B^T | D], D[m, j] = (m+1) B[j, m+1] / scale, so that
    phi_j = sum_m zeta^m B^T[m, j] and phi_j' = sum_m zeta^m D[m, j], the
    derivative taken in the original z variable.
    """

    degree: int
    coefficients: np.ndarray      # (N+1, N+1) complex lower-triangular
    domain: DomainSpec
    center: complex = 0.0
    scale: float = 1.0
    grid_descriptor: str = ""
    orthonormality_defect: float = 0.0

    def __post_init__(self):
        n = self.degree + 1
        bt = self.coefficients.T
        d = np.zeros_like(bt)
        d[:-1] = np.arange(1, n)[:, None] * bt[1:] / self.scale
        self._stacked = np.hstack([bt, d])

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


def _density_terms(model: KernelModel, z: np.ndarray):
    """(K, K_z, K_zzbar) on the diagonal at the points z (at most
    _DENSITY_BLOCK of them), from one product of their powers of zeta with
    the stacked coefficients."""
    n = model.degree + 1
    V = np.vander(model._zeta(z), n, increasing=True)
    out = (V @ model._stacked).reshape(z.size, 2, n)
    flat = out.view(float)
    A = np.einsum("ij,ij->i", flat[:, 0], flat[:, 0])
    Azz = np.einsum("ij,ij->i", flat[:, 1], flat[:, 1])
    # vecdot conjugates its first argument: sum_j conj(phi_j) phi_j'
    Az = np.vecdot(out[:, 0], out[:, 1])
    return A, Az, Azz


def bergman_density(model: KernelModel, z):
    """Metric density rho(z) = sqrt(d^2 log K(z,z) / dz dzbar).

    Evaluated in blocks of at most _DENSITY_BLOCK points, so memory stays
    bounded and each point's value does not depend on the batch size or on
    whether it is passed as a scalar.  Raises :class:`KernelInstabilityError`
    when K(z,z) falls to _POSITIVITY_FLOOR or the curvature radicand goes
    negative -- tiny negatives are reported, never clamped, because they
    flag a degree too low at z.
    """
    zz = np.asarray(z, dtype=complex)
    flat = zz.ravel()
    if flat.size % _DENSITY_BLOCK == 1:
        # a 1-row matmul rounds differently: a last block of one point runs
        # as a pair, with a copy of the point
        flat = np.append(flat, flat[-1])
    A = np.empty(flat.size)
    Az = np.empty(flat.size, dtype=complex)
    Azz = np.empty(flat.size)
    for lo in range(0, flat.size, _DENSITY_BLOCK):
        sl = slice(lo, lo + _DENSITY_BLOCK)
        A[sl], Az[sl], Azz[sl] = _density_terms(model, flat[sl])
    A, Az, Azz = (t[:zz.size].reshape(zz.shape) for t in (A, Az, Azz))
    if np.any(A <= _POSITIVITY_FLOOR):
        raise KernelInstabilityError(f"kernel diagonal {A.min():.3e} at or below "
                                     f"positivity floor {_POSITIVITY_FLOOR:.1e}")
    rad = (A * Azz - (Az * np.conj(Az)).real) / (A * A)
    if np.any(rad < 0):
        worst = float(rad.min())
        raise KernelInstabilityError(
            f"negative curvature radicand {worst:.3e}; "
            f"kernel degree too low here"
        )
    rho = np.sqrt(rad)
    return float(rho) if rho.ndim == 0 else rho


def reproducing_residual(model: KernelModel, rule: BoundaryRule,
                         coeffs, z: complex) -> float:
    """|f(z) - int int K(z, w) f(w) dA(w)| for a polynomial f, the area
    integral <f, K(., z)> taken under the boundary ``rule``.

    ``coeffs`` are polynomial coefficients in the original variable z,
    lowest degree first; deg f must not exceed the model degree.
    """
    c = np.asarray(coeffs, dtype=complex)
    if c.size - 1 > model.degree:
        raise ValueError("polynomial degree exceeds kernel degree")
    if not contains(model.domain, z):
        raise DomainError(f"{z} is not inside the kernel's domain")
    f = np.polynomial.polynomial.polyval(rule.nodes, c)
    # <f, K(., z)> = conj(<K(., z), f>), with a primitive of f
    Kwz = kernel_eval(model, rule.nodes, z)
    integral = np.conj(rule.area_inner(Kwz, rule.primitive(f)))
    return float(abs(np.polynomial.polynomial.polyval(z, c) - integral))


def _arnoldi(rule: BoundaryRule, degree: int, center: complex,
             scale: float) -> np.ndarray:
    """Monomial coefficients B (lower-triangular, phi_j = sum_k B[j, k]
    zeta^k) of the basis orthonormal under ``rule``'s area inner product,
    by Arnoldi in zeta = (z - center)/scale on the boundary values.

    Step k forms v = zeta phi_{k-1} (v = 1 at k = 0) with its primitive V
    and coefficient vector, takes h_j = <v, phi_j> from v and the primitive
    of phi_j, and subtracts sum_j h_j phi_j from all three, twice
    (classical Gram-Schmidt with reorthogonalization); then
    phi_k = v / sqrt(<v, v>), with <v, v> from v and V.  The inner
    products are those of the z plane, dA_z = scale^2 dA_zeta, so the basis
    is orthonormal in z units as it stands.  A <v, v> at most
    (n eps)^2 times its value before the subtraction, n = degree + 1,
    raises :class:`FactorizationError` naming degree k: the rule cannot
    tell zeta^k from the lower degrees.
    """
    n, m = degree + 1, rule.nodes.size
    zeta = (rule.nodes - center) / scale
    # column k: phi_k's values, its primitive and its coefficients.  Row-
    # major, so that the subtraction's product sums each row in one dot
    # product; the primitives also column-major, so that the inner
    # products' product does.  So no product splits a sum among BLAS
    # threads, whose partial sums would round by the thread count
    basis = np.zeros((2 * m + n, n), dtype=complex)
    prims = np.empty((m, n), dtype=complex, order="F")
    floor = (n * np.finfo(float).eps) ** 2
    for k in range(n):
        w = np.zeros(2 * m + n, dtype=complex)
        v, V, c = w[:m], w[m:2 * m], w[2 * m:]
        if k:
            np.multiply(zeta, basis[:m, k - 1], out=v)
            c[1:] = basis[2 * m:-1, k - 1]
        else:
            v[:] = c[0] = 1.0
        V[:] = rule.primitive(v)
        before = rule.area_inner(v, V).real
        for _ in range(2):
            w -= basis[:, :k] @ rule.area_inner(v, prims[:, :k])
        norm2 = rule.area_inner(v, V).real
        if not norm2 > floor * abs(before):
            raise FactorizationError(degree=k)
        basis[:, k] = w / np.sqrt(norm2)
        prims[:, k] = basis[m:2 * m, k]
    return basis[2 * m:].T.copy()


def _orthonormality_defect(B: np.ndarray, rule: BoundaryRule, center: complex,
                           scale: float) -> float:
    """max |S - I| for the overlap S = <phi_j, phi_k> of the basis under
    ``rule``, with phi_j and its primitive sum_k B[j, k] scale
    zeta^(k+1) / (k+1) evaluated from the monomial coefficients B.  Above
    1e-6 it raises :class:`KernelInstabilityError` naming the first degree
    whose leading block exceeds it: the degree is too high for the
    monomial basis in double precision."""
    n = B.shape[0]
    V = np.vander((rule.nodes - center) / scale, n + 1, increasing=True)
    prims = np.asfortranarray(V[:, 1:] @ (B * (scale / np.arange(1, n + 1))).T)
    # one column at a time: a product over all nodes at once would split
    # its sums among BLAS threads
    S = np.stack([rule.area_inner(phi, prims) for phi in (V[:, :n] @ B.T).T], axis=1)
    err = np.abs(S - np.eye(n))
    defect = float(err.max())
    if defect > 1e-6:
        # degree k completes the leading block with row k and column k
        lead = np.maximum(np.max(np.tril(err), axis=1), np.max(np.triu(err), axis=0))
        first = int(np.argmax(lead > 1e-6))
        raise KernelInstabilityError(
            f"orthonormality defect {defect:.3e} exceeds 1e-06; the leading block "
            f"of the basis overlap exceeds it from degree {first} on")
    return defect


def fit_kernel_model(domain: DomainSpec, degree: int = 40,
                     resolution: float = 0.01) -> KernelModel:
    """The basis orthonormal under the domain's boundary rule for ``degree``
    and ``resolution`` (:func:`geometry.boundary_rule`), as a kernel model.

    The basis is centered at the domain's bounding-box center and scaled by
    its capacity radius, which keeps the monomial coefficients only
    polynomially large in the degree.
    """
    rule = boundary_rule(domain, degree, resolution)
    center = domain.center
    scale = capacity_radius(domain)
    B = _arnoldi(rule, degree, center, scale)
    return KernelModel(
        degree=degree, coefficients=B, center=complex(center),
        scale=float(scale), grid_descriptor=rule.descriptor, domain=domain,
        orthonormality_defect=_orthonormality_defect(B, rule, center, scale),
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
        fh.write(f"domain {model.domain.grid_key()}\n")
        fh.write(f"orthonormality_defect {float(model.orthonormality_defect)!r}\n")
        for j in range(n):
            row = model.coefficients[j]
            fh.write(" ".join(f"{float(v.real)!r} {float(v.imag)!r}" for v in row) + "\n")


def load_kernel(path, domain: DomainSpec) -> KernelModel:
    """Read a model written by :func:`save_kernel` on ``domain``.  A
    malformed, truncated or overlong file, one of a format other than 1, or
    one fitted on another domain raises ValueError naming the path and the
    line."""
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
    if stored != domain.grid_key():
        raise ValueError(f"{path}, line 6: kernel fitted on {stored!r}, "
                         f"not on {domain.grid_key()!r}")
    (defect,) = line(6, "orthonormality_defect", 1)
    n = degree + 1
    rows = np.array([line(i, None, 2 * n) for i in range(7, 7 + n)])
    if len(lines) > 7 + n:
        raise ValueError(f"{path}, line {8 + n}: unexpected line after the last coefficient row")
    return KernelModel(
        degree=degree, coefficients=rows.view(complex), domain=domain,
        center=complex(cx, cy), scale=scale,
        grid_descriptor=" ".join(grid),
        orthonormality_defect=defect,
    )
