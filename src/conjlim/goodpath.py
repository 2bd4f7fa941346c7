"""Paths of invertible matrices converging to a base point Z whose inverses
have a simple pole: ``(Z + t E(t))^{-1} = C/t + C_0 + C_1 t + ...``.

Such a path exists for every complex square Z.  Its pole coefficient C is
characterized algebraically: ``im(C) = ker(Z)`` and ``ker(C) = im(Z)``, and
it always satisfies ``ZC = CZ = 0``.  The construction used here goes
through the polar factorization ``Z = U R`` with U unitary and R the PSD
root of ``Z^H Z``: filling the null block of R with the identity gives a
linear path whose inverse is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numkit import (
    DEFAULT_TOL,
    ConjlimError,
    InvalidInputError,
    Subspace,
    as_square,
    as_square_like,
    read_field,
    kernel_basis,
    matrices_from_json,
    matrix_from_json,
    matrix_to_json,
    operator_norm,
    poly_eval,
    singular,
    subspace_equal,
    subspace_intersection,
    svd_rank,
)

__all__ = [
    "NotAGoodPathError",
    "InvalidPathError",
    "RigidityViolationError",
    "PolarFactors",
    "GoodPath",
    "polar_factors",
    "construct_good_path",
    "laurent_inverse",
    "is_pole_coefficient",
    "dual_path",
    "rigidity_index",
]

#: Relative least-squares residual above which coefficient matching is
#: declared infeasible (the inverse has a pole of order >= 2).
LAURENT_REJECT_REL = 1e-6

#: Relative residual of the inverse identity above which validate() fails.
VALIDATE_RESIDUAL_REL = 1e-8

#: Small path parameters sampled to confirm invertibility near zero.
_SAMPLE_TS = (1e-2, 1e-3, 1e-4)


class NotAGoodPathError(ConjlimError):
    """No inverse with pole order <= 1 matches the given path."""


class InvalidPathError(ConjlimError):
    """The path is singular for small t > 0 (or identically singular)."""


class RigidityViolationError(ConjlimError):
    """The coefficient kernels violate the prefix-containment structure that
    every simple-pole path must have."""


@dataclass(frozen=True)
class PolarFactors:
    """Factorization ``Z = unitary @ root`` with ``root = sqrt(Z^H Z)``."""

    unitary: np.ndarray
    root: np.ndarray


@dataclass(frozen=True)
class GoodPath:
    """A path ``base + sum_k t^k path_coeffs[k-1]`` together with the
    truncated Laurent expansion of its inverse.

    ``inverse_pole`` is the coefficient of ``t^{-1}`` (may be zero when the
    base point is invertible, in which case :attr:`has_pole` is False) and
    ``inverse_series[j]`` is the coefficient of ``t^j`` for j = 0..order.
    """

    base: np.ndarray
    path_coeffs: tuple[np.ndarray, ...]
    inverse_pole: np.ndarray
    inverse_series: tuple[np.ndarray, ...]
    order: int

    def __post_init__(self):
        base = as_square(self.base, "base")
        coeffs = tuple(as_square_like(base, e, "path coefficient") for e in self.path_coeffs)
        series = tuple(as_square_like(base, c, "inverse coefficient") for c in self.inverse_series)
        pole = as_square_like(base, self.inverse_pole, "inverse pole")
        if self.order != len(series) - 1:
            raise InvalidInputError(
                f"order {self.order} does not match series length {len(series)}"
            )
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "path_coeffs", coeffs)
        object.__setattr__(self, "inverse_pole", pole)
        object.__setattr__(self, "inverse_series", series)

    @property
    def dim(self) -> int:
        return self.base.shape[0]

    @property
    def has_pole(self) -> bool:
        return operator_norm(self.inverse_pole) > DEFAULT_TOL.residual_scale(
            operator_norm(self.base)
        )

    def at(self, t: float) -> np.ndarray:
        """Path value ``base + sum_k t^k E_k``."""
        return poly_eval(self.base, self.path_coeffs, [t])[0]

    def inverse_at(self, t: float) -> np.ndarray:
        """Truncated Laurent inverse ``pole/t + sum_j t^j C_j``."""
        if t == 0:
            raise InvalidInputError("inverse expansion is undefined at t = 0")
        c0, *rest = self.inverse_series
        return self.inverse_pole / t + poly_eval(c0, rest, [t])[0]

    def _inverse_coeff(self, j: int) -> np.ndarray:
        if j == -1:
            return self.inverse_pole
        if 0 <= j <= self.order:
            return self.inverse_series[j]
        raise IndexError(j)

    def product_residuals(self) -> np.ndarray:
        """Coefficient residuals of the two-sided identity
        ``path(t) * inverse(t) = I = inverse(t) * path(t)``, for the powers
        ``t^m`` with m = -1..order.  All entries should be at noise level."""
        n = self.dim
        eye = np.eye(n)
        pathc = [self.base, *self.path_coeffs]
        out = np.zeros(self.order + 2)
        for row, m in enumerate(range(-1, self.order + 1)):
            left = np.zeros((n, n), dtype=np.complex128)
            right = np.zeros((n, n), dtype=np.complex128)
            for k, pk in enumerate(pathc):
                j = m - k
                if -1 <= j <= self.order:
                    cj = self._inverse_coeff(j)
                    left += pk @ cj
                    right += cj @ pk
            target = eye if m == 0 else 0.0
            out[row] = max(
                operator_norm(left - target),
                operator_norm(right - target),
            )
        return out

    def annihilation_residual(self) -> float:
        """``max(||base @ pole||, ||pole @ base||)`` — zero for a valid pole."""
        return max(
            operator_norm(self.base @ self.inverse_pole),
            operator_norm(self.inverse_pole @ self.base),
        )

    def coefficient_scale(self) -> float:
        norms = [operator_norm(self.base), operator_norm(self.inverse_pole)]
        norms += [operator_norm(e) for e in self.path_coeffs]
        norms += [operator_norm(c) for c in self.inverse_series]
        return max(1.0, *norms)

    def validate(self) -> None:
        """Raise :class:`NotAGoodPathError` unless every coefficient residual
        is below :data:`VALIDATE_RESIDUAL_REL` scaled by the coefficient
        norms and the pole annihilates the base within
        ``DEFAULT_TOL.residual_scale(||base|| * coefficient_scale())``.

        The residuals cannot see an error in the last series coefficient
        ``C_N`` along directions X with ``ZX = XZ = 0``: ``C_N`` enters only
        the ``t^N`` equation, and only through the base Z.
        """
        scale = self.coefficient_scale()
        res = self.product_residuals()
        if float(res.max()) > VALIDATE_RESIDUAL_REL * scale:
            raise NotAGoodPathError(
                f"inverse identity residual {res.max():.3e} exceeds "
                f"{VALIDATE_RESIDUAL_REL:.1e} * {scale:.3e}"
            )
        ann = self.annihilation_residual()
        if ann > DEFAULT_TOL.residual_scale(operator_norm(self.base) * scale):
            raise NotAGoodPathError(f"pole does not annihilate the base: {ann:.3e}")

    def to_json(self) -> dict:
        return {
            "base": matrix_to_json(self.base),
            "path_coeffs": [matrix_to_json(e) for e in self.path_coeffs],
            "inverse_pole": matrix_to_json(self.inverse_pole),
            "inverse_series": [matrix_to_json(c) for c in self.inverse_series],
            "order": self.order,
            "has_pole": self.has_pole,
        }

    @staticmethod
    def from_json(obj: dict) -> "GoodPath":
        """Inverse of :meth:`to_json`; a missing or malformed field raises
        :class:`InvalidInputError` naming it."""
        what = "good path JSON"
        return GoodPath(
            base=read_field(obj, "base", matrix_from_json, what),
            path_coeffs=read_field(obj, "path_coeffs", matrices_from_json, what),
            inverse_pole=read_field(obj, "inverse_pole", matrix_from_json, what),
            inverse_series=read_field(obj, "inverse_series", matrices_from_json, what),
            order=read_field(obj, "order", int, what),
        )


def polar_factors(z) -> PolarFactors:
    """Sharpened polar factorization ``Z = U R``.

    R is the Hermitian PSD root of ``Z^H Z`` and U is unitary (in finite
    dimension the isometric extension off the image can always be chosen
    unitary), so U is in particular an invertible partial isometry.
    """
    Z = as_square(z, "Z")
    u, s, vh = np.linalg.svd(Z)
    unitary = u @ vh
    v = vh.conj().T
    root = (v * s) @ v.conj().T
    root = 0.5 * (root + root.conj().T)
    return PolarFactors(unitary=unitary, root=root)


def construct_good_path(z, order: int = 8) -> GoodPath:
    """Linear path ``Z + tE`` with exact simple-pole inverse, for any square Z.

    With ``Z = U R`` the polar factorization and R diagonalized as
    ``R11 (+) 0`` by a unitary V, the filler is ``E = U V (0 (+) I) V^H``;
    the inverse of ``Z + tE`` is then ``V (0 (+) I) V^H U^H / t +
    V (R11^{-1} (+) 0) V^H U^H`` with all higher coefficients zero.  For an
    invertible Z this degenerates to E = 0 and a pole-free expansion, which
    is reported through :attr:`GoodPath.has_pole`.
    """
    Z = as_square(z, "Z")
    n = Z.shape[0]
    if order < 0:
        raise InvalidInputError(f"order must be nonnegative, got {order}")
    u, s, vh, rank = svd_rank(Z)
    unitary = u @ vh
    v = vh.conj().T
    v_ker = v[:, rank:]
    v_im = v[:, :rank]
    ker_proj = v_ker @ v_ker.conj().T
    filler = unitary @ ker_proj
    pole = ker_proj @ unitary.conj().T
    c0 = (v_im * (1.0 / s[:rank])) @ v_im.conj().T @ unitary.conj().T
    zero = np.zeros((n, n), dtype=np.complex128)
    series = (c0,) + tuple(zero for _ in range(order))
    return GoodPath(
        base=Z,
        path_coeffs=(filler,),
        inverse_pole=pole,
        inverse_series=series,
        order=order,
    )


def laurent_inverse(z, coeffs, order: int = 8):
    """Solve for the Laurent coefficients of ``P(t)^{-1}``, with
    ``P(t) = Z + sum t^k E_k``, under the pole-order-one ansatz.

    Then ``D(t) = t P(t)^{-1} = sum_j D_j t^j`` is analytic, with
    ``D_0 = C_{-1}`` and ``D_{j+1} = C_j``.  Matching the powers
    ``t^0..t^{N+2}`` of ``P(t) D(t) = t I`` gives one block lower-triangular
    Toeplitz system in ``D_0..D_{N+2}``, solved by a single least-squares
    call with the columns of I as right-hand sides (Avrachenkov, Haviv &
    Howlett, SIAM J. Matrix Anal. Appl. 22(4), 2001).  ``D_0..D_{N+1}`` are
    unique: a homogeneous solution X has ``P X = O(t^{N+3})``, hence
    ``X = O(t^{N+2})``.  A pole of order >= 2 makes the system inconsistent:
    a residual of this (N+3)n-row system above :data:`LAURENT_REJECT_REL`
    times ``max(1, ||rhs|| + ||system||_F ||D||)`` raises
    :class:`NotAGoodPathError`.  Returns ``(pole, [C_0, ..., C_N])``.
    """
    Z = as_square(z, "Z")
    n = Z.shape[0]
    es = [as_square_like(Z, e, "path coefficient") for e in coeffs]
    if order < 0:
        raise InvalidInputError(f"order must be nonnegative, got {order}")

    gate = singular(np.linalg.svd(poly_eval(Z, es, _SAMPLE_TS), compute_uv=False))
    if gate.any():
        t = _SAMPLE_TS[int(np.argmax(gate))]
        raise InvalidPathError(f"path is singular at sampled t = {t}")

    blocks = order + 3  # D_0 .. D_{order+2}
    system = np.zeros((blocks * n, blocks * n), dtype=np.complex128)
    for k, pk in enumerate([Z, *es]):
        for j in range(blocks - k):
            system[(j + k) * n : (j + k + 1) * n, j * n : (j + 1) * n] = pk
    rhs = np.zeros((blocks * n, n), dtype=np.complex128)
    rhs[n : 2 * n] = np.eye(n)

    solution, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    defect = float(np.linalg.norm(system @ solution - rhs))
    scale = float(np.linalg.norm(rhs)) + float(
        np.linalg.norm(system, "fro") * np.linalg.norm(solution)
    )
    if defect > LAURENT_REJECT_REL * max(1.0, scale):
        raise NotAGoodPathError(
            f"no inverse with pole order <= 1: relative residual {defect / max(1.0, scale):.3e}"
        )
    mats = solution.reshape(blocks, n, n)
    return mats[0], list(mats[1 : order + 2])


def is_pole_coefficient(c, z) -> bool:
    """True iff ``im(C) = ker(Z)`` and ``im(Z) = ker(C)`` — exactly the
    matrices arising as the pole of some simple-pole path to Z."""
    C = as_square(c, "C")
    Z = as_square_like(C, z, "Z")
    uc, _, vhc, rc = svd_rank(C)
    uz, _, vhz, rz = svd_rank(Z)
    if not subspace_equal(Subspace(uc[:, :rc]), Subspace(vhz[rz:].conj().T)):
        return False
    return subspace_equal(Subspace(uz[:, :rz]), Subspace(vhc[rc:].conj().T))


def dual_path(gp: GoodPath) -> GoodPath:
    """Path-level duality: ``pole + t * series(t)`` is itself a simple-pole
    path, converging to the pole coefficient, with inverse
    ``base/t + sum_j t^j E_{j+1}``.  Applying it twice reproduces the
    original coefficients through the shared truncation order."""
    n = gp.dim
    zero = np.zeros((n, n), dtype=np.complex128)
    new_series = [
        gp.path_coeffs[j] if j < len(gp.path_coeffs) else zero
        for j in range(gp.order + 1)
    ]
    return GoodPath(
        base=gp.inverse_pole,
        path_coeffs=gp.inverse_series,
        inverse_pole=gp.base,
        inverse_series=tuple(new_series),
        order=gp.order,
    )


def rigidity_index(e0, coeffs) -> int:
    """Least n >= 1 with ``ker(E_0) <= ker(E_m)`` for all m < n and
    ``ker(E_0) ^ ker(E_n) = 0``.

    Every simple-pole path has such an index (linear constructions have
    n = 1); exhausting the coefficients without finding one, or hitting a
    partial overlap that blocks all further candidates, raises
    :class:`RigidityViolationError` and signals that the coefficients do not
    come from a simple-pole path.  An invertible ``E_0`` returns 1 vacuously.
    """
    E0 = as_square(e0, "E0")
    k0 = kernel_basis(E0)
    if k0.dim == 0:
        return 1
    es = [as_square_like(E0, e, "coefficient") for e in coeffs]
    for idx, e in enumerate(es, start=1):
        kn = kernel_basis(e)
        if subspace_intersection(k0, kn).dim == 0:
            return idx
        contained = operator_norm(e @ k0.basis) <= DEFAULT_TOL.residual_scale(operator_norm(e))
        if not contained:
            raise RigidityViolationError(
                f"ker(E_0) meets ker(E_{idx}) without being contained in it"
            )
    raise RigidityViolationError(
        "coefficients exhausted with ker(E_0) still contained in every kernel"
    )
