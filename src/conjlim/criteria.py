"""Membership tests for the invariance algebras attached to a base matrix.

For a square matrix Z the central objects are

* the algebra of matrices A with ``A ker(Z) <= ker(Z)`` (kernel-invariant),
* the algebra of matrices A with ``A im(Z) <= im(Z)`` (image-invariant),
* for a companion matrix C with ``ZC = CZ = 0``, the annihilator algebras
  ``{A : ZAC = 0}`` and ``{A : CAZ = 0}``.

Membership of A in the kernel-invariant algebra decides whether some path of
invertibles converging to Z keeps ``U A U^{-1}`` bounded; its failure
certifies divergence along every such path.  ``ZAC`` is exactly the pole term
of the conjugate along a path with inverse ``C/t + O(1)``, which is why the
annihilator tests are named after it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numkit import (
    DEFAULT_TOL,
    ConjlimError,
    InvalidInputError,
    as_square,
    as_square_like,
    kernel_basis,
    operator_norm,
    orthonormal_complement,
    singular,
    svd_rank,
)

__all__ = [
    "MembershipVerdict",
    "PoleConditionError",
    "SingularMatrixError",
    "keeps_kernel_invariant",
    "keeps_image_invariant",
    "pole_term_vanishes",
    "pole_term_vanishes_dual",
    "kernel_algebra_dim",
    "kernel_algebra_basis",
    "conjugate_family",
    "divergence_certified",
]


class PoleConditionError(ConjlimError):
    """The companion matrix does not satisfy ``ZC = CZ = 0``."""


class SingularMatrixError(ConjlimError):
    """A matrix required to be invertible is singular within tolerance."""


@dataclass(frozen=True)
class MembershipVerdict:
    """Outcome of a membership test.

    ``residual`` is the norm of the defect that had to vanish; ``witness``
    is present whenever ``member`` is false (a violating vector, or the
    nonzero product that should have been zero).
    """

    member: bool
    residual: float
    witness: np.ndarray | None = None
    threshold: float = 0.0

    def to_json(self) -> dict:
        from .numkit import matrix_to_json

        out = {"member": self.member, "residual": self.residual, "threshold": self.threshold}
        if self.witness is not None:
            w = np.atleast_2d(np.asarray(self.witness, dtype=np.complex128))
            out["witness"] = matrix_to_json(w)
        return out


def _pair(a, z):
    A = as_square(a, "A")
    return A, as_square_like(A, z, "Z")


def _invariance_verdict(defect: np.ndarray, columns: np.ndarray, threshold: float) -> MembershipVerdict:
    residual = operator_norm(defect)
    if residual <= threshold:
        return MembershipVerdict(True, residual, None, threshold)
    col_norms = np.linalg.norm(defect, axis=0)
    above = np.nonzero(col_norms > threshold)[0]
    j = int(above[0]) if above.size else int(np.argmax(col_norms))
    return MembershipVerdict(False, residual, columns[:, j].copy(), threshold)


def keeps_kernel_invariant(a, z) -> MembershipVerdict:
    """Does ``A`` map ``ker(Z)`` into ``ker(Z)``?

    Decided by the residual ``||Z A K||`` over an orthonormal kernel basis K,
    at threshold ``residual_abs * max(1, ||Z|| ||A||)``, with ``K = vh[r:]^H``
    and ``||Z|| = s[0]`` read off the one SVD of :func:`numkit.svd_rank`.
    The witness on failure is the first kernel basis vector x with ``ZAx != 0``.
    """
    A, Z = _pair(a, z)
    _, s, vh, r = svd_rank(Z)
    threshold = DEFAULT_TOL.residual_scale(float(s[0]) * operator_norm(A))
    if r == Z.shape[0]:
        return MembershipVerdict(True, 0.0, None, threshold)
    ker = vh[r:].conj().T
    return _invariance_verdict(Z @ A @ ker, ker, threshold)


def keeps_image_invariant(a, z) -> MembershipVerdict:
    """Does ``A`` map ``im(Z)`` into ``im(Z)``?

    Decided by ``||L^H A B|| = ||(I - P) A B||``, with ``B = u[:, :r]`` and
    ``L = u[:, r:]`` read off the one SVD of :func:`numkit.svd_rank` and P
    the projector onto im Z.  The defect carries ``||A||`` but not ``||Z||``,
    so its threshold is ``residual_abs * max(1, ||A||)``.
    """
    A, Z = _pair(a, z)
    u, _, _, r = svd_rank(Z)
    threshold = DEFAULT_TOL.residual_scale(operator_norm(A))
    n = Z.shape[0]
    if r in (0, n):
        return MembershipVerdict(True, 0.0, None, threshold)
    return _invariance_verdict(u[:, r:].conj().T @ A @ u[:, :r], u[:, :r], threshold)


def _pole_term(a, z, c, dual: bool) -> MembershipVerdict:
    A, Z = _pair(a, z)
    C = as_square_like(Z, c, "C")
    scale = DEFAULT_TOL.residual_scale(operator_norm(Z) * operator_norm(C))
    zc = operator_norm(Z @ C)
    cz = operator_norm(C @ Z)
    if zc > scale or cz > scale:
        raise PoleConditionError(
            f"companion matrix must satisfy ZC = CZ = 0; got ||ZC||={zc:.3e}, ||CZ||={cz:.3e}"
        )
    threshold = DEFAULT_TOL.residual_scale(operator_norm(Z) * operator_norm(A) * operator_norm(C))
    product = C @ A @ Z if dual else Z @ A @ C
    residual = operator_norm(product)
    if residual <= threshold:
        return MembershipVerdict(True, residual, None, threshold)
    return MembershipVerdict(False, residual, product, threshold)


def pole_term_vanishes(a, z, c) -> MembershipVerdict:
    """Does the conjugation pole term ``Z A C`` vanish?

    Requires ``ZC = CZ = 0`` (raises :class:`PoleConditionError` otherwise).
    On failure the witness is the nonzero product ``ZAC``.
    """
    return _pole_term(a, z, c, dual=False)


def pole_term_vanishes_dual(a, z, c) -> MembershipVerdict:
    """Dual form: does ``C A Z`` vanish?  Same precondition as the primal."""
    return _pole_term(a, z, c, dual=True)


def kernel_algebra_dim(n: int, m: int) -> int:
    """Dimension ``n^2 - m*n + m^2`` of the kernel-invariant algebra of any
    rank-m matrix in n dimensions."""
    n = int(n)
    m = int(m)
    if n < 1:
        raise InvalidInputError(f"n must be a positive integer, got {n}")
    if not (0 <= m <= n):
        raise InvalidInputError(f"m must lie in [0, {n}], got {m}")
    return n * n - m * n + m * m


def _elementary(n: int, i: int, j: int) -> np.ndarray:
    e = np.zeros((n, n), dtype=np.complex128)
    e[i, j] = 1.0
    return e


def kernel_algebra_basis(z) -> list[np.ndarray]:
    """Explicit basis of ``{A : A ker(Z) <= ker(Z)}``.

    Built constructively: pick a unitary Q whose last ``k = dim ker(Z)``
    columns span the kernel; in those coordinates the algebra is the block
    lower-triangular pattern with the top-right ``m x k`` block deleted, and
    the basis is transported back by conjugation with Q.  The element count
    equals :func:`kernel_algebra_dim` of (n, rank Z).
    """
    Z = as_square(z, "Z")
    n = Z.shape[0]
    ker = kernel_basis(Z)
    k = ker.dim
    m = n - k
    if k == 0:
        return [_elementary(n, i, j) for i in range(n) for j in range(n)]
    co = orthonormal_complement(ker)
    q = np.hstack([co.basis, ker.basis])
    basis: list[np.ndarray] = []
    for i in range(n):
        for j in range(n):
            if i < m and j >= m:
                continue
            basis.append(np.outer(q[:, i], q[:, j].conj()))
    return basis


def conjugate_family(mats, p) -> list[np.ndarray]:
    """``[p^{-1} B p for B in mats]``; :class:`SingularMatrixError` when
    :func:`numkit.singular` gates ``p``."""
    P = as_square(p, "p")
    s = np.linalg.svd(P, compute_uv=False)
    if singular(s):
        raise SingularMatrixError(f"conjugating matrix is singular: sigma_min={s[-1]:.3e}")
    out = []
    for b in mats:
        out.append(np.linalg.solve(P, as_square_like(P, b, "family member") @ P))
    return out


def divergence_certified(a, z) -> bool:
    """True iff ``A ker(Z) !<= ker(Z)``, which certifies that
    ``||U A U^{-1}||`` diverges along every path of invertibles ``U -> Z``."""
    return not keeps_kernel_invariant(a, z).member
