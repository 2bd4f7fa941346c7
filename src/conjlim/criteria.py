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

Each test exists once: the image and ``CAZ`` tests are the kernel and
``ZAC`` tests on adjoints, and the kernel test measures its defect on
orthonormal bases of Z, so no verdict read from it moves when Z is scaled.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .numkit import (
    ConjlimError,
    InvalidInputError,
    as_square,
    as_square_like,
    kernel_basis,
    matrix_to_json,
    operator_norm,
    orthonormal_complement,
    residual_scale,
    svd_rank,
)

__all__ = [
    "MembershipVerdict",
    "PoleConditionError",
    "keeps_kernel_invariant",
    "keeps_image_invariant",
    "pole_term_vanishes",
    "pole_term_vanishes_dual",
    "kernel_algebra_dim",
    "kernel_algebra_basis",
    "divergence_certified",
]


class PoleConditionError(ConjlimError):
    """The companion matrix does not satisfy ``ZC = CZ = 0``."""


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
    # columns of defect / residual: squaring those of a defect near the
    # float64 range would overflow
    col_norms = np.linalg.norm(defect / residual, axis=0)
    above = np.nonzero(col_norms > threshold / residual)[0]
    j = int(above[0]) if above.size else int(np.argmax(col_norms))
    return MembershipVerdict(False, residual, columns[:, j].copy(), threshold)


def _adjoint_witness(v: MembershipVerdict) -> MembershipVerdict:
    """A primal verdict on adjoints read as its dual: the witness mapped back by ``^H``."""
    return v if v.witness is None else replace(v, witness=v.witness.conj().T)


def keeps_kernel_invariant(a, z) -> MembershipVerdict:
    """Does ``A`` map ``ker(Z)`` into ``ker(Z)``?

    Decided by ``||V_r^H A K||`` on the orthonormal bases ``V_r^H = vh[:r]``
    and ``K = vh[r:]^H`` of the one SVD of :func:`numkit.svd_rank`, at
    ``residual_scale(||A||)``: it vanishes iff ``Z A K`` does, and ker
    Z alone decides it.  The witness on failure is the first kernel basis
    vector x with ``Ax`` outside ker Z.
    """
    A, Z = _pair(a, z)
    return _kernel_verdict(A, *svd_rank(Z)[2:])


def _kernel_verdict(A: np.ndarray, vh, r) -> MembershipVerdict:
    """:func:`keeps_kernel_invariant` on ``vh, r`` of ``svd_rank(Z)``."""
    threshold = residual_scale(operator_norm(A))
    if r in (0, A.shape[0]):
        return MembershipVerdict(True, 0.0, None, threshold)
    ker = vh[r:].conj().T
    return _invariance_verdict(vh[:r] @ A @ ker, ker, threshold)


def keeps_image_invariant(a, z) -> MembershipVerdict:
    """Does ``A`` map ``im(Z)`` into ``im(Z)``?  As ``ker(Z^H) = im(Z)^perp``,
    this is :func:`keeps_kernel_invariant` on ``(A^H, Z^H)``; the witness on
    failure is a y in ``ker(Z^H)`` with ``y^H A Z != 0``."""
    A, Z = _pair(a, z)
    return keeps_kernel_invariant(A.conj().T, Z.conj().T)


def pole_term_vanishes(a, z, c) -> MembershipVerdict:
    """Does the conjugation pole term ``Z A C`` vanish?

    Requires ``ZC = CZ = 0`` (raises :class:`PoleConditionError` otherwise).
    On failure the witness is the nonzero product ``ZAC``.
    """
    A, Z = _pair(a, z)
    C = as_square_like(Z, c, "C")
    norm_z, norm_c = operator_norm(Z), operator_norm(C)
    gap = max(operator_norm(Z @ C), operator_norm(C @ Z))
    if gap > residual_scale(norm_z * norm_c):
        raise PoleConditionError(
            f"companion matrix must satisfy ZC = CZ = 0; got max(||ZC||, ||CZ||)={gap:.3e}"
        )
    threshold = residual_scale(norm_z * operator_norm(A) * norm_c)
    product = Z @ A @ C
    residual = operator_norm(product)
    member = residual <= threshold
    return MembershipVerdict(member, residual, None if member else product, threshold)


def pole_term_vanishes_dual(a, z, c) -> MembershipVerdict:
    """Dual form: does ``C A Z`` vanish?  :func:`pole_term_vanishes` on
    ``(A^H, Z^H, C^H)``, with the witness mapped back to ``C A Z``."""
    A, Z = _pair(a, z)
    C = as_square_like(Z, c, "C")
    return _adjoint_witness(pole_term_vanishes(A.conj().T, Z.conj().T, C.conj().T))


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


def divergence_certified(a, z) -> bool:
    """True iff ``A ker(Z) !<= ker(Z)``, which certifies that
    ``||U A U^{-1}||`` diverges along every path of invertibles ``U -> Z``."""
    return not keeps_kernel_invariant(a, z).member
