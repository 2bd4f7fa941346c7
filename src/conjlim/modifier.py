"""Modifiers: bounded linear maps applied to a conjugate before measuring its
norm, and the machinery that decides boundedness questions under them.

Three kinds are supported: the identity, Hadamard (entrywise) multiplication
by a fixed matrix H, and a general linear map given by an n^2 x n^2 matrix
acting on column-stacked matrices.  Deleting the diagonal is the Hadamard
modifier with the all-ones-off-diagonal matrix and plays a special role: it
changes no boundedness verdicts.

The central decision procedure is :func:`some_path_bounded`: whether some
path of invertibles converging to Z keeps ``phi(U A U^{-1})`` bounded.  This
holds iff some C with ``im(C) = ker(Z)`` and ``ker(C) = im(Z)`` satisfies
``phi(Z A C) = 0``.  Such C are exactly ``C = K X L^H`` with X invertible and
K, L orthonormal bases of ``ker(Z)`` and ``ker(Z^H)``.

Since ``C Z = 0``, every ``Z A C`` squares to zero.  When phi is faithful
(nonzero on every nonzero square-zero matrix: the identity, or a Hadamard
factor with no zero off-diagonal entry) the condition is therefore
``Z A C = 0``, i.e. ``Z A K = 0``: A keeps ``ker(Z)`` invariant, and the
verdict is exact and deterministic.  For every other modifier the question
is whether the linear solution space of ``X -> phi(Z A K X L^H) = 0``
contains an invertible element, decided by seeded random sampling (a random
element of a subspace containing an invertible one is invertible with
probability 1).  The dual question, for ``phi(U^{-1} A U)``, is the primal
on ``(A^H, Z^H)`` under :meth:`Modifier.adjoint`.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .criteria import MembershipVerdict, _adjoint_witness, _elementary, _kernel_verdict, _pair
from .numkit import (
    ConjlimError,
    InvalidInputError,
    as_square,
    as_square_like,
    _readonly,
    ginibre,
    operator_norm,
    random_unitary,
    residual_scale,
    svd_rank,
)

__all__ = [
    "Modifier",
    "apply",
    "CertificateError",
    "ConjugationFamilyError",
    "some_path_bounded",
    "some_path_bounded_dual",
    "FaithfulnessReport",
    "nilpotent_faithful",
    "nilpotent_faithful_randomized",
    "GershgorinRegion",
    "gershgorin_region",
    "DiagonalBoundCertificate",
    "diagonal_bound_certificate",
    "ConjugationBoundReport",
    "conjugation_family_bound",
]

#: Invertibility threshold for sampled elements of the solution space:
#: smallest singular value must exceed this times the largest.
INVERTIBILITY_REL = 1e-8

#: Number of random draws before declaring the solution space free of
#: invertible elements.
DEFAULT_DRAWS = 16

#: ``sup ||J * B_k||`` from which :func:`conjugation_family_bound` is vacuous.
OFFDIAG_CAP = 1e6


class CertificateError(ConjlimError):
    """A quantitative certificate inequality failed on the given input."""


class ConjugationFamilyError(ConjlimError):
    """The supplied matrices are not mutually similar within tolerance."""


@dataclass(frozen=True)
class Modifier:
    """A bounded linear map on n x n matrices.

    ``kind`` is one of ``"identity"``, ``"hadamard"`` (entrywise product
    with ``data``), or ``"general"`` (``data`` is n^2 x n^2 and acts on
    column-stacked matrices).
    """

    kind: str
    dim: int
    data: np.ndarray | None = field(default=None)

    def __post_init__(self):
        if self.dim < 1:
            raise InvalidInputError(f"modifier dimension must be positive, got {self.dim}")
        n = self.dim
        if self.kind == "identity":
            if self.data is not None:
                raise InvalidInputError("identity modifier carries no data")
        elif self.kind == "hadamard":
            h = as_square(self.data, "hadamard factor")
            if h.shape != (n, n):
                raise InvalidInputError(f"hadamard factor must be {n}x{n}, got {h.shape}")
            object.__setattr__(self, "data", _readonly(h))
        elif self.kind == "general":
            l = as_square(self.data, "modifier matrix")
            if l.shape != (n * n, n * n):
                raise InvalidInputError(
                    f"general modifier must be {n * n}x{n * n}, got {l.shape}"
                )
            object.__setattr__(self, "data", _readonly(l))
        else:
            raise InvalidInputError(f"unknown modifier kind {self.kind!r}")

    @staticmethod
    def identity(n: int) -> "Modifier":
        return Modifier("identity", n)

    @staticmethod
    def hadamard(h) -> "Modifier":
        h = as_square(h, "hadamard factor")
        return Modifier("hadamard", h.shape[0], h)

    @staticmethod
    def general(l) -> "Modifier":
        l = as_square(l, "modifier matrix")
        n = int(round(np.sqrt(l.shape[0])))
        if n * n != l.shape[0]:
            raise InvalidInputError("general modifier size must be a perfect square")
        return Modifier("general", n, l)

    @staticmethod
    def delete_diagonal(n: int) -> "Modifier":
        """Hadamard modifier that zeroes the diagonal and keeps the rest."""
        return Modifier.hadamard(np.ones((n, n)) - np.eye(n))

    def __call__(self, a) -> np.ndarray:
        return apply(self, a)

    def adjoint(self) -> "Modifier":
        """``phi'(M) = phi(M^H)^H``: Hadamard by ``H^H``, or ``P conj(L) P``
        with P the vec-transpose permutation; cached, with adjoint phi."""
        return self._adjoint

    @cached_property
    def _adjoint(self) -> "Modifier":
        if self.kind == "identity":
            return self
        n = self.dim
        p = np.arange(n * n).reshape(n, n).T.reshape(-1)  # P vec(M) = vec(M^T)
        data = self.data.conj().T if self.kind == "hadamard" else self.data.conj()[np.ix_(p, p)]
        out = Modifier(self.kind, n, data)
        # ||P conj(L) P|| = ||L||: no second n^2 x n^2 SVD for the general kind
        object.__setattr__(out, "_norm_scale", self._norm_scale)
        object.__setattr__(out, "_adjoint", self)
        return out

    def norm_scale(self) -> float:
        """Operator-norm bound used when scaling residual thresholds."""
        return self._norm_scale

    @cached_property
    def _norm_scale(self) -> float:
        # computed once (data is read-only): the general kind takes an n^2 x n^2 SVD
        if self.kind == "identity":
            return 1.0
        if self.kind == "hadamard":
            return max(1.0, float(np.abs(self.data).max()))
        return max(1.0, operator_norm(self.data))


def apply(phi: Modifier, a) -> np.ndarray:
    """Apply the modifier to one matrix or to a stack of matrices on the last
    two axes: identity, entrywise product, or vectorized map."""
    m = np.asarray(a, dtype=np.complex128)
    n = phi.dim
    if m.shape[-2:] != (n, n):
        raise InvalidInputError(f"modifier dimension {n} does not match matrix {m.shape}")
    if not np.isfinite(m).all():
        raise InvalidInputError("A contains non-finite entries")
    if phi.kind == "identity":
        return m.copy()
    if phi.kind == "hadamard":
        return phi.data * m
    # column-stacked vec of each matrix, as rows: vec(M) = M^T flattened
    lead = m.shape[:-2]
    vecs = m.swapaxes(-1, -2).reshape(lead + (n * n,))
    return (vecs @ phi.data.T).reshape(lead + (n, n)).swapaxes(-1, -2)


def some_path_bounded(a, z, phi: Modifier, *, seed) -> MembershipVerdict:
    """Does some path of invertibles ``U -> Z`` keep ``phi(U A U^{-1})``
    bounded?

    Equivalent to the existence of a companion ``C = K X L^H`` (X invertible)
    with ``phi(Z A C) = 0``.

    * Faithful phi (identity, or Hadamard with every off-diagonal entry
      nonzero): ``Z A C`` squares to zero because ``C Z = 0``, so
      ``phi(Z A C) = 0`` iff ``Z A K = 0``.  The verdict, residual and
      threshold are those of :func:`~conjlim.criteria.keeps_kernel_invariant`,
      whatever the scale of Z or of phi; ``seed`` is unused and ``witness``
      is the companion ``K L^H`` whatever the verdict.
    * Any other phi: seeded draws from the solution space of
      ``phi(Z A K X L^H) = 0``, at ``residual_scale(||Z|| ||A||)``
      times ``phi.norm_scale()``.  On success ``witness`` is the companion
      found and ``residual`` is ``||phi(Z A C)||``; on failure ``witness``
      is the most-invertible candidate sampled and ``residual`` its relative
      invertibility margin, or 0 with a zero witness when the solution space
      is trivial.  A false verdict is correct with probability 1 after
      :data:`DEFAULT_DRAWS` samples; seeds make it reproducible.
    """
    A, Z = _pair(a, z)
    n = Z.shape[0]
    if phi.dim != n:
        raise InvalidInputError("modifier dimension does not match the matrices")
    # every C with im(C) = ker(Z), ker(C) = im(Z) is K X L^H with X
    # invertible, for orthonormal bases K of ker(Z) and L of ker(Z^H); one
    # SVD and one rank decision give both, so dim K = dim L
    u, s, vh, r = svd_rank(Z)
    kb, lb, k = vh[r:].conj().T, u[:, r:], n - r
    if phi.kind != "general" and nilpotent_faithful(phi).faithful:
        # (Z A C)^2 = 0 since C Z = 0, and phi is nonzero on every nonzero
        # square-zero matrix: phi(Z A K X L^H) = 0 iff Z A K = 0
        return replace(_kernel_verdict(A, vh, r), witness=kb @ lb.conj().T)
    # phi-images carry the size of phi
    threshold = residual_scale(float(s[0]) * operator_norm(A)) * phi.norm_scale()
    if k == 0:
        # invertible base point: C = 0 is the unique admissible companion
        return MembershipVerdict(True, 0.0, np.zeros((n, n), dtype=np.complex128), threshold)

    # phi(left X right) = sum_ij X_ij phi(left[:, i] right[j, :]); image
    # j*k + i belongs to X_ij, its position in the column-stacked vec(X)
    left, right = Z @ A @ kb, lb.conj().T
    images = left.T[None, :, :, None] * right[:, None, None, :]
    constraint = apply(phi, images.reshape(k * k, n, n)).reshape(k * k, n * n).T
    _, s, vh = np.linalg.svd(constraint, full_matrices=False)
    null_vecs = vh[s <= threshold].conj().T  # (k^2, d)
    d = null_vecs.shape[1]
    if d == 0:
        return MembershipVerdict(False, 0.0, np.zeros((n, n), dtype=np.complex128), threshold)

    rng = np.random.default_rng(seed)
    best_margin = -1.0
    best_x = None
    for _ in range(DEFAULT_DRAWS):
        coeff = ginibre(d, 1, rng).reshape(-1)
        x = (null_vecs @ coeff).reshape((k, k), order="F")
        sv = np.linalg.svd(x, compute_uv=False)
        if sv[0] <= 0.0:
            continue
        margin = float(sv[-1] / sv[0])
        if margin > best_margin:
            best_margin = margin
            best_x = x
        if sv[-1] > INVERTIBILITY_REL * sv[0]:
            companion = kb @ x @ lb.conj().T
            residual = operator_norm(apply(phi, Z @ A @ companion))
            return MembershipVerdict(True, residual, companion, threshold)
    witness = kb @ best_x @ lb.conj().T if best_x is not None else np.zeros((n, n))
    return MembershipVerdict(False, best_margin, witness, threshold)


def some_path_bounded_dual(a, z, phi: Modifier, *, seed) -> MembershipVerdict:
    """Mirror of :func:`some_path_bounded` for ``phi(U^{-1} A U)``: is
    ``phi(C A Z) = 0`` for some companion C?  As ``phi(C A Z)^H =
    phi'(Z^H A^H C^H)``, it is :func:`some_path_bounded` on
    ``(A^H, Z^H, phi.adjoint())``, with the witness mapped back by ``^H``."""
    A, Z = _pair(a, z)
    return _adjoint_witness(some_path_bounded(A.conj().T, Z.conj().T, phi.adjoint(), seed=seed))


@dataclass(frozen=True)
class FaithfulnessReport:
    """Whether the modifier is nonzero on every nonzero T with T^2 = 0.

    ``exact`` records whether the conclusion came from the closed-form
    criterion (identity and Hadamard kinds) or from the randomized falsifier
    (general kind), whose positive answer is only probabilistic.
    """

    faithful: bool
    counterexample: np.ndarray | None
    exact: bool


def nilpotent_faithful(phi: Modifier, *, seed: int = 0, trials: int = 200) -> FaithfulnessReport:
    """Decide whether ``phi(T) = 0`` forces ``T = 0`` among T with T^2 = 0.

    This property characterizes the modifiers that change no boundedness
    verdict.  For Hadamard modifiers it is exact: it holds iff every
    off-diagonal entry of H is nonzero, and the first zero entry (i, j) in
    row-major order yields the counterexample E_ij.  An exact positive
    answer is what lets :func:`some_path_bounded` decide by the kernel
    criterion.  General modifiers fall back on the randomized falsifier.
    """
    if phi.kind == "identity":
        return FaithfulnessReport(True, None, True)
    if phi.kind == "hadamard":
        blind = phi.data == 0
        np.fill_diagonal(blind, False)
        if not blind.any():
            return FaithfulnessReport(True, None, True)
        # argmax on the flattened mask finds the first zero in row-major order
        i, j = divmod(int(np.argmax(blind)), phi.dim)
        return FaithfulnessReport(False, _elementary(phi.dim, i, j), True)
    return nilpotent_faithful_randomized(phi, seed=seed, trials=trials)


def nilpotent_faithful_randomized(
    phi: Modifier, *, seed: int = 0, trials: int = 200
) -> FaithfulnessReport:
    """Randomized falsifier usable for any modifier kind.

    Samples square-zero candidates T (elementary off-diagonal units, rotated
    rank-one units x y^H with x perpendicular to y, and random block products
    W1 Y W2^H over orthogonal frames) and reports the first nonzero T with
    ``phi(T) = 0``.  A ``faithful=True`` answer is probabilistic.
    """
    n = phi.dim
    rng = np.random.default_rng(seed)
    scale = phi.norm_scale()

    def falsifies(t: np.ndarray) -> bool:
        tn = operator_norm(t)
        if tn <= 0.0:
            return False
        return operator_norm(apply(phi, t)) <= residual_scale(scale * tn)

    for i in range(n):
        for j in range(n):
            if i != j:
                t = _elementary(n, i, j)
                if falsifies(t):
                    return FaithfulnessReport(False, t, False)
    for _ in range(trials):
        if n >= 2 and rng.uniform() < 0.5:
            q = random_unitary(n, rng)
            t = np.outer(q[:, 0], q[:, 1].conj())
        else:
            q = random_unitary(n, rng)
            j = int(rng.integers(1, max(2, n // 2 + 1))) if n >= 2 else 1
            j = min(j, n - j) if n >= 2 else 0
            if j < 1:
                continue
            y = ginibre(j, j, rng)
            t = q[:, :j] @ y @ q[:, j : 2 * j].conj().T
        if falsifies(t):
            return FaithfulnessReport(False, t, False)
    return FaithfulnessReport(True, None, False)


@dataclass(frozen=True)
class GershgorinRegion:
    """Disk centers (diagonal entries) and radii (off-diagonal row sums)."""

    centers: np.ndarray
    radii: np.ndarray

    def contains(self, values, margin: float = 0.0) -> bool:
        """True iff every value lies in the union of the disks (inflated by
        ``margin``)."""
        vals = np.atleast_1d(np.asarray(values, dtype=np.complex128))
        dist = np.abs(vals[:, None] - self.centers[None, :]) - self.radii[None, :]
        return bool(np.all(dist.min(axis=1) <= margin))


def gershgorin_region(a) -> GershgorinRegion:
    """Eigenvalue-localizing disks: centers ``a_ii`` and radii
    ``R_i = sum_{j != i} |a_ij|``."""
    m = as_square(a, "A")
    centers = np.diagonal(m).copy()
    radii = np.abs(m).sum(axis=1) - np.abs(centers)
    return GershgorinRegion(centers=centers, radii=np.asarray(radii, dtype=float))


@dataclass(frozen=True)
class DiagonalBoundCertificate:
    """Constituents of ``sum_i |a_ii| <= 2 sum_j R_j + sum_i |lambda_i|``."""

    diag_sum: float
    radii_sum: float
    eigenvalue_sum: float

    @property
    def bound(self) -> float:
        return 2.0 * self.radii_sum + self.eigenvalue_sum


def diagonal_bound_certificate(a) -> DiagonalBoundCertificate:
    """Certificate controlling the diagonal by the off-diagonal mass plus the
    spectrum: checks ``sum_i |a_ii| <= 2 sum_j R_j + sum_i |lambda_i|``.

    Diagonal matrices realize it with equality.  Raises
    :class:`CertificateError` if the inequality fails on the input.
    """
    m = as_square(a, "A")
    region = gershgorin_region(m)
    eigs = np.linalg.eigvals(m)
    cert = DiagonalBoundCertificate(
        diag_sum=float(np.abs(region.centers).sum()),
        radii_sum=float(region.radii.sum()),
        eigenvalue_sum=float(np.abs(eigs).sum()),
    )
    slack = 1e-9 * max(1.0, cert.bound)
    if cert.diag_sum > cert.bound + slack:
        raise CertificateError(
            f"diagonal bound violated: {cert.diag_sum:.6e} > {cert.bound:.6e}"
        )
    return cert


@dataclass(frozen=True)
class ConjugationBoundReport:
    """Realized constants of the off-diagonal-controls-norm transfer."""

    ok: bool
    vacuous: bool
    sup_full: float
    sup_offdiag: float
    slope_constant: float
    eigenvalue_sum: float


def _matchable(adjacent: np.ndarray) -> bool:
    """Does the bipartite graph ``adjacent[i, j]`` (rows to columns) have a
    perfect matching?  Kuhn's augmenting paths, O(n^3) on n x n."""
    n = adjacent.shape[0]
    owner = [-1] * n  # row matched to each column

    def augment(i: int, seen: list) -> bool:
        for j in np.flatnonzero(adjacent[i]):
            if not seen[j]:
                seen[j] = True
                if owner[j] < 0 or augment(owner[j], seen):
                    owner[j] = i
                    return True
        return False

    return all(augment(i, [False] * n) for i in range(n))


def conjugation_family_bound(mats, eig_tol: float = 1e-6) -> ConjugationBoundReport:
    """For a family of mutually similar matrices, check the quantitative
    transfer "bounded off-diagonals imply a bounded family":

        sup_k ||B_k|| <= (2n + 1) * sup_k ||J * B_k|| + sum_i |lambda_i(B_0)|

    whenever ``sup_k ||J * B_k|| < OFFDIAG_CAP`` (otherwise the implication
    is vacuous and the report says so).  Similarity is spot-checked through
    eigenvalue matching: each member's spectrum must admit a bottleneck
    matching to that of ``B_0``, one that pairs every eigenvalue within
    ``eig_tol * max(1, ||B_0||)``.  Otherwise :class:`ConjugationFamilyError`
    names the smallest largest distance any matching achieves.
    """
    family = list(mats)
    if not family:
        raise InvalidInputError("family must be non-empty")
    first = as_square(family[0], "family member")
    family = [as_square_like(first, b, "family member") for b in family]
    n = first.shape[0]

    ref = np.linalg.eigvals(family[0])
    bound = eig_tol * max(1.0, operator_norm(family[0]))
    for b in family[1:]:
        cost = np.abs(ref[:, None] - np.linalg.eigvals(b)[None, :])
        if not _matchable(cost <= bound):
            # the largest distance admits a matching, so the search ends there
            levels = np.unique(cost)
            worst = levels[bisect_left(levels, True, key=lambda d: _matchable(cost <= d))]
            raise ConjugationFamilyError(
                f"eigenvalues differ by {worst:.3e}; "
                "matrices are not a conjugation family"
            )

    j = Modifier.delete_diagonal(n)
    sup_full = max(operator_norm(b) for b in family)
    sup_off = max(operator_norm(apply(j, b)) for b in family)
    c1 = 2.0 * n + 1.0
    c2 = float(np.abs(ref).sum())
    vacuous = sup_off >= OFFDIAG_CAP
    ok = vacuous or sup_full <= c1 * sup_off + c2 + 1e-9 * max(1.0, sup_full)
    return ConjugationBoundReport(
        ok=ok,
        vacuous=vacuous,
        sup_full=sup_full,
        sup_offdiag=sup_off,
        slope_constant=c1,
        eigenvalue_sum=c2,
    )
