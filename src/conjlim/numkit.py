"""Dense complex linear algebra shared by every other module.

Matrices are plain ``numpy.ndarray`` objects with complex128 entries.  The
numerical policy is held in module constants: :data:`RANK_REL`,
:data:`RESIDUAL_ABS` with :func:`residual_scale`, and :data:`SINGULAR_REL`.
The one rank decision is :func:`svd_rank`, a relative cutoff on one full SVD
from which every kernel, image and rank is read; the one matrix inverse is
:func:`lu_inverse`, with its residual certificate; subspaces are always
stored with orthonormal bases so that equality reduces to a projector norm
test, and the matrix norm is the operator 2-norm throughout.
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConjlimError",
    "InvalidInputError",
    "RANK_REL",
    "RESIDUAL_ABS",
    "residual_scale",
    "as_matrix",
    "as_square",
    "as_square_like",
    "operator_norm",
    "poly_eval",
    "svd_rank",
    "pole_block_inverse",
    "SINGULAR_REL",
    "singular",
    "lu_inverse",
    "gated_inverse",
    "Subspace",
    "kernel_basis",
    "image_basis",
    "orthonormal_complement",
    "subspace_equal",
    "subspace_intersection",
    "ginibre",
    "random_unitary",
    "random_singular",
    "matrix_to_json",
    "matrix_from_json",
    "matrices_from_json",
    "read_field",
    "save_matrix",
    "load_matrix",
]


class ConjlimError(Exception):
    """Base class for errors raised by this package."""


class InvalidInputError(ConjlimError, ValueError):
    """An input violates a precondition (shape, finiteness, range)."""


#: Relative singular-value cutoff of :func:`svd_rank`: directions with
#: ``sigma <= RANK_REL * sigma_max`` count as null.
RANK_REL = 1e-10

#: Relative residual cutoff: a defect vanishes when its norm is at most
#: :func:`residual_scale` of the norms of the factors it is built from.
RESIDUAL_ABS = 1e-10


def residual_scale(*norms: float) -> float:
    """Residual threshold ``RESIDUAL_ABS * prod(norms)``: it scales with every
    factor, so no verdict read against it moves when an input is scaled."""
    scale = 1.0
    for value in norms:
        scale *= float(value)
    return RESIDUAL_ABS * scale


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return ``a`` as a finite complex 2-d array."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise InvalidInputError(f"{name} must be 2-dimensional, got shape {m.shape}")
    if m.size == 0:
        raise InvalidInputError(f"{name} must be non-empty, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise InvalidInputError(f"{name} contains non-finite entries")
    return m


def as_square(a, name: str = "matrix") -> np.ndarray:
    m = as_matrix(a, name)
    if m.shape[0] != m.shape[1]:
        raise InvalidInputError(f"{name} must be square, got shape {m.shape}")
    return m


def as_square_like(ref: np.ndarray, m, name: str = "matrix") -> np.ndarray:
    """Validate ``m`` as a square matrix with the shape of ``ref``."""
    out = as_square(m, name)
    if out.shape != ref.shape:
        raise InvalidInputError(f"{name} must have shape {ref.shape}, got {out.shape}")
    return out


def operator_norm(m) -> float:
    """Largest singular value of ``m`` (operator 2-norm): the LAPACK call and
    value of ``np.linalg.norm(m, 2)``, without its axis handling."""
    return float(np.linalg.svd(as_matrix(m), compute_uv=False)[0])


def poly_eval(base: np.ndarray, coeffs, ts) -> np.ndarray:
    """Stack of path values ``base + sum_k t^k coeffs[k-1]``, one per t.

    Horner's rule over the coefficients, vectorised over the 1-d array
    ``ts``; returns a complex array of shape ``(len(ts), n, n)``.
    """
    t = np.asarray(ts, dtype=np.complex128).reshape(-1, 1, 1)
    out = np.zeros((t.shape[0],) + base.shape, dtype=np.complex128)
    for e in reversed(coeffs):
        out = t * (out + e)
    return out + base


#: A matrix counts as singular when ``sigma_min <= SINGULAR_REL * max(1,
#: sigma_max)``.  The gate sits just above machine precision so that
#: legitimately near-singular points (the interesting regime for divergence)
#: still get evaluated.
SINGULAR_REL = 1e-13


def singular(s: np.ndarray):
    """Singularity gate on descending singular values ``s``: one vector, or a
    stack on the last axis (one verdict per matrix)."""
    if s.ndim == 1:
        # Python floats: numpy scalar arithmetic costs several times more
        return float(s[-1]) <= SINGULAR_REL * max(1.0, float(s[0]))
    return s[..., -1] <= SINGULAR_REL * np.maximum(1.0, s[..., 0])


def lu_inverse(us: np.ndarray):
    """LU inverses ``X`` of a stack ``us`` of square matrices, shape ``(k, n,
    n)``, and their residual certificate, as ``(inv, bound)``.

    One batched ``np.linalg.inv``; when an exactly singular matrix fails the
    batch, the others are inverted one by one and it reads NaN.  This is the
    package's one matrix inverse.

    ``bound`` is, per matrix, an upper bound on ``||U^{-1}||_2``, or ``inf``
    where ``X`` cannot be certified.  With ``R = U X - I``, a matrix where
    ``||R||_F <= 1/2`` has ``||U^{-1}||_2 <= ||X||_2 / (1 - ||R||_2) <= 2
    ||X||_F``, which is returned there; with ``sigma_max(U) <= ||U||_F``,
    ``2 ||U||_F ||X||_F`` then bounds the condition number ``sigma_max /
    sigma_min``.  This is the a-posteriori residual bound for a computed
    inverse (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd
    ed., ch. 14).  A NaN or inf anywhere in ``X`` leaves its matrix
    uncertified.
    """
    try:
        inv = np.linalg.inv(us)
    except np.linalg.LinAlgError:
        inv = np.full(us.shape, np.nan, dtype=np.complex128)
        for k, u in enumerate(us):
            with contextlib.suppress(np.linalg.LinAlgError):
                inv[k] = np.linalg.inv(u)
    residual = us @ inv
    residual -= np.eye(us.shape[-1])
    bound = np.where(_frobenius_sq(residual) <= 0.25, 2.0 * np.sqrt(_frobenius_sq(inv)), np.inf)
    return inv, bound


def _frobenius_sq(ms: np.ndarray) -> np.ndarray:
    """Squared Frobenius norms of a stack over its last two axes: one float
    dot product each, several times cheaper than ``np.linalg.norm``."""
    v = np.ascontiguousarray(ms, dtype=np.complex128).view(np.float64)
    return np.einsum("...ij,...ij->...", v, v)


def gated_inverse(us: np.ndarray):
    """Inverses of a stack ``us`` of square matrices, shape ``(k, n, n)``,
    and the :func:`singular` gate on each, as ``(inv, gate)``: the gate of
    :func:`pathsim.simulate` and :func:`goodpath.laurent_inverse`.

    The inverses ``X`` and their certificate come from :func:`lu_inverse`.
    Where it certifies ``||U^{-1}||_2 <= b`` and ``5 * SINGULAR_REL * b *
    max(1, ||U||_F) < 1``, ``sigma_min(U) >= 5 * SINGULAR_REL * max(1,
    sigma_max(U))``, five times clear of the gate and of the SVD's own
    rounding, and the gate reads False without an SVD.  The rounding of the
    residual product there is at most ``n * eps * ||U||_F ||X||_F < n * eps
    * 1e12``, under 4e-3 for n <= 16 and negligible against 1/2.

    Every other point, among them each one whose LU failed and whose ``X``
    reads NaN, is gated by :func:`singular` on its singular values, exactly
    as without the certificate.  If an LU failed and the gate fires nowhere,
    ``LinAlgError`` is raised.
    """
    inv, bound = lu_inverse(us)
    unsure = ~(5.0 * SINGULAR_REL * bound * np.maximum(1.0, np.sqrt(_frobenius_sq(us))) < 1.0)
    gate = np.zeros(us.shape[0], dtype=bool)
    if unsure.any():
        gate[unsure] = singular(np.linalg.svd(us[unsure], compute_uv=False))
        if not gate.any() and np.isnan(inv[unsure]).any():
            raise np.linalg.LinAlgError("Singular matrix")
    return inv, gate


def svd_rank(m):
    """One full SVD ``m = u @ diag(s) @ vh`` and the numerical rank r, the
    number of ``sigma > RANK_REL * sigma_max`` (0 for a zero matrix), as
    ``(u, s, vh, r)``: ``vh[r:]^H`` spans ker m, ``u[:, :r]`` im m and
    ``u[:, r:]`` ker m^H."""
    u, s, vh = np.linalg.svd(as_matrix(m))
    r = int(np.count_nonzero(s > RANK_REL * s[0])) if s[0] > 0.0 else 0
    return u, s, vh, r


def pole_block_inverse(u, vh, r, e1):
    """``(inverse, ratio, cut)`` for ``S_1 = u[:, r:]^H E_1 vh[r:]^H``, the k x
    k block of E_1 from ker Z to ker Z^H, on the SVD of Z from
    :func:`svd_rank`.  Along ``Z + sum t^k E_k`` the pole order is <= 1
    exactly when S_1 is invertible.  ``ratio = sigma_min(S_1) / ||E_1||_F``,
    ``cut = RANK_REL``, and ``inverse = S_1^{-1}``, or None where
    ``ratio <= cut``: the cut is relative to ``||E_1||``, not to
    ``sigma_max(S_1)``, so an S_1 that vanishes up to rounding is not
    cleared.  An invertible Z (k = 0) gives the 0 x 0 inverse and ratio inf.
    """
    cut = RANK_REL
    if r == u.shape[0]:
        return np.zeros((0, 0), dtype=np.complex128), np.inf, cut
    w, s, xh = np.linalg.svd(u[:, r:].conj().T @ e1 @ vh[r:].conj().T)
    scale = float(np.sqrt(_frobenius_sq(e1)))
    ratio = float(s[-1]) / scale if scale > 0.0 else 0.0
    if not ratio > cut:
        return None, ratio, cut
    return (xh.conj().T / s) @ w.conj().T, ratio, cut


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.complex128, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of C^n stored as an orthonormal column basis.

    ``basis`` has shape ``(ambient_dim, dim)``; ``dim`` may be zero.
    """

    basis: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=np.complex128)
        if b.ndim != 2 or b.shape[0] == 0:
            raise InvalidInputError(f"subspace basis must be (n, d), got {b.shape}")
        if b.shape[1] > b.shape[0]:
            raise InvalidInputError("subspace dimension exceeds ambient dimension")
        if b.shape[1] > 0:
            gram = b.conj().T @ b
            if operator_norm(gram - np.eye(b.shape[1])) > 100 * RESIDUAL_ABS:
                raise InvalidInputError("subspace basis columns are not orthonormal")
        object.__setattr__(self, "basis", _readonly(b))

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        """Orthogonal projector onto the subspace."""
        return self.basis @ self.basis.conj().T

    @staticmethod
    def from_span(vectors) -> "Subspace":
        """Orthonormalize the columns of ``vectors`` (rank-revealing)."""
        return image_basis(vectors)

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(np.zeros((ambient_dim, 0)))

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(np.eye(ambient_dim))


def kernel_basis(m) -> Subspace:
    """Orthonormal basis of the numerical null space of ``m`` (:func:`svd_rank`)."""
    _, _, vh, r = svd_rank(m)
    return Subspace(vh[r:].conj().T)


def image_basis(m) -> Subspace:
    """Orthonormal basis of the numerical column space of ``m`` (:func:`svd_rank`)."""
    u, _, _, r = svd_rank(m)
    return Subspace(u[:, :r])


def orthonormal_complement(s: Subspace) -> Subspace:
    """Orthonormal basis of the orthogonal complement."""
    if s.dim == 0:
        return Subspace.full(s.ambient_dim)
    return kernel_basis(s.basis.conj().T)


def subspace_equal(s1: Subspace, s2: Subspace) -> bool:
    """True iff the two subspaces agree within the projector-norm tolerance."""
    if s1.ambient_dim != s2.ambient_dim:
        raise InvalidInputError(
            f"ambient dimensions differ: {s1.ambient_dim} vs {s2.ambient_dim}"
        )
    if s1.dim != s2.dim:
        return False
    if s1.dim == 0:
        return True
    return operator_norm(s1.projector() - s2.projector()) <= RESIDUAL_ABS


def subspace_intersection(s1: Subspace, s2: Subspace) -> Subspace:
    """Orthonormal basis of the intersection of two subspaces."""
    if s1.ambient_dim != s2.ambient_dim:
        raise InvalidInputError("ambient dimensions differ")
    n = s1.ambient_dim
    if s1.dim == 0 or s2.dim == 0:
        return Subspace.zero(n)
    eye = np.eye(n)
    stacked = np.vstack([eye - s1.projector(), eye - s2.projector()])
    return kernel_basis(stacked)


# ---------------------------------------------------------------------------
# Random ensembles.  All randomized code in the package draws from the
# complex Ginibre ensemble through an explicit generator.

def ginibre(rows: int, cols: int | None = None, rng: np.random.Generator | None = None) -> np.ndarray:
    """Matrix with i.i.d. standard complex normal entries."""
    if cols is None:
        cols = rows
    if rng is None:
        raise InvalidInputError("ginibre requires an explicit Generator")
    re = rng.standard_normal((rows, cols))
    im = rng.standard_normal((rows, cols))
    return (re + 1j * im) / np.sqrt(2.0)


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(ginibre(n, rng=rng))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_singular(n: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """Random n x n matrix of the given rank (almost surely)."""
    if not (0 <= rank <= n):
        raise InvalidInputError(f"rank must be in [0, {n}], got {rank}")
    if rank == 0:
        return np.zeros((n, n), dtype=np.complex128)
    return ginibre(n, rank, rng) @ ginibre(rank, n, rng)


# ---------------------------------------------------------------------------
# JSON interchange.  {"rows": r, "cols": c, "data": [[re, im], ...]} with the
# entries row-major; decimal text round-trips float64 exactly.

def matrix_to_json(m) -> dict:
    a = as_matrix(m)
    data = [[float(z.real), float(z.imag)] for z in a.reshape(-1)]
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]), "data": data}


def read_field(obj, key: str, parse, what: str):
    """``parse(obj[key])`` for the dict ``obj`` describing a ``what``; a
    non-dict, a missing key or a value ``parse`` rejects (``TypeError``,
    ``ValueError``) raises :class:`InvalidInputError` naming the field."""
    if not isinstance(obj, dict):
        raise InvalidInputError(f"{what} must be an object, got {type(obj).__name__}")
    if key not in obj:
        raise InvalidInputError(f"{what} is missing field {key!r}")
    try:
        return parse(obj[key])
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"{what} field {key!r} is malformed: {exc}") from exc


def matrix_from_json(obj) -> np.ndarray:
    rows, cols = (read_field(obj, key, int, "matrix JSON") for key in ("rows", "cols"))
    data = read_field(obj, "data", list, "matrix JSON")
    if rows <= 0 or cols <= 0:
        raise InvalidInputError(f"matrix dimensions must be positive, got {rows}x{cols}")
    if len(data) != rows * cols:
        raise InvalidInputError(
            f"matrix JSON has {len(data)} entries, expected {rows * cols}"
        )
    flat = np.empty(rows * cols, dtype=np.complex128)
    for i, pair in enumerate(data):
        try:
            real, imag = pair if isinstance(pair, (list, tuple)) else ()
            flat[i] = complex(float(real), float(imag))
        except (TypeError, ValueError):
            raise InvalidInputError(f"entry {i} must be a [re, im] pair, got {pair!r}") from None
    return as_matrix(flat.reshape(rows, cols))


def matrices_from_json(objs) -> list:
    return [matrix_from_json(obj) for obj in objs]


def save_matrix(path, m) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(matrix_to_json(m), fh)


def load_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        return matrix_from_json(json.load(fh))
