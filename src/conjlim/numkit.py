"""Dense complex linear algebra shared by every other module.

Matrices are plain ``numpy.ndarray`` objects with complex128 entries.  The
one rank decision is :func:`svd_rank`, a relative cutoff on one full SVD
from which every kernel, image and rank is read; subspaces are always stored
with orthonormal bases so that equality and containment reduce to projector
norm tests, and the matrix norm is the operator 2-norm throughout.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConjlimError",
    "InvalidInputError",
    "NotPSDError",
    "Tolerance",
    "DEFAULT_TOL",
    "as_matrix",
    "as_square",
    "as_square_like",
    "as_vector",
    "operator_norm",
    "poly_eval",
    "svd_rank",
    "rank_of",
    "SINGULAR_REL",
    "singular",
    "gated_inverse",
    "Subspace",
    "kernel_basis",
    "image_basis",
    "orthonormal_complement",
    "subspace_equal",
    "subspace_intersection",
    "psd_sqrt",
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


class NotPSDError(ConjlimError):
    """Matrix is not Hermitian positive semidefinite within tolerance."""


@dataclass(frozen=True)
class Tolerance:
    """Numerical policy shared by all rank and residual decisions.

    Parameters
    ----------
    rank_rel : float
        Relative singular-value cutoff: directions with
        ``sigma <= rank_rel * sigma_max`` count as null.  Must lie in (0, 1).
    residual_abs : float
        Absolute residual cutoff, scaled by input norms where appropriate
        via :meth:`residual_scale`.
    """

    rank_rel: float = 1e-10
    residual_abs: float = 1e-10

    def __post_init__(self):
        if not (0.0 < self.rank_rel < 1.0):
            raise InvalidInputError(f"rank_rel must be in (0, 1), got {self.rank_rel}")
        if self.residual_abs <= 0.0:
            raise InvalidInputError(
                f"residual_abs must be positive, got {self.residual_abs}"
            )

    def residual_scale(self, *norms: float) -> float:
        """Residual threshold ``residual_abs * max(1, prod(norms))``."""
        scale = 1.0
        for value in norms:
            scale *= float(value)
        return self.residual_abs * max(1.0, scale)


#: The one numerical policy, read by every rank cut and residual threshold.
DEFAULT_TOL = Tolerance()


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


def as_vector(v, name: str = "vector") -> np.ndarray:
    x = np.asarray(v, dtype=np.complex128).reshape(-1)
    if x.size == 0:
        raise InvalidInputError(f"{name} must be non-empty")
    if not np.isfinite(x).all():
        raise InvalidInputError(f"{name} contains non-finite entries")
    return x


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


def gated_inverse(us: np.ndarray):
    """Inverses of a stack ``us`` of square matrices, shape ``(k, n, n)``,
    and the :func:`singular` gate on each, as ``(inv, gate)``.

    One batched LU inverse ``X`` serves both.  With ``R = U X - I``, a point
    where ``||R||_F <= 1/2`` has ``||U^{-1}||_2 <= ||X||_2 / (1 - ||R||_2) <=
    2 ||X||_F``, and ``sigma_max(U) <= ||U||_F``; so where also ``10 *
    SINGULAR_REL * ||X||_F * max(1, ||U||_F) < 1``, ``sigma_min(U) >= 5 *
    SINGULAR_REL * max(1, sigma_max(U))``, five times clear of the gate and
    of the SVD's own rounding, and the gate reads False without an SVD.  The
    rounding of the residual product there is at most ``n * eps * ||U||_F
    ||X||_F < n * eps * 1e12``, under 4e-3 for n <= 16 and negligible
    against 1/2.  This is the a-posteriori residual bound for a computed
    inverse (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd
    ed., ch. 14).

    Every other point, and every point when the LU fails, is gated by
    :func:`singular` on its singular values, exactly as without the
    certificate.  If the LU failed and the gate fires nowhere, its
    ``LinAlgError`` is raised; if it failed and the gate fires, ``inv`` is
    None.
    """
    try:
        inv = np.linalg.inv(us)
    except np.linalg.LinAlgError as err:
        inv, failure = None, err
        unsure = np.ones(us.shape[0], dtype=bool)
    else:
        residual = np.linalg.norm(us @ inv - np.eye(us.shape[-1]), axis=(-2, -1))
        fro_inv = np.linalg.norm(inv, axis=(-2, -1))
        fro_u = np.linalg.norm(us, axis=(-2, -1))
        # a NaN or inf anywhere leaves its point unsure
        unsure = ~(
            (residual <= 0.5) & (10.0 * SINGULAR_REL * fro_inv * np.maximum(1.0, fro_u) < 1.0)
        )
    gate = np.zeros(us.shape[0], dtype=bool)
    if unsure.any():
        gate[unsure] = singular(np.linalg.svd(us[unsure], compute_uv=False))
    if inv is None and not gate.any():
        raise failure
    return inv, gate


def svd_rank(m):
    """One full SVD ``m = u @ diag(s) @ vh`` and the numerical rank r, the
    number of ``sigma > DEFAULT_TOL.rank_rel * sigma_max`` (0 for a zero
    matrix), as ``(u, s, vh, r)``: ``vh[r:]^H`` spans ker m, ``u[:, :r]``
    im m and ``u[:, r:]`` ker m^H."""
    u, s, vh = np.linalg.svd(as_matrix(m))
    r = int(np.count_nonzero(s > DEFAULT_TOL.rank_rel * s[0])) if s[0] > 0.0 else 0
    return u, s, vh, r


def rank_of(m) -> int:
    """Numerical rank at the relative cutoff of :func:`svd_rank`."""
    return svd_rank(m)[3]


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
            if operator_norm(gram - np.eye(b.shape[1])) > 100 * DEFAULT_TOL.residual_scale():
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

    def contains(self, v) -> bool:
        x = as_vector(v)
        if x.size != self.ambient_dim:
            raise InvalidInputError("vector dimension does not match ambient dimension")
        res = x - self.projector() @ x
        return float(np.linalg.norm(res)) <= DEFAULT_TOL.residual_scale(np.linalg.norm(x))

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
    return operator_norm(s1.projector() - s2.projector()) <= DEFAULT_TOL.residual_abs


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


def psd_sqrt(m) -> np.ndarray:
    """Hermitian PSD square root of a Hermitian PSD matrix.

    Raises :class:`NotPSDError` when the input is materially non-Hermitian or
    has a negative eigenvalue beyond tolerance.
    """
    a = as_square(m)
    norm = operator_norm(a)
    if operator_norm(a - a.conj().T) > DEFAULT_TOL.residual_scale(norm):
        raise NotPSDError("matrix is not Hermitian within tolerance")
    h = 0.5 * (a + a.conj().T)
    w, v = np.linalg.eigh(h)
    if w.size and float(w[0]) < -DEFAULT_TOL.residual_scale(norm):
        raise NotPSDError(f"matrix has negative eigenvalue {w[0]:.3e}")
    w = np.clip(w, 0.0, None)
    root = (v * np.sqrt(w)) @ v.conj().T
    return 0.5 * (root + root.conj().T)


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
