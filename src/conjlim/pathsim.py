"""Numeric path simulation and search: growth exponents of
``||phi(U(t) A U(t)^{-1})||`` along paths ``U(t) -> Z``, empirical divergence
certificates, kernel filtrations of path coefficients, and the exact
polynomial-path boundedness test via adjugate/determinant degrees.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .criteria import MembershipVerdict, _invariance_verdict, _kernel_verdict, _pair
from .goodpath import GoodPath, InvalidPathError
from .modifier import Modifier, apply
from .numkit import (
    ConjlimError,
    InvalidInputError,
    Subspace,
    as_square,
    as_square_like,
    gated_inverse,
    ginibre,
    kernel_basis,
    lu_inverse,
    operator_norm,
    poly_eval,
    pole_block_inverse,
    residual_scale,
    singular,
    subspace_intersection,
    svd_rank,
)

__all__ = [
    "PathSingularError",
    "MatrixPath",
    "log_grid",
    "GrowthReport",
    "simulate",
    "SearchOutcome",
    "divergence_search",
    "Filtration",
    "kernel_filtration",
    "preserves_filtration",
    "polynomial_path_bounded",
    "polynomial_growth_degrees",
    "LocalityProbeReport",
    "locality_probe",
]

#: Growth-exponent thresholds for the fitted ``t^{-alpha}`` law and the
#: minimum fit quality required for a definite verdict.
ALPHA_BOUNDED_MAX = 0.1
ALPHA_DIVERGENT_MIN = 0.9
R2_MIN = 0.9

#: Relative coefficient magnitude below which a polynomial coefficient
#: counts as zero in the exact path test.
POLY_COEFF_REL = 1e-9


class PathSingularError(ConjlimError):
    """The path is singular at a grid point."""


def log_grid(t_max: float = 1e-1, t_min: float = 1e-6, count: int = 26) -> np.ndarray:
    """Logarithmically spaced decreasing grid on ``[t_min, t_max]``."""
    if not (0 < t_min < t_max < np.inf):
        raise InvalidInputError("grid endpoints must satisfy 0 < t_min < t_max < inf")
    if count < 2:
        raise InvalidInputError("grid needs at least two points")
    return np.geomspace(t_max, t_min, count)


#: The default grid, built once; read-only, so callers get copies.
_DEFAULT_GRID = log_grid()
_DEFAULT_GRID.setflags(write=False)


@dataclass(frozen=True)
class MatrixPath:
    """A path of matrices parametrized by small ``t > 0``.

    Kinds: ``polynomial`` (``base + sum_k t^k coeffs[k-1]``; also built by
    :meth:`linear` and, from a :class:`~conjlim.goodpath.GoodPath`'s forward
    path, by :meth:`from_good_path`) and ``samples`` (an explicit list of
    ``(t, U)`` pairs).
    """

    kind: str
    base: np.ndarray | None = None
    coeffs: tuple[np.ndarray, ...] = ()
    samples: tuple[tuple[float, np.ndarray], ...] = ()

    @staticmethod
    def linear(z, e) -> "MatrixPath":
        return MatrixPath.polynomial(z, (e,))

    @staticmethod
    def polynomial(z, coeffs) -> "MatrixPath":
        Z = as_square(z, "Z")
        es = tuple(as_square_like(Z, e, "path coefficient") for e in coeffs)
        return MatrixPath(kind="polynomial", base=Z, coeffs=es)

    @staticmethod
    def from_good_path(gp: GoodPath) -> "MatrixPath":
        return MatrixPath(kind="polynomial", base=gp.base, coeffs=gp.path_coeffs)

    @staticmethod
    def from_samples(pairs) -> "MatrixPath":
        pairs = [(float(t), u) for t, u in pairs]
        if not pairs:
            raise InvalidInputError("samples path needs at least one pair")
        first = as_square(pairs[0][1], "sample matrix")
        cleaned = []
        for t, u in pairs:
            if t <= 0:
                raise InvalidInputError(f"sample parameters must be positive, got {t}")
            cleaned.append((t, as_square_like(first, u, "sample matrix")))
        cleaned.sort(key=lambda p: -p[0])
        return MatrixPath(kind="samples", samples=tuple(cleaned))

    @property
    def dim(self) -> int:
        if self.kind == "samples":
            return self.samples[0][1].shape[0]
        return self.base.shape[0]

    def values(self, ts) -> np.ndarray:
        """Stack of path values, shape ``(len(ts), n, n)``, one per t."""
        ts = np.asarray(ts, dtype=float).reshape(-1)
        if self.kind != "samples":
            return poly_eval(self.base, self.coeffs, ts)
        hits = np.isclose(self.grid()[None, :], ts[:, None], rtol=1e-12, atol=0.0)
        missing = ~hits.any(axis=1)
        if missing.any():
            raise InvalidInputError(f"samples path has no matrix at t = {ts[missing.argmax()]}")
        return np.stack([self.samples[j][1] for j in hits.argmax(axis=1)])

    def grid(self, default: np.ndarray | None = None) -> np.ndarray:
        """A copy of ``default`` when given, else the sample parameters of a
        samples path and :func:`log_grid` for the other kinds.

        Raises :class:`~conjlim.numkit.InvalidInputError` unless ``default``
        is a non-empty 1-d array of finite positive t.
        """
        if default is not None:
            ts = np.array(default, dtype=float)
            if ts.ndim != 1 or ts.size == 0:
                raise InvalidInputError(f"grid must be non-empty and 1-d, got shape {ts.shape}")
            if not (np.isfinite(ts).all() and (ts > 0).all()):
                raise InvalidInputError("grid points must be finite and positive")
            return ts
        if self.kind == "samples":
            return np.array([t for t, _ in self.samples])
        return _DEFAULT_GRID.copy()


@dataclass(frozen=True)
class GrowthReport:
    """Sampled conjugation norms with a fitted growth law.

    ``alpha`` is the exponent of the fitted ``t^{-alpha}`` over the smallest
    decade of the grid and ``r2`` its fit quality.  The verdict is
    ``bounded`` when ``alpha <= 0.1``, ``divergent`` when ``alpha >= 0.9``,
    and ``inconclusive`` otherwise or when the fit is poor.  The extreme
    sampled norms are reported as surrogates for the limit behavior, with no
    claim that they equal it.
    """

    t_values: np.ndarray
    norms: np.ndarray
    alpha: float
    r2: float
    verdict: str
    norm_max: float
    norm_min: float

    def to_json(self) -> dict:
        return {
            "t_values": [float(t) for t in self.t_values],
            "norms": [float(v) for v in self.norms],
            "alpha": self.alpha,
            "r2": self.r2,
            "verdict": self.verdict,
            "norm_max": self.norm_max,
            "norm_min": self.norm_min,
        }


def _finite_on_grid(stack: np.ndarray, ts: np.ndarray, what: str) -> np.ndarray:
    """``stack``, one matrix per t; :class:`InvalidInputError` at the first
    t in grid order whose matrix has a non-finite entry."""
    if not np.isfinite(stack).all():
        first = ts[~np.isfinite(stack).all(axis=(-2, -1))][0]
        raise InvalidInputError(f"{what} at grid point t = {first}")
    return stack


def simulate(
    path: MatrixPath,
    a,
    phi: Modifier | None = None,
    grid=None,
) -> GrowthReport:
    """Sample ``||phi(U(t) A U(t)^{-1})||`` over the grid and fit the growth
    exponent on the smallest decade.

    The whole grid is evaluated as one ``(count, n, n)`` stack: one path
    evaluation, one batched LU inverse that gives both the conjugates
    ``(U A) U^{-1}`` and the singularity gate
    (:func:`~conjlim.numkit.gated_inverse`, which reads
    :func:`~conjlim.numkit.lu_inverse` and takes singular values only of the
    points its residual certificate cannot clear), one modifier
    application, none for the identity, whose image is the checked
    conjugate, and one batched norm.

    Raises :class:`PathSingularError` if the path is singular at a grid
    point under :func:`~conjlim.numkit.singular`, naming the first such t in
    grid order, and :class:`~conjlim.numkit.InvalidInputError` for a
    modifier of another dimension than the path, for a grid
    that is not a non-empty 1-d array of finite positive t, whose fit window
    holds fewer than two distinct t, or at whose points ``U A U^{-1}``
    overflows or ``phi(U A U^{-1})`` is not finite, naming the first such t
    in grid order.  Near-constant windows are treated as perfect bounded
    fits; norms vanishing over the smallest decade report ``alpha = 0``.
    """
    A = as_square(a, "A")
    n = A.shape[0]
    if path.dim != n:
        raise InvalidInputError("A must match the path dimension")
    if phi is None:
        phi = Modifier.identity(n)
    if phi.dim != n:
        raise InvalidInputError("modifier dimension mismatch")
    ts = path.grid(grid)
    us = path.values(ts)
    inv, gate = gated_inverse(us)
    if gate.any():
        raise PathSingularError(f"path is singular at grid point t = {ts[gate.argmax()]}")
    with np.errstate(over="ignore", invalid="ignore"):
        conj = _finite_on_grid((us @ A) @ inv, ts, "U(t) A U(t)^-1 overflows")
        if phi.kind == "identity":
            image = conj
        else:
            image = _finite_on_grid(apply(phi, conj), ts, "phi(U(t) A U(t)^-1) is not finite")
    norms = np.linalg.svd(image, compute_uv=False)[:, 0]

    # fit on the smallest decade, widened to the three smallest points when
    # the decade holds fewer
    decade = ts <= ts.min() * 10.0 * (1.0 + 1e-12)
    window = decade.copy()
    if window.sum() < 3:
        window[np.argsort(ts)[:3]] = True
    lt, ln = np.log(ts[window]), np.log(np.maximum(norms[window], 1e-300))
    if lt.min() == lt.max():
        raise InvalidInputError("the fit window needs at least two distinct t")

    if np.all(norms[decade] < 1e-150):
        alpha, r2 = 0.0, 1.0
    else:
        # least-squares line through the centred logs
        dt, dn = lt - lt.mean(), ln - ln.mean()
        slope = float(dt @ dn) / float(dt @ dt)
        alpha = -slope
        spread = float(ln.max() - ln.min())
        if spread < 1e-3:
            # constancy at this level is a trustworthy bounded signal even
            # when residual noise wrecks the regression r^2
            r2 = 1.0
        else:
            # spread >= 1e-3 keeps sum(dn^2) positive
            res = dn - slope * dt
            r2 = 1.0 - float(res @ res) / float(dn @ dn)

    if r2 < R2_MIN:
        verdict = "inconclusive"
    elif alpha <= ALPHA_BOUNDED_MAX:
        verdict = "bounded"
    elif alpha >= ALPHA_DIVERGENT_MIN:
        verdict = "divergent"
    else:
        verdict = "inconclusive"

    return GrowthReport(
        t_values=ts,
        norms=norms,
        alpha=float(alpha),
        r2=float(r2),
        verdict=verdict,
        norm_max=float(norms.max()),
        norm_min=float(norms.min()),
    )


@dataclass(frozen=True)
class SearchOutcome:
    """Best invertible perturbation found by :func:`divergence_search`.

    ``evaluations`` counts objective values computed, ``rejected`` the
    candidates refused by the ball test or the singularity gate (the
    conjugate is read off an SVD, so no solve can refuse one), and
    ``restarts`` the random starts drawn.  An evaluation takes two
    singular-values-only SVDs for a shrink move and three, one of them
    full, for a kick or a start.
    """

    matrix: np.ndarray | None
    norm: float
    evaluations: int
    rejected: int
    restarts: int


def divergence_search(
    a,
    z,
    phi: Modifier | None = None,
    radius: float = 0.1,
    budget: int = 10_000,
    *,
    seed,
    stop_at: float | None = None,
) -> SearchOutcome:
    """Search for invertible U with ``||U - Z|| < radius`` maximizing
    ``||phi(U A U^{-1})||``.

    Strategy: seeded multistart over random invertible perturbations of Z,
    then local ascent whose moves shrink the smallest singular value of the
    current iterate (steering it toward a nearby singular matrix whose
    kernel the conjugation violates) and kick it with rank-one probes
    ``x y^H``, tried in that order until one improves; a kick is drawn only
    once the moves before it have failed.  Every move is clamped to
    ``0.9 (radius - ||U - Z||)``, so by the triangle inequality each
    candidate lies inside the ball; the exact ball test still checks it.

    A candidate is scored from its SVD ``U = W diag(s) V^H``: with
    ``B = V^H A V``, ``U A U^{-1} = W (S B S^{-1}) W^H``, whose norm for the
    identity modifier is that of ``S B S^{-1}``.  A shrink move
    ``U - c w_n v_n^H`` keeps U's singular vectors, so its SVD is U's with
    ``s_n`` lowered by c and its B is U's; it takes two singular-values-only
    SVDs, one for the ball test and one for the objective.  A kick or a
    start takes three, one of them full, and its B is computed once for the
    chain of shrink moves that follows.  No evaluation takes a solve.

    The budget counts objective evaluations.  Every ascent step scores at
    most three candidates and computes at least one objective value unless
    the ball test or the singularity gate refuses its first candidate, so
    the budget bounds the work.  It also bounds the number of random starts, so
    a search whose every start is refused still returns.  ``stop_at`` allows
    early exit once a caller threshold is certified.

    For a singular Z and non-scalar A the supremum is infinite and the
    search certifies this empirically by exceeding any threshold; scalar A
    short-circuits, since conjugation fixes it and the objective is the
    constant ``||phi(A)||``.  A counts as scalar when
    ``||A - mu I|| <= 1e-13 max(1, |mu|, ||A||)`` for ``mu = tr(A) / n``;
    since ``||M||_F / sqrt(n) <= ||M|| <= ||M||_F``, a Frobenius deviation
    above ``2 sqrt(n)`` times that bound, read with ``||A||_F``, rules it out
    without an SVD.
    """
    A, Z = _pair(a, z)
    if radius <= 0:
        raise InvalidInputError(f"radius must be positive, got {radius}")
    if budget < 1:
        raise InvalidInputError(f"budget must be at least 1, got {budget}")
    n = Z.shape[0]
    if phi is None:
        phi = Modifier.identity(n)
    if phi.dim != n:
        raise InvalidInputError("modifier dimension mismatch")
    rng = np.random.default_rng(seed)

    mu = np.trace(A) / n
    dev = A - mu * np.eye(n)
    # Frobenius norms settle all but a factor-2 sqrt(n) band (see above)
    near = np.linalg.norm(dev) <= 2e-13 * np.sqrt(n) * max(1.0, abs(mu), np.linalg.norm(A))
    if near and operator_norm(dev) <= 1e-13 * max(1.0, abs(mu), operator_norm(A)):
        # conjugation fixes scalars: objective is constant
        start = Z + (radius / 2.0) * np.eye(n)
        return SearchOutcome(start, operator_norm(apply(phi, A)), 0, 0, 0)

    evals = rejected = restarts = 0
    best_val = -np.inf
    best_mat: np.ndarray | None = None

    def value(u: np.ndarray, svd=None, b=None):
        """``(objective, ||u - Z||, svd, b)``, or None for a refused u.

        ``svd = (w, s, vh)`` factors u and ``b = vh A vh^H``; each is
        computed here when not given."""
        nonlocal evals, rejected, best_val, best_mat
        d = operator_norm(u - Z)
        if d >= radius:
            rejected += 1
            return None
        w, s, vh = svd = np.linalg.svd(u) if svd is None else svd
        if singular(s):
            rejected += 1
            return None
        evals += 1
        if b is None:
            b = (vh @ A) @ vh.conj().T
        # S B S^{-1}; the gate ensures s > 0
        sbs = s[:, None] * b / s
        if phi.kind != "identity":
            sbs = apply(phi, (w @ sbs) @ w.conj().T)
        val = operator_norm(sbs)
        if val > best_val:
            best_val, best_mat = val, u.copy()
        return val, d, svd, b

    def random_start():
        # the first of 8 draws with sigma_min >= 0.05 delta, else the one
        # with the largest sigma_min / delta, with its SVD
        nonlocal restarts
        restarts += 1
        best, best_ratio = None, -np.inf
        for _ in range(8):
            g = ginibre(n, rng=rng)
            g /= operator_norm(g)
            delta = radius * rng.uniform(0.2, 0.6)
            u = Z + delta * g
            svd = np.linalg.svd(u)
            ratio = svd[1][-1] / delta
            if ratio >= 0.05:
                return u, svd
            if ratio > best_ratio:
                best, best_ratio = (u, svd), ratio
        return best

    def done() -> bool:
        return evals >= budget or (stop_at is not None and best_val >= stop_at)

    while not done() and restarts < budget:
        u, svd = random_start()
        scored = value(u, svd)
        if scored is None:
            continue
        cur, d, (uu, ss, vv), b = scored
        stall = 0
        while not done() and stall < 25:
            slack = 0.9 * (radius - d)
            improved = False
            for move in range(3):
                if move == 0:
                    # u's SVD with s_n lowered by c, and u's B
                    c = min(0.75 * float(ss[-1]), slack)
                    cand = u - c * np.outer(uu[:, -1], vv[-1])
                    shrunk = ss.copy()
                    shrunk[-1] -= c
                    scored = value(cand, (uu, shrunk, vv), b)
                else:
                    xy = ginibre(n, 2, rng)
                    xy /= np.linalg.norm(xy, axis=0)
                    eps = float(ss[-1]) * rng.uniform(0.3, 1.5) + 1e-3 * radius * rng.uniform()
                    cand = u + min(eps, slack) * np.outer(xy[:, 0], xy[:, 1].conj())
                    scored = value(cand)
                if done():
                    break
                if scored is not None and scored[0] > cur * (1.0 + 1e-6):
                    u, (cur, d, (uu, ss, vv), b) = cand, scored
                    improved = True
                    break
            stall = 0 if improved else stall + 1

    return SearchOutcome(best_mat, float(best_val), evals, rejected, restarts)


@dataclass(frozen=True)
class Filtration:
    """Descending chain of subspaces ``F^0 >= F^1 >= ...``."""

    spaces: tuple[Subspace, ...]

    def __post_init__(self):
        if not self.spaces:
            raise InvalidInputError("filtration must contain at least one subspace")
        n = self.spaces[0].ambient_dim
        prev: Subspace | None = None
        for s in self.spaces:
            if s.ambient_dim != n:
                raise InvalidInputError("filtration spaces must share the ambient space")
            if prev is not None:
                if s.dim > prev.dim:
                    raise InvalidInputError("filtration must be descending")
                if s.dim > 0:
                    gap = operator_norm((np.eye(n) - prev.projector()) @ s.basis)
                    if gap > 1e-8:
                        raise InvalidInputError("filtration spaces are not nested")
            prev = s
        object.__setattr__(self, "spaces", tuple(self.spaces))

    @property
    def ambient_dim(self) -> int:
        return self.spaces[0].ambient_dim

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(s.dim for s in self.spaces)


def kernel_filtration(mats) -> Filtration:
    """``F^i = ker(E_0) ^ ... ^ ker(E_i)`` for the given coefficient list.

    For coefficients of a path that is invertible near zero the chain
    reaches the zero subspace.
    """
    ms = [as_square(m, "coefficient") for m in mats]
    if not ms:
        raise InvalidInputError("coefficient list must be non-empty")
    spaces = [kernel_basis(ms[0])]
    for m in ms[1:]:
        spaces.append(subspace_intersection(spaces[-1], kernel_basis(m)))
    return Filtration(tuple(spaces))


def preserves_filtration(a, filtration: Filtration):
    """Does ``A`` map every ``F^i`` into itself?

    Returns a :class:`~conjlim.criteria.MembershipVerdict`; the witness on
    failure is the first basis vector of the first violated space.
    """
    A = as_square(a, "A")
    n = A.shape[0]
    if filtration.ambient_dim != n:
        raise InvalidInputError("A must match the filtration's ambient dimension")
    threshold = residual_scale(operator_norm(A))
    worst = 0.0
    eye = np.eye(n)
    for space in filtration.spaces:
        if space.dim in (0, n):
            continue
        defect = (eye - space.projector()) @ A @ space.basis
        verdict = _invariance_verdict(defect, space.basis, threshold)
        if not verdict.member:
            return verdict
        worst = max(worst, verdict.residual)
    return MembershipVerdict(True, worst, None, threshold)


# ---------------------------------------------------------------------------
# Exact polynomial-path test.

def _cond_max(n: int) -> float:
    """Largest certified condition number at which ``det(U) U^{-1}`` stands
    in for the adjugate of an n x n matrix.

    Its error relative to ``||adj U||`` is about ``n * eps * kappa`` for
    condition number kappa, against Stewart's ``eps``; capping kappa at
    ``POLY_COEFF_REL / (100 n eps)`` keeps it 100 times under the cut
    :func:`polynomial_growth_degrees` makes on the coefficients (about 4.5e3
    at n = 10).
    """
    return POLY_COEFF_REL / (100.0 * n * np.finfo(float).eps)


def _batched_adjugate(us: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Adjugates of a stack of square matrices, their determinants and the
    noise factors of those determinants.

    The LU inverses ``X`` and their certificate ``bound >= ||U^{-1}||_2``
    come from :func:`~conjlim.numkit.lu_inverse`, where an exactly singular
    matrix reads NaN and is not certified: where the certified condition
    number ``kappa = ||U||_F * bound >= sigma_1 / sigma_n`` is at most
    :func:`_cond_max`, the adjugate is ``det(U) X`` with ``det(U)`` from an
    LU, and the noise factor is ``|det U| kappa``, an upper bound of
    ``s_1 prod_{j<n-1} s_j = |det U| sigma_1 / sigma_n``.

    Every other matrix, among them every singular one, takes an SVD
    ``U = W diag(s) V^H``: the adjugate is ``det(W) det(V^H) V diag(prod_{j
    != i} s_j) W^H`` (G. W. Stewart, "On the adjugate matrix", LAA 283,
    1998), the determinant ``det(W) det(V^H) prod_j s_j`` and the noise
    factor ``s_1 prod_{j<n-1} s_j``; the unit phase ``det(W V^H)`` takes
    one LU per matrix.  The products skipping one singular value come from
    prefix and suffix products, never by division, so the adjugate stays
    accurate where U is singular or nearly so.
    """
    n = us.shape[-1]
    inv, bound = lu_inverse(us)
    with np.errstate(invalid="ignore"):
        # a zero matrix has no certified inverse: inf * 0 reads NaN, not cleared
        kappa = bound * np.linalg.norm(us, axis=(-2, -1))
    cleared = kappa <= _cond_max(n)
    dets = np.linalg.det(us)
    adj = dets[:, None, None] * inv
    noise = np.abs(dets) * np.where(cleared, kappa, 0.0)
    if not cleared.all():
        w, s, vh = np.linalg.svd(us[~cleared])
        phase = np.linalg.det(w @ vh)
        ones = np.ones((s.shape[0], 1))
        before = np.cumprod(np.concatenate([ones, s[:, :-1]], axis=1), axis=1)
        after = np.cumprod(np.concatenate([ones, s[:, :0:-1]], axis=1), axis=1)[:, ::-1]
        v = vh.conj().swapaxes(-1, -2)
        skip_one = phase[:, None, None] * v * (before * after)[:, None, :]
        adj[~cleared] = skip_one @ w.conj().swapaxes(-1, -2)
        dets[~cleared] = phase * s.prod(axis=1)
        noise[~cleared] = s[:, 0] * s[:, :-1].prod(axis=1)
    return adj, dets, noise


def _poly_samples(z: np.ndarray, coeffs, a: np.ndarray):
    """Coefficients of det(path) and path*A*adj(path), interpolated from
    their values at the ``n p + 1`` roots of unity by an inverse DFT, and
    the noise floor of the determinant samples.

    A path of degree p has an adjugate of degree ``(n-1) p``, so both
    polynomials have degree at most ``n p`` and ``n p + 1`` samples give
    every coefficient without aliasing.
    """
    n = z.shape[0]
    count = n * len(coeffs) + 1
    us = poly_eval(z, coeffs, np.exp(2j * np.pi * np.arange(count) / count))
    adj, dets, noise = _batched_adjugate(us)
    prods = us @ a @ adj
    # noise floor of a determinant: a backward error of order eps*s_max
    # moves det(U) by about that times ||adj(U)|| = prod_{j<n-1} s_j, and
    # the noise factors are s_1 prod_{j<n-1} s_j or an upper bound of it.
    # It is no bound at n <= 2, where rounding the phase and the modulus can
    # exceed it; no verdict rests on that, since only the largest DFT
    # coefficient is compared with it, to tell a determinant that vanishes
    # identically from one that does not
    floor = n * n * np.finfo(float).eps * noise.max()
    return np.fft.fft(dets) / count, np.fft.fft(prods, axis=0) / count, float(floor)


def polynomial_growth_degrees(z, coeffs, a):
    """Lowest nonzero t-degrees of ``det(path)`` and ``path * A * adj(path)``.

    Both polynomials have degree at most ``n p`` for a path of degree p, so
    they are sampled at the ``n p + 1`` roots of unity, from one stacked
    path evaluation, and their coefficients recovered by an inverse DFT.
    :func:`_batched_adjugate` gives the adjugates and determinants: one
    batched LU inverse and one batched determinant where a residual
    certificate bounds the condition number, Stewart's SVD form at the
    other samples.  Returns ``(product_degree, det_degree)`` where a degree
    of ``None`` means the polynomial vanishes identically: all its
    coefficients are zero, or, for the determinant, its largest coefficient
    is at or below the noise floor of its samples.

    A certified sample cannot decide that: by Parseval the largest of the
    ``n p + 1`` DFT coefficients is at least ``|det U_j| / (n p + 1)`` for
    every sample j, while a certified sample's floor ``n^2 eps |det U_j|
    kappa_j`` stays under ``n (n p + 1) 1e-11`` times that (see
    :func:`_cond_max`).  The floor is the largest over the samples, so it
    decides only when an SVD sample sets it, at the value it has without
    the certificate.
    """
    Z = as_square(z, "Z")
    A = as_square_like(Z, a, "A")
    es = [as_square_like(Z, e, "path coefficient") for e in coeffs]
    det_coeffs, prod_coeffs, det_noise = _poly_samples(Z, es, A)

    def lowest(arr: np.ndarray, floor: float = 0.0) -> int | None:
        mags = np.abs(arr.reshape(arr.shape[0], -1)).max(axis=1)
        top = float(mags.max())
        if top <= floor:
            return None
        nz = np.nonzero(mags > POLY_COEFF_REL * top)[0]
        return int(nz[0]) if nz.size else None

    return lowest(prod_coeffs), lowest(det_coeffs, det_noise)


def polynomial_path_bounded(z, coeffs, a) -> bool:
    """Exact boundedness of ``||U(t) A U(t)^{-1}||`` as t -> 0 along the
    polynomial path ``U(t) = Z + sum t^k E_k``.

    Where Z is invertible or :func:`~conjlim.numkit.pole_block_inverse`
    clears ``S_1 = L^H E_1 K``, ``U^{-1} = K S_1^{-1} L^H / t + O(1)``, so it
    is bounded iff ``Z A K = 0``, the verdict of
    :func:`~conjlim.criteria.keeps_kernel_invariant` on the same SVD of Z,
    which the scale of Z does not move.
    Elsewhere (higher poles, identically singular paths, S_1 under the cut)
    it is bounded iff the lowest nonzero t-degree of ``U(t) A adj(U(t))`` is
    at least that of ``det(U(t))``, both from
    :func:`polynomial_growth_degrees`.  Raises
    :class:`~conjlim.goodpath.InvalidPathError` for identically singular paths.
    """
    Z = as_square(z, "Z")
    A = as_square_like(Z, a, "A")
    es = [as_square_like(Z, e, "path coefficient") for e in coeffs]
    u, _, vh, r = svd_rank(Z)
    if r == Z.shape[0] or (es and pole_block_inverse(u, vh, r, es[0])[0] is not None):
        return _kernel_verdict(A, vh, r).member
    prod_deg, det_deg = polynomial_growth_degrees(Z, es, A)
    if det_deg is None:
        raise InvalidPathError("path determinant vanishes identically")
    if prod_deg is None:
        return True
    return prod_deg >= det_deg


@dataclass(frozen=True)
class LocalityProbeReport:
    """Result of the locality falsifier for all-path boundedness claims."""

    consistent: bool
    witness: np.ndarray | None
    best_norm: float


def locality_probe(
    a,
    z,
    phi: Modifier | None = None,
    r: float = 0.1,
    *,
    seed,
    samples: int = 6,
    budget: int = 4800,
    threshold: float = 1e6,
) -> LocalityProbeReport:
    """Falsifier for "every path to Z keeps ``phi(U A U^{-1})`` bounded".

    Boundedness along all paths at Z forces the same at every nearby base
    point, so the probe samples ``samples >= 1`` base points Z' with
    ``||Z' - Z|| < r`` (starting with Z itself) and runs a divergence search
    around each; a search exceeding ``threshold`` refutes the claim and the
    violating Z' is returned as witness.  Each search gets
    ``budget // samples`` objective evaluations, so ``budget`` bounds the
    total; a budget below ``samples`` raises :class:`InvalidInputError`.
    """
    A, Z = _pair(a, z)
    if r <= 0:
        raise InvalidInputError(f"radius must be positive, got {r}")
    if samples < 1:
        raise InvalidInputError(f"samples must be at least 1, got {samples}")
    if budget < samples:
        raise InvalidInputError(f"budget must be at least samples = {samples}, got {budget}")
    n = Z.shape[0]
    rng = np.random.default_rng(seed)
    per_probe = budget // samples
    best = 0.0
    for i in range(samples):
        if i == 0:
            probe = Z.copy()
        else:
            g = ginibre(n, rng=rng)
            probe = Z + (r / 2.0) * rng.uniform(0.1, 1.0) * g / operator_norm(g)
        out = divergence_search(
            A,
            probe,
            phi,
            radius=r / 2.0,
            budget=per_probe,
            seed=int(rng.integers(0, 2**31 - 1)),
            stop_at=threshold,
        )
        best = max(best, out.norm)
        if out.norm >= threshold:
            return LocalityProbeReport(False, probe, float(out.norm))
    return LocalityProbeReport(True, None, float(best))
