"""Named verification suites runnable from the command line.

Each suite executes one acceptance property of the library at its stated
tolerance and reports one line per case.  Identical (suite id, seed, config)
inputs reproduce identical case statuses and metrics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import criteria, goodpath, modifier, pathsim
from .numkit import (
    ConjlimError, InvalidInputError, ginibre, lu_inverse, operator_norm, poly_eval,
    random_singular,
)

__all__ = ["SuiteCase", "SuiteReport", "UnknownSuiteError", "run_suite", "SUITE_IDS"]


class UnknownSuiteError(ConjlimError):
    """The requested suite id is not registered."""


@dataclass(frozen=True)
class SuiteCase:
    name: str
    passed: bool
    metric: float
    claim: str

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return f"  [{status}] {self.name}  metric={self.metric:.3e}  ({self.claim})"


@dataclass(frozen=True)
class SuiteReport:
    suite_id: str
    seed: int
    wall_time: float
    cases: tuple[SuiteCase, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases)

    def to_json(self) -> dict:
        return {
            "suite_id": self.suite_id,
            "seed": self.seed,
            "wall_time": self.wall_time,
            "passed": self.passed,
            "cases": [
                {
                    "name": c.name,
                    "status": "pass" if c.passed else "fail",
                    "metric": c.metric,
                    "claim": c.claim,
                }
                for c in sorted(self.cases, key=lambda c: c.name)
            ],
        }


def _count(config: dict | None, key: str, default: int) -> int:
    """``config[key]``, else ``default``; :class:`InvalidInputError` unless
    the config is a JSON object and the count a positive integer."""
    if config is not None and not isinstance(config, dict):
        raise InvalidInputError(f"suite config must be a JSON object, got {type(config).__name__}")
    value = (config or {}).get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise InvalidInputError(f"suite config {key!r} must be a positive integer, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# instance generators (seed streams shared between suites that must agree)

def _member_of_kernel_algebra(z: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    basis = criteria.kernel_algebra_basis(z)
    coeff = ginibre(len(basis), 1, rng).reshape(-1)
    out = np.zeros_like(z)
    for c, b in zip(coeff, basis):
        out = out + c * b
    return out


def _singular_pair(rng: np.random.Generator, nmax: int, member: bool):
    n = int(rng.integers(2, nmax + 1))
    rank = int(rng.integers(1, n))
    z = random_singular(n, rank, rng)
    a = _member_of_kernel_algebra(z, rng) if member else ginibre(n, rng=rng)
    return a, z


def _random_base_matrices(seed: int, count: int, nmax: int = 8):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(1, nmax + 1))
        rank = int(rng.integers(0, n + 1))
        out.append(random_singular(n, rank, rng))
    return out


# ---------------------------------------------------------------------------
# suites

def _suite_dim_formula(seed: int, config: dict | None) -> list[SuiteCase]:
    claim = "count of kernel-invariant algebra basis for rank-m base in dim n is n^2-mn+m^2"
    nmax = _count(config, "nmax", 6)
    cases = []
    for n in range(1, nmax + 1):
        for m in range(0, n + 1):
            z = np.zeros((n, n), dtype=np.complex128)
            for i in range(m):
                z[i, i] = 1.0
            basis = criteria.kernel_algebra_basis(z)
            expected = criteria.kernel_algebra_dim(n, m)
            ok = len(basis) == expected
            stacked = np.stack([b.reshape(-1) for b in basis])
            ok = ok and np.linalg.matrix_rank(stacked) == expected
            ok = ok and all(criteria.keeps_kernel_invariant(b, z).member for b in basis)
            cases.append(SuiteCase(f"D({n},{m})", ok, float(len(basis)), claim))
    return cases


def _suite_goodpath_residual(seed: int, config: dict | None) -> list[SuiteCase]:
    count = _count(config, "instances", 100)
    order = 8
    worst_product = 0.0
    worst_annihilation = 0.0
    membership_ok = True
    for z in _random_base_matrices(seed, count):
        gp = goodpath.construct_good_path(z, order=order)
        worst_product = max(worst_product, float(gp.product_residuals().max()))
        worst_annihilation = max(worst_annihilation, gp.annihilation_residual())
        membership_ok = membership_ok and goodpath.is_pole_coefficient(
            gp.inverse_pole, gp.base
        )
    return [
        SuiteCase(
            "inverse-identity",
            worst_product <= 1e-8,
            worst_product,
            f"two-sided path*inverse coefficient residuals through order {order}",
        ),
        SuiteCase(
            "pole-annihilation",
            worst_annihilation <= 1e-10,
            worst_annihilation,
            "base*pole and pole*base vanish",
        ),
        SuiteCase(
            "pole-membership",
            membership_ok,
            1.0 if membership_ok else 0.0,
            "pole has image = kernel(base) and kernel = image(base)",
        ),
    ]


def _suite_dichotomy(seed: int, config: dict | None) -> list[SuiteCase]:
    count = _count(config, "instances", 200)
    rng = np.random.default_rng(seed)
    member_alpha_max = -np.inf
    nonmember_alpha_min = np.inf
    misclassified = 0
    inconclusive = 0
    for i in range(count):
        a, z = _singular_pair(rng, nmax=5, member=(i % 2 == 0))
        is_member = criteria.keeps_kernel_invariant(a, z).member
        gp = goodpath.construct_good_path(z, order=2)
        report = pathsim.simulate(pathsim.MatrixPath.from_good_path(gp), a)
        if report.verdict == "inconclusive":
            inconclusive += 1
            continue
        if is_member:
            member_alpha_max = max(member_alpha_max, report.alpha)
            if report.alpha > pathsim.ALPHA_BOUNDED_MAX:
                misclassified += 1
        else:
            nonmember_alpha_min = min(nonmember_alpha_min, report.alpha)
            if report.alpha < pathsim.ALPHA_DIVERGENT_MIN:
                misclassified += 1
    rate = inconclusive / count
    return [
        SuiteCase(
            "members-bounded",
            member_alpha_max <= pathsim.ALPHA_BOUNDED_MAX,
            member_alpha_max,
            "kernel-invariant A stays bounded along the constructed path (alpha <= 0.1)",
        ),
        SuiteCase(
            "nonmembers-divergent",
            nonmember_alpha_min >= pathsim.ALPHA_DIVERGENT_MIN,
            nonmember_alpha_min,
            "kernel-violating A diverges along the constructed path (alpha >= 0.9)",
        ),
        SuiteCase(
            "misclassifications",
            misclassified == 0,
            float(misclassified),
            "no verdict contradicts the kernel criterion",
        ),
        SuiteCase(
            "inconclusive-rate",
            rate <= 0.02,
            rate,
            "inconclusive fits stay at or below 2%",
        ),
    ]


def _example_3x3_instance():
    z = np.diag([1.0, 0.0, 0.0]).astype(np.complex128)
    h = np.zeros((3, 3), dtype=np.complex128)
    h[0, 2] = 1.0
    return z, modifier.Modifier.hadamard(h)


def _suite_example_3x3(seed: int, config: dict | None) -> list[SuiteCase]:
    count = _count(config, "instances", 100)
    companions = _count(config, "companions", 20)
    rng = np.random.default_rng(seed)
    z, phi = _example_3x3_instance()

    members = 0
    for _ in range(count):
        a = ginibre(3, rng=rng)
        verdict = modifier.some_path_bounded(a, z, phi, seed=int(rng.integers(2**31)))
        members += int(verdict.member)

    kb = np.eye(3, dtype=np.complex128)[:, 1:]
    strict = 0
    for _ in range(companions):
        while True:
            x = ginibre(2, rng=rng)
            sv = np.linalg.svd(x, compute_uv=False)
            if sv[-1] > modifier.INVERTIBILITY_REL * sv[0]:
                break
        c = kb @ x @ kb.conj().T
        found = False
        for _ in range(8):
            a = ginibre(3, rng=rng)
            if operator_norm(phi(z @ a @ c)) > 1e-8:
                found = True
                break
        strict += int(found)

    return [
        SuiteCase(
            "every-A-admits-companion",
            members == count,
            float(members),
            "3x3 base diag(1,0,0) with corner Hadamard pattern: all A admit a vanishing pole term",
        ),
        SuiteCase(
            "each-companion-strict",
            strict == companions,
            float(strict),
            "no single companion works for all A: each one is violated by some A",
        ),
    ]


def _suite_j_collapse(seed: int, config: dict | None) -> list[SuiteCase]:
    count = _count(config, "instances", 200)
    rng = np.random.default_rng(seed)
    agree = 0
    for i in range(count):
        a, z = _singular_pair(rng, nmax=5, member=(i % 2 == 0))
        # the diagonal-deleting map written as a general modifier: faithful
        # Hadamard ones are decided by the kernel criterion itself, so only
        # this form checks the randomized route against the theorem
        j = modifier.Modifier.delete_diagonal(z.shape[0]).data
        phi = modifier.Modifier.general(np.diag(j.reshape(-1, order="F")))
        lhs = modifier.some_path_bounded(a, z, phi, seed=int(rng.integers(2**31))).member
        rhs = criteria.keeps_kernel_invariant(a, z).member
        agree += int(lhs == rhs)
    return [
        SuiteCase(
            "delete-diagonal-collapse",
            agree == count,
            float(agree),
            "membership under the diagonal-deleting modifier equals the kernel criterion",
        )
    ]


def _suite_nilpotent_faithful(seed: int, config: dict | None) -> list[SuiteCase]:
    count = _count(config, "instances", 50)
    rng = np.random.default_rng(seed)
    agree = 0
    verified = True
    for i in range(count):
        n = int(rng.integers(2, 6))
        h = ginibre(n, rng=rng)
        if i % 3 != 0:
            mask = rng.uniform(size=(n, n)) < 0.35
            np.fill_diagonal(mask, False)
            h = h * ~mask
        phi = modifier.Modifier.hadamard(h)
        exact = modifier.nilpotent_faithful(phi)
        sampled = modifier.nilpotent_faithful_randomized(
            phi, seed=int(rng.integers(2**31)), trials=80
        )
        agree += int(exact.faithful == sampled.faithful)
        for rep in (exact, sampled):
            if rep.counterexample is None:
                continue
            t = rep.counterexample
            tn = operator_norm(t)
            sq = operator_norm(t @ t)
            img = operator_norm(phi(t))
            verified = verified and tn > 0 and sq <= 1e-10 * max(1.0, tn**2) and img <= 1e-10 * max(1.0, tn)
    return [
        SuiteCase(
            "predicate-agreement",
            agree == count,
            float(agree),
            "exact all-off-diagonals-nonzero criterion matches the randomized falsifier",
        ),
        SuiteCase(
            "counterexamples-verified",
            verified,
            1.0 if verified else 0.0,
            "returned counterexamples satisfy T^2=0, T!=0, phi(T)=0",
        ),
    ]


def _suite_gershgorin(seed: int, config: dict | None) -> list[SuiteCase]:
    count = _count(config, "instances", 200)
    rng = np.random.default_rng(seed)
    contained = 0
    bound_holds = 0
    for _ in range(count):
        n = int(rng.integers(1, 7))
        a = ginibre(n, rng=rng)
        region = modifier.gershgorin_region(a)
        eigs = np.linalg.eigvals(a)
        contained += int(region.contains(eigs, margin=1e-8))
        try:
            modifier.diagonal_bound_certificate(a)
            bound_holds += 1
        except modifier.CertificateError:
            pass
    return [
        SuiteCase(
            "eigenvalues-in-disks",
            contained == count,
            float(contained),
            "every eigenvalue lies in the union of the row disks (margin 1e-8)",
        ),
        SuiteCase(
            "diagonal-bound",
            bound_holds == count,
            float(bound_holds),
            "sum|a_ii| <= 2*sum R_j + sum|lambda_i| on the random ensemble",
        ),
    ]


def _suite_poly_vs_numeric(seed: int, config: dict | None) -> list[SuiteCase]:
    count = _count(config, "instances", 100)
    rng = np.random.default_rng(seed)
    agree = 0
    compared = 0
    done = 0
    while done < count:
        n = int(rng.integers(1, 5))
        rank = int(rng.integers(0, n + 1))
        z = random_singular(n, rank, rng)
        degree = int(rng.integers(1, 3))
        coeffs = [ginibre(n, rng=rng) for _ in range(degree)]
        if rank < n and n >= 2 and done % 2 == 0:
            a = _member_of_kernel_algebra(z, rng)
        else:
            a = ginibre(n, rng=rng)
        try:
            exact = pathsim.polynomial_path_bounded(z, coeffs, a)
        except goodpath.InvalidPathError:
            continue
        try:
            report = pathsim.simulate(pathsim.MatrixPath.polynomial(z, coeffs), a)
        except pathsim.PathSingularError:
            continue
        done += 1
        if report.verdict == "inconclusive":
            continue
        compared += 1
        agree += int(exact == (report.verdict == "bounded"))
    return [
        SuiteCase(
            "exact-matches-numeric",
            agree == compared and compared > 0,
            float(agree),
            "adjugate/determinant degree test agrees with every conclusive fitted verdict",
        )
    ]


def _suite_scalar_classification(seed: int, config: dict | None) -> list[SuiteCase]:
    count = _count(config, "instances", 20)
    rng = np.random.default_rng(seed)
    exceeded = 0
    for _ in range(count):
        n = int(rng.integers(2, 5))
        rank = int(rng.integers(1, n))
        z = random_singular(n, rank, rng)
        a = ginibre(n, rng=rng)
        out = pathsim.divergence_search(
            a, z, radius=0.1, budget=10_000, seed=int(rng.integers(2**31)), stop_at=1e6
        )
        exceeded += int(out.norm > 1e6 and out.evaluations <= 10_000)

    scalar_exact = True
    worst_gap = 0.0
    for lam in (2.0, -0.5 + 1.25j, 3.5j):
        n = int(rng.integers(2, 5))
        z = random_singular(n, n - 1, rng)
        out = pathsim.divergence_search(
            lam * np.eye(n), z, radius=0.1, budget=2_000, seed=int(rng.integers(2**31))
        )
        gap = abs(out.norm - abs(lam))
        worst_gap = max(worst_gap, gap)
        scalar_exact = scalar_exact and gap <= 1e-12
    return [
        SuiteCase(
            "nonscalar-divergence",
            exceeded == count,
            float(exceeded),
            "search exceeds norm 1e6 within 1e4 evaluations for singular base, non-scalar A",
        ),
        SuiteCase(
            "scalar-fixed-point",
            scalar_exact,
            worst_gap,
            "for A = lambda*I the best reachable norm is |lambda| exactly",
        ),
    ]


def _suite_rigidity(seed: int, config: dict | None) -> list[SuiteCase]:
    count = _count(config, "instances", 100)
    valid = 0
    for z in _random_base_matrices(seed, count):
        gp = goodpath.construct_good_path(z, order=2)
        idx = goodpath.rigidity_index(gp.base, gp.path_coeffs)
        valid += int(_rigidity_index_valid(gp.base, gp.path_coeffs, idx))

    e0 = np.diag([1.0, 0.0]).astype(np.complex128)
    witness_coeffs = [e0.copy(), np.diag([0.0, 1.0]).astype(np.complex128)]
    idx = goodpath.rigidity_index(e0, witness_coeffs)
    witness_ok = idx == 2 and _rigidity_index_valid(e0, witness_coeffs, idx)
    return [
        SuiteCase(
            "constructed-paths",
            valid == count,
            float(valid),
            "rigidity index of every constructed path satisfies its defining property",
        ),
        SuiteCase(
            "degree-2-witness",
            witness_ok,
            float(idx),
            "hand-built degree-2 coefficient list has rigidity index 2",
        ),
    ]


def _rigidity_index_valid(e0, coeffs, idx: int) -> bool:
    from .numkit import kernel_basis, subspace_intersection

    k0 = kernel_basis(e0)
    if k0.dim == 0:
        return idx == 1
    coeffs = list(coeffs)
    if idx > len(coeffs):
        return False
    for m in range(1, idx):
        if operator_norm(coeffs[m - 1] @ k0.basis) > 1e-8:
            return False
    return subspace_intersection(k0, kernel_basis(coeffs[idx - 1])).dim == 0


def _suite_appendix_a(seed: int, config: dict | None) -> list[SuiteCase]:
    count = _count(config, "instances", 200)
    rng = np.random.default_rng(seed)
    holds = 0
    for _ in range(count):
        n = int(rng.integers(1, 7))
        a = ginibre(n, rng=rng)
        try:
            modifier.diagonal_bound_certificate(a)
            holds += 1
        except modifier.CertificateError:
            pass

    b = ginibre(3, rng=rng)
    constant_ok = modifier.conjugation_family_bound([b] * 5).ok

    a0 = np.ones((2, 2), dtype=np.complex128)
    family = []
    for t in np.geomspace(1e-1, 1e-8, 8):
        d = np.diag([1.0, t]).astype(np.complex128)
        dinv = np.diag([1.0, 1.0 / t]).astype(np.complex128)
        family.append(d @ a0 @ dinv)
    vac = modifier.conjugation_family_bound(family)
    closed_form_ok = vac.ok and vac.vacuous

    z = random_singular(3, 2, rng)
    gp = goodpath.construct_good_path(z, order=2)
    member = _member_of_kernel_algebra(z, rng)
    us = poly_eval(gp.base, gp.path_coeffs, np.geomspace(1e-1, 1e-5, 9))
    bounded = modifier.conjugation_family_bound(us @ member @ lu_inverse(us)[0])
    member_ok = bounded.ok and not bounded.vacuous

    return [
        SuiteCase(
            "diagonal-bound-random",
            holds == count,
            float(holds),
            "sum|a_ii| <= 2*sum R_j + sum|lambda_i| on the random ensemble",
        ),
        SuiteCase(
            "constant-family",
            constant_ok,
            1.0 if constant_ok else 0.0,
            "a constant conjugation family satisfies the transfer bound",
        ),
        SuiteCase(
            "vacuous-family",
            closed_form_ok,
            1.0 if closed_form_ok else 0.0,
            "unbounded off-diagonals make the transfer implication vacuous",
        ),
        SuiteCase(
            "bounded-member-family",
            member_ok,
            1.0 if member_ok else 0.0,
            "bounded off-diagonals along a path transfer to a bounded family",
        ),
    ]


_SUITES = {
    "dim-formula": _suite_dim_formula,
    "goodpath-residual": _suite_goodpath_residual,
    "dichotomy": _suite_dichotomy,
    "example-3x3": _suite_example_3x3,
    "j-collapse": _suite_j_collapse,
    "nilpotent-faithful": _suite_nilpotent_faithful,
    "gershgorin": _suite_gershgorin,
    "poly-vs-numeric": _suite_poly_vs_numeric,
    "scalar-classification": _suite_scalar_classification,
    "rigidity": _suite_rigidity,
    "appendix-a": _suite_appendix_a,
}

SUITE_IDS = tuple(_SUITES)


def run_suite(suite_id: str, seed: int, config: dict | None = None) -> SuiteReport:
    """Execute a named suite and return its report.

    Unknown ids raise :class:`UnknownSuiteError`.  ``config`` may override
    instance counts (key ``instances``); defaults match the shipped
    acceptance values.
    """
    if suite_id not in _SUITES:
        raise UnknownSuiteError(
            f"unknown suite {suite_id!r}; known: {', '.join(SUITE_IDS)}"
        )
    start = time.perf_counter()
    cases = _SUITES[suite_id](seed, config)
    elapsed = time.perf_counter() - start
    return SuiteReport(
        suite_id=suite_id, seed=seed, wall_time=elapsed, cases=tuple(cases)
    )
