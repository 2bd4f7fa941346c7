import json
import time

import numpy as np
import pytest

from conjlim.goodpath import (
    GoodPath,
    InvalidPathError,
    NotAGoodPathError,
    RigidityViolationError,
    construct_good_path,
    dual_path,
    is_pole_coefficient,
    laurent_inverse,
    polar_factors,
    rigidity_index,
)
from conjlim.numkit import (
    ginibre,
    operator_norm,
    random_singular,
    random_unitary,
)


def diag(*vals):
    return np.diag(np.array(vals, dtype=complex))


def poly_matmul(p, q):
    """Coefficients of the product of two matrix polynomials."""
    out = [np.zeros_like(p[0]) for _ in range(len(p) + len(q) - 1)]
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] = out[i + j] + x @ y
    return out


def toeplitz_laurent(z, coeffs, order):
    """Oracle for :func:`laurent_inverse`: ``D_0..D_{N+1}`` of ``D(t) = t
    P(t)^{-1}`` from one least-squares solve of the block lower-triangular
    Toeplitz system that matches the powers ``t^0..t^{N+2}`` of ``P D = tI``."""
    n = z.shape[0]
    blocks = order + 3
    system = np.zeros((blocks * n, blocks * n), dtype=complex)
    for k, pk in enumerate([z, *coeffs]):
        for j in range(blocks - k):
            system[(j + k) * n : (j + k + 1) * n, j * n : (j + 1) * n] = pk
    rhs = np.zeros((blocks * n, n), dtype=complex)
    rhs[n : 2 * n] = np.eye(n)
    mats = np.linalg.lstsq(system, rhs, rcond=None)[0].reshape(blocks, n, n)
    return mats[0], list(mats[1 : order + 2])


def simple_pole_path(n, rank, degree, rng, block=0.0):
    """``Z + sum t^k E_k`` with Z of the given rank, singular values in [0.5,
    2], and Ginibre E_k, so that S_1 = L^H E_1 K is almost surely invertible;
    ``block > 0`` scales the E_k by 1/4 and adds ``block`` times a unitary
    to S_1, which keeps ``sigma_min(S_1) >= block - 1/2`` about."""
    q, w = random_unitary(n, rng), random_unitary(n, rng)
    sigma = np.zeros(n)
    sigma[:rank] = rng.uniform(0.5, 2.0, rank)
    es = [ginibre(n, rng=rng) / (np.sqrt(n) * (4.0 if block else 1.0)) for _ in range(degree)]
    k = n - rank
    if block and k:
        es[0] = es[0] + block * q[:, rank:] @ random_unitary(k, rng) @ w[rank:]
    return (q * sigma) @ w, es


def nonzero_root_radius(z, es):
    """Smallest modulus of a nonzero root of ``det(Z + sum t^k E_k)``: the
    eigenvalues of the block companion matrix of the monic ``E_p^{-1}
    P(t)``, with the k roots at 0 (rounding level) left out; inf if none."""
    n, p = z.shape[0], len(es)
    monic = [np.linalg.inv(es[-1]) @ m for m in (z, *es[:-1])]
    companion = np.zeros((n * p, n * p), dtype=complex)
    companion[n:, :-n] = np.eye(n * (p - 1))
    companion[:, -n:] = -np.vstack(monic)
    roots = np.abs(np.linalg.eigvals(companion))
    return float(roots[roots > 1e-8 * roots.max()].min(initial=np.inf))


class TestPolarFactors:
    def test_unitary_input(self):
        q = random_unitary(4, np.random.default_rng(0))
        f = polar_factors(q)
        assert np.allclose(f.unitary, q, atol=1e-12)
        assert np.allclose(f.root, np.eye(4), atol=1e-12)

    def test_diagonal(self):
        f = polar_factors(diag(2.0, 0.0))
        assert np.allclose(f.root, diag(2.0, 0.0), atol=1e-12)
        assert np.allclose(f.unitary @ f.root, diag(2.0, 0.0), atol=1e-12)

    def test_random_rank_deficient(self):
        rng = np.random.default_rng(1)
        z = random_singular(5, 3, rng)
        f = polar_factors(z)
        n = 5
        assert np.linalg.norm(f.unitary @ f.root - z, 2) < 1e-12 * max(1, operator_norm(z))
        assert np.linalg.norm(f.unitary.conj().T @ f.unitary - np.eye(n), 2) < 1e-12
        assert np.linalg.norm(f.root - f.root.conj().T, 2) < 1e-12
        gram = z.conj().T @ z
        assert np.linalg.norm(f.root @ f.root - gram, 2) < 1e-10 * max(1, operator_norm(gram))
        # isometric on the image of the root (everywhere, since unitary)
        v = f.root @ ginibre(n, 1, rng).reshape(-1)
        assert np.linalg.norm(f.unitary @ v) == pytest.approx(np.linalg.norm(v), rel=1e-12)


class TestConstruction:
    def test_rank_one_projector(self):
        gp = construct_good_path(diag(1.0, 0.0), order=3)
        assert np.allclose(gp.path_coeffs[0], diag(0.0, 1.0), atol=1e-12)
        assert np.allclose(gp.inverse_pole, diag(0.0, 1.0), atol=1e-12)
        assert np.allclose(gp.inverse_series[0], diag(1.0, 0.0), atol=1e-12)
        assert gp.has_pole
        gp.validate()

    def test_zero_base(self):
        gp = construct_good_path(np.zeros((3, 3)), order=2)
        assert np.allclose(gp.path_coeffs[0], np.eye(3), atol=1e-12)
        assert np.allclose(gp.inverse_pole, np.eye(3), atol=1e-12)
        assert np.allclose(gp.inverse_series[0], 0.0)
        gp.validate()

    def test_invertible_base_is_pole_free(self):
        rng = np.random.default_rng(2)
        z = np.eye(3) + 0.2 * ginibre(3, rng=rng)
        gp = construct_good_path(z, order=4)
        assert not gp.has_pole
        assert np.allclose(gp.path_coeffs[0], 0.0, atol=1e-12)
        assert np.allclose(gp.inverse_series[0], np.linalg.inv(z), atol=1e-10)
        gp.validate()

    def test_random_bases_validate(self):
        for z in [random_singular(6, r, np.random.default_rng(40 + r)) for r in range(7)]:
            gp = construct_good_path(z, order=8)
            gp.validate()
            assert gp.product_residuals().max() <= 1e-8 * gp.coefficient_scale()
            assert gp.annihilation_residual() <= 1e-10
            assert is_pole_coefficient(gp.inverse_pole, gp.base)

    def test_record_is_built_without_revalidation(self, monkeypatch):
        # every field is computed in construct_good_path, so the record
        # matches what the validating constructor stores without its checks
        z = random_singular(3, 1, np.random.default_rng(4))
        gp = construct_good_path(z, order=8)
        checked = GoodPath(gp.base, gp.path_coeffs, gp.inverse_pole, gp.inverse_series, 8)
        for got, want in zip(
            (gp.base, gp.inverse_pole, *gp.path_coeffs, *gp.inverse_series),
            (checked.base, checked.inverse_pole, *checked.path_coeffs, *checked.inverse_series),
            strict=True,
        ):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert gp.order == checked.order == 8
        assert isinstance(gp.path_coeffs, tuple) and isinstance(gp.inverse_series, tuple)

        def failing(self):
            raise AssertionError("re-validated")

        monkeypatch.setattr(GoodPath, "__post_init__", failing)
        construct_good_path(z, order=8)

    def test_path_values_invert_exactly_near_zero(self):
        gp = construct_good_path(random_singular(4, 2, np.random.default_rng(3)))
        for t in (1e-2, 1e-4, 1e-6):
            residual = np.linalg.norm(gp.at(t) @ gp.inverse_at(t) - np.eye(4), 2)
            # rounding in the pole term grows like eps / t
            assert residual < 1e-10 / t


class TestLaurentInverse:
    def test_round_trip_of_construction(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            n = int(rng.integers(2, 6))
            z = random_singular(n, int(rng.integers(0, n + 1)), rng)
            gp = construct_good_path(z, order=4)
            pole, series = laurent_inverse(z, gp.path_coeffs, order=4)
            assert np.linalg.norm(pole - gp.inverse_pole, 2) < 1e-8
            for got, want in zip(series, gp.inverse_series):
                assert np.linalg.norm(got - want, 2) < 1e-8

    def test_antidiagonal_perturbation_has_second_order_pole(self):
        # [[1, t], [t, 0]]^{-1} = [[0, 1/t], [1/t, -1/t^2]]: pole order two
        z = diag(1.0, 0.0)
        e = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        with pytest.raises(NotAGoodPathError):
            laurent_inverse(z, [e], order=4)

    def test_invertible_base_gives_neumann_series(self):
        rng = np.random.default_rng(5)
        z = np.eye(3) + 0.1 * ginibre(3, rng=rng)
        e = ginibre(3, rng=rng)
        pole, series = laurent_inverse(z, [e], order=5)
        assert np.linalg.norm(pole, 2) < 1e-9
        zi = np.linalg.inv(z)
        expected = zi.copy()
        step = -zi @ e
        for c in series:
            assert np.linalg.norm(c - expected, 2) < 1e-9
            expected = step @ expected

    def test_identically_singular_path(self):
        z = diag(1.0, 0.0)
        with pytest.raises(InvalidPathError):
            laurent_inverse(z, [diag(1.0, 0.0)], order=3)

    def test_pole_transforms_under_right_multiplication(self):
        # a path to Z*P has pole P^{-1} * (pole of the path to Z)
        rng = np.random.default_rng(6)
        z = random_singular(3, 1, rng)
        p = np.eye(3) + 0.3 * ginibre(3, rng=rng)
        gp = construct_good_path(z, order=3)
        pole, _ = laurent_inverse(z @ p, [gp.path_coeffs[0] @ p], order=3)
        assert np.linalg.norm(pole - np.linalg.solve(p, gp.inverse_pole), 2) < 1e-8

    def test_pole_transforms_under_left_multiplication(self):
        # a path to P*Z has pole (pole of the path to Z) * P^{-1}
        rng = np.random.default_rng(19)
        z = random_singular(3, 2, rng)
        p = np.eye(3) + 0.3 * ginibre(3, rng=rng)
        gp = construct_good_path(z, order=3)
        pole, _ = laurent_inverse(p @ z, [p @ gp.path_coeffs[0]], order=3)
        expected = np.linalg.solve(p.conj().T, gp.inverse_pole.conj().T).conj().T
        assert np.linalg.norm(pole - expected, 2) < 1e-8


    def test_order_eight_at_n16_round_trip(self):
        z = random_singular(16, 9, np.random.default_rng(15))
        gp = construct_good_path(z, order=8)
        # time a warm call: the first one in a process can pay a one-time
        # BLAS set-up cost of most of a second
        laurent_inverse(z, gp.path_coeffs, order=8)
        start = time.perf_counter()
        pole, series = laurent_inverse(z, gp.path_coeffs, order=8)
        assert time.perf_counter() - start < 1.0
        assert np.linalg.norm(pole - gp.inverse_pole, 2) < 1e-8
        for got, want in zip(series, gp.inverse_series, strict=True):
            assert np.linalg.norm(got - want, 2) < 1e-8

    @pytest.mark.parametrize("n", [4, 6, 10])
    def test_square_zero_base_plus_identity_has_second_order_pole(self, n):
        # (Z + tI)^{-1} = I/t - Z/t^2 when Z^2 = 0
        rng = np.random.default_rng(n)
        half = n // 2
        nil = np.zeros((n, n), dtype=complex)
        nil[:half, half:] = ginibre(half, rng=rng)
        q = random_unitary(n, rng)
        z = q @ nil @ q.conj().T
        assert np.linalg.norm(z @ z, 2) < 1e-12
        with pytest.raises(NotAGoodPathError):
            laurent_inverse(z, [np.eye(n)], order=4)

    @pytest.mark.parametrize("n", [2, 4])
    def test_weak_second_order_pole_near_the_rejection_threshold(self, n):
        # (d J + tI)^{-1} = I/t - d J/t^2 is a double pole for every d != 0:
        # S_1 = L^H I K vanishes whatever d, so no scale of d is accepted
        nil = np.zeros((n, n), dtype=complex)
        nil[0, n - 1] = 1.0
        for d in (1e-4, 1e-8, 1e-12):
            with pytest.raises(NotAGoodPathError, match="sigma_min"):
                laurent_inverse(d * nil, [np.eye(n)], order=3)
        # d J + t c I: the reparametrisation t -> c t leaves the double pole
        for d, c in [(1.0, 1.0), (1e-4, 1.0), (1e-4, 1e4), (1.0, 1e6)]:
            with pytest.raises(NotAGoodPathError):
                laurent_inverse(d * nil, [c * np.eye(n)], order=3)
        # the sample gate reads nil + 1e-10 I as singular at t = 1e-4
        with pytest.raises(InvalidPathError):
            laurent_inverse(nil, [1e-6 * np.eye(n)], order=3)

    @pytest.mark.parametrize("left_degree, right_degree", [(1, 0), (1, 1)])
    def test_simple_pole_paths_of_higher_degree(self, left_degree, right_degree):
        # L(t) (Z + tE) R(t) with L, R invertible at 0 keeps a simple pole
        rng = np.random.default_rng(20 + right_degree)
        n, order = 5, 5
        gp = construct_good_path(random_singular(n, 3, rng))

        def factor(degree):
            return [np.eye(n) + 0.3 * ginibre(n, rng=rng)] + [
                0.5 * ginibre(n, rng=rng) for _ in range(degree)
            ]

        coeffs = poly_matmul(
            poly_matmul(factor(left_degree), [gp.base, gp.path_coeffs[0]]),
            factor(right_degree),
        )
        assert len(coeffs) == 2 + left_degree + right_degree
        pole, series = laurent_inverse(coeffs[0], coeffs[1:], order=order)
        found = GoodPath(
            base=coeffs[0],
            path_coeffs=tuple(coeffs[1:]),
            inverse_pole=pole,
            inverse_series=tuple(series),
            order=order,
        )
        found.validate()
        assert found.has_pole
        t = 1e-3
        value = sum(t**k * c for k, c in enumerate(coeffs))
        expected = t * np.linalg.inv(value)
        got = pole + sum(t ** (j + 1) * c for j, c in enumerate(series))
        assert np.linalg.norm(got - expected, 2) < 1e-8 * found.coefficient_scale()


class TestForwardSubstitution:
    """``laurent_inverse`` against ``t P(t)^{-1}`` at small t and against the
    block-Toeplitz least-squares oracle, at every rank of Z."""

    @pytest.mark.parametrize("n", range(1, 11))
    def test_every_rank_and_degree_against_the_toeplitz_oracle(self, n):
        # S_1 is kept well conditioned, so the coefficients grow slowly and
        # the least-squares oracle keeps every one of them
        rng = np.random.default_rng(100 + n)
        for rank in range(n + 1):
            for degree in (1, 2, 3):
                z, es = simple_pole_path(n, rank, degree, rng, block=2.0)
                order = (rank + 3 * degree) % 9
                pole, series = laurent_inverse(z, es, order=order)
                assert len(series) == order + 1
                if rank == n:
                    assert not pole.any()
                want = toeplitz_laurent(z, es, order)
                scale = max(operator_norm(c) for c in [want[0], *want[1]])
                for got, ref in zip([pole, *series], [want[0], *want[1]], strict=True):
                    assert operator_norm(got - ref) <= 1e-12 * scale
                # truncation t^{order+2} ||D_{order+2}||, rounding cond(P(t)) eps
                t = 1e-6
                value = z + sum(t ** (k + 1) * e for k, e in enumerate(es))
                got = pole + sum(t ** (j + 1) * c for j, c in enumerate(series))
                assert operator_norm(got - t * np.linalg.inv(value)) <= 1e-8 * scale

    @pytest.mark.parametrize("n", range(1, 11))
    def test_generic_paths_match_the_inverse(self, n):
        # Ginibre E_k: sigma_min(S_1) is often small and the coefficients
        # grow like R^{-j}, R the nearest nonzero root of det P; at t = R /
        # 100 the truncation after order 8 is (1/100)^10 of the sum
        rng = np.random.default_rng(200 + n)
        for rank in range(n + 1):
            for degree in (1, 2, 3):
                z, es = simple_pole_path(n, rank, degree, rng)
                pole, series = laurent_inverse(z, es, order=8)
                t = 1e-2 * min(1.0, nonzero_root_radius(z, es))
                value = z + sum(t ** (k + 1) * e for k, e in enumerate(es))
                want = t * np.linalg.inv(value)
                got = pole + sum(t ** (j + 1) * c for j, c in enumerate(series))
                assert operator_norm(got - want) <= 1e-9 * operator_norm(want)

    @pytest.mark.parametrize("d", [3e-1, 3e-2, 3e-3])
    def test_fast_growing_series_in_closed_form(self, d):
        # P(t) = [[1, t], [-t, t d]] has S_1 = d and t P(t)^{-1} = [[t d,
        # -t], [t, 1]] / (d + t), so D_j = g_j diag(0, 1) + g_{j-1} [[d, -1],
        # [1, 0]] with g_j = (-1)^j d^{-j-1}: sixteen to twenty-one decades
        # between D_0 and D_9, all of which must come out
        z = diag(1.0, 0.0)
        e = np.array([[0.0, 1.0], [-1.0, d]], dtype=complex)
        pole, series = laurent_inverse(z, [e], order=8)
        g = [(-1) ** j * d ** -(j + 1) for j in range(10)]
        for j, got in enumerate([pole, *series]):
            want = g[j] * diag(0.0, 1.0)
            if j:
                want = want + g[j - 1] * np.array([[d, -1.0], [1.0, 0.0]])
            assert operator_norm(got - want) <= 1e-14 * operator_norm(want)

    def test_rejection_names_the_margin_and_the_cut(self):
        # S_1 = 0 for [[1, t], [t, 0]]: its ratio to ||E_1||_F reads 0
        z = diag(1.0, 0.0)
        e = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        margin = r"sigma_min\(S_1\)/\|\|E_1\|\|_F = 0\.000e\+00 .* cut 1\.0e-10"
        with pytest.raises(NotAGoodPathError, match=margin):
            laurent_inverse(z, [e], order=2)


class TestPoleCoefficientPredicate:
    def test_examples(self):
        z = diag(1.0, 0.0)
        assert is_pole_coefficient(diag(0.0, 1.0), z)
        assert not is_pole_coefficient(z, z)

    def test_any_invertible_filler_is_admissible(self):
        # K X L^H with X invertible is a pole coefficient; X singular is not
        rng = np.random.default_rng(7)
        z = random_singular(4, 2, rng)
        from conjlim.numkit import kernel_basis

        kb = kernel_basis(z).basis
        lb = kernel_basis(z.conj().T).basis
        x = np.eye(2) + 0.5 * ginibre(2, rng=rng)
        assert is_pole_coefficient(kb @ x @ lb.conj().T, z)
        assert not is_pole_coefficient(kb @ np.diag([1.0, 0.0]) @ lb.conj().T, z)

    def test_every_admissible_coefficient_is_realized_by_a_path(self):
        # for any C = K X L^H with X invertible, the linear path with
        # coefficient E = L X^{-1} K^H has inverse exactly C/t + pinv(Z):
        # the predicate characterizes precisely the realizable poles
        from conjlim.numkit import kernel_basis

        rng = np.random.default_rng(14)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            z = random_singular(n, int(rng.integers(1, n)), rng)
            kb = kernel_basis(z).basis
            lb = kernel_basis(z.conj().T).basis
            k = kb.shape[1]
            x = np.eye(k) + 0.5 * ginibre(k, rng=rng)
            target = kb @ x @ lb.conj().T
            filler = lb @ np.linalg.inv(x) @ kb.conj().T
            pole, series = laurent_inverse(z, [filler], order=2)
            assert np.linalg.norm(pole - target, 2) < 1e-8
            assert np.linalg.norm(series[0] - np.linalg.pinv(z), 2) < 1e-7


class TestDuality:
    def test_rank_one_example(self):
        gp = construct_good_path(diag(1.0, 0.0), order=3)
        dual = dual_path(gp)
        assert np.allclose(dual.base, diag(0.0, 1.0), atol=1e-12)
        assert np.allclose(dual.inverse_pole, diag(1.0, 0.0), atol=1e-12)
        dual.validate()

    def test_involution(self):
        gp = construct_good_path(random_singular(4, 2, np.random.default_rng(8)), order=4)
        back = dual_path(dual_path(gp))
        assert np.allclose(back.base, gp.base)
        assert np.allclose(back.inverse_pole, gp.inverse_pole)
        for got, want in zip(back.inverse_series, gp.inverse_series):
            assert np.allclose(got, want)
        for j, got in enumerate(back.path_coeffs):
            want = gp.path_coeffs[j] if j < len(gp.path_coeffs) else 0.0
            assert np.allclose(got, want)

    def test_dual_is_accepted_by_coefficient_matching(self):
        # the reversed path converges to the pole and has the base as pole
        gp = construct_good_path(random_singular(3, 1, np.random.default_rng(9)), order=3)
        dual = dual_path(gp)
        pole, series = laurent_inverse(dual.base, dual.path_coeffs, order=2)
        assert np.linalg.norm(pole - gp.base, 2) < 1e-8
        assert np.linalg.norm(series[0] - gp.path_coeffs[0], 2) < 1e-8


class TestRigidity:
    def test_constructed_paths_have_index_one(self):
        gp = construct_good_path(random_singular(4, 2, np.random.default_rng(10)))
        assert rigidity_index(gp.base, gp.path_coeffs) == 1

    def test_invertible_base(self):
        rng = np.random.default_rng(11)
        e0 = np.eye(3) + 0.2 * ginibre(3, rng=rng)
        assert rigidity_index(e0, [ginibre(3, rng=rng)]) == 1

    def test_padded_degree_two_witness(self):
        # base diag(1,0), coefficients (diag(1,0), diag(0,1)): the kernel is
        # held through the first coefficient and killed at the second
        e0 = diag(1.0, 0.0)
        assert rigidity_index(e0, [diag(1.0, 0.0), diag(0.0, 1.0)]) == 2

    def test_exhausted_coefficients(self):
        with pytest.raises(RigidityViolationError):
            rigidity_index(diag(1.0, 0.0), [diag(1.0, 0.0)])

    def test_partial_overlap_rejected(self):
        e0 = diag(1.0, 0.0, 0.0)
        e1 = diag(0.0, 1.0, 0.0)
        with pytest.raises(RigidityViolationError):
            rigidity_index(e0, [e1])


class TestMembershipBridge:
    def test_numeric_pole_and_kernel_tests_coincide(self):
        # along any constructed path: bounded growth <=> vanishing pole term
        # <=> kernel invariance, for members and non-members alike
        from conjlim.criteria import (
            keeps_kernel_invariant,
            kernel_algebra_basis,
            pole_term_vanishes,
        )
        from conjlim.pathsim import MatrixPath, simulate

        rng = np.random.default_rng(30)
        for i in range(20):
            n = int(rng.integers(2, 5))
            z = random_singular(n, int(rng.integers(1, n)), rng)
            gp = construct_good_path(z, order=2)
            if i % 2 == 0:
                basis = kernel_algebra_basis(z)
                coeff = ginibre(len(basis), 1, rng).reshape(-1)
                a = sum(c * b for c, b in zip(coeff, basis))
            else:
                a = ginibre(n, rng=rng)
            in_kernel = keeps_kernel_invariant(a, z).member
            pole_ok = pole_term_vanishes(a, z, gp.inverse_pole).member
            numeric = simulate(MatrixPath.from_good_path(gp), a)
            assert pole_ok == in_kernel
            assert numeric.verdict != "inconclusive"
            assert (numeric.alpha <= 0.1) == in_kernel


class TestSerialization:
    def test_json_round_trip(self):
        gp = construct_good_path(random_singular(3, 2, np.random.default_rng(12)), order=3)
        back = GoodPath.from_json(json.loads(json.dumps(gp.to_json())))
        assert np.array_equal(back.base, gp.base)
        assert np.array_equal(back.inverse_pole, gp.inverse_pole)
        for got, want in zip(back.inverse_series, gp.inverse_series, strict=True):
            assert np.array_equal(got, want)
        assert back.order == gp.order
        assert back.has_pole == gp.has_pole
        back.validate()

    def test_pole_flag_serialized(self):
        rng = np.random.default_rng(13)
        z = np.eye(2) + 0.1 * ginibre(2, rng=rng)
        assert construct_good_path(z).to_json()["has_pole"] is False
