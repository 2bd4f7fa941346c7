import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conjlim.criteria import (
    PoleConditionError,
    divergence_certified,
    keeps_image_invariant,
    keeps_kernel_invariant,
    kernel_algebra_basis,
    kernel_algebra_dim,
    pole_term_vanishes,
    pole_term_vanishes_dual,
)
from conjlim.goodpath import construct_good_path
from conjlim.modifier import Modifier
from conjlim.numkit import (
    InvalidInputError,
    ginibre,
    kernel_basis,
    random_singular,
)
from conjlim.pathsim import MatrixPath, PathSingularError, simulate


def unit(n, i, j):
    e = np.zeros((n, n), dtype=complex)
    e[i, j] = 1.0
    return e


def diag_projector(n, m):
    d = np.zeros((n, n), dtype=complex)
    for i in range(m):
        d[i, i] = 1.0
    return d


def random_member(z, rng):
    basis = kernel_algebra_basis(z)
    coeff = ginibre(len(basis), 1, rng).reshape(-1)
    return sum(c * b for c, b in zip(coeff, basis))


class TestKernelInvariance:
    def test_block_form_is_member(self):
        z = diag_projector(3, 1)
        a = np.array([[2.0, 0, 0], [5.0, 1.0, 3.0], [1.0, 0.0, 4.0]], dtype=complex)
        assert keeps_kernel_invariant(a, z).member

    def test_unit_12_fails_with_witness_e2(self):
        z = diag_projector(3, 1)
        verdict = keeps_kernel_invariant(unit(3, 0, 1), z)
        assert not verdict.member
        assert verdict.witness is not None
        # the violating kernel vector is e2 up to phase
        assert abs(verdict.witness[1]) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(z @ verdict.witness) < 1e-12

    def test_invertible_base_accepts_everything(self):
        rng = np.random.default_rng(0)
        z = np.eye(3) + 0.3 * ginibre(3, rng=rng)
        assert keeps_kernel_invariant(ginibre(3, rng=rng), z).member

    def test_size_mismatch(self):
        with pytest.raises(InvalidInputError):
            keeps_kernel_invariant(np.eye(2), np.eye(3))


class TestImageInvariance:
    def test_unit_21_escapes_image(self):
        verdict = keeps_image_invariant(unit(3, 1, 0), diag_projector(3, 1))
        assert not verdict.member

    def test_diagonal_member(self):
        assert keeps_image_invariant(np.diag([5.0, 0, 0]), diag_projector(3, 1)).member

    @pytest.mark.parametrize("s", [1e-12, 1.0, 1e10, 1e12])
    def test_verdict_free_of_the_scale_of_z(self, s):
        # the kernel test on adjoints measures ||U_r^H A^H L|| on orthonormal
        # bases, so scaling Z must move neither it nor its threshold, which
        # reads ||A^H|| alone
        z = s * np.diag([1.0, 0.0])
        a = np.array([[1.0, 0.0], [1.0, 1.0]])
        verdict = keeps_image_invariant(a, z)
        assert not verdict.member
        assert verdict.threshold == keeps_kernel_invariant(a.conj().T, np.diag([0.0, 1.0])).threshold
        assert keeps_image_invariant(np.diag([5.0, 0.0]), z).member

    def test_matches_kernel_test_of_cokernel_projector(self):
        # A keeps im(Z) invariant iff A keeps ker(Q) invariant for the
        # orthogonal projector Q onto ker(Z^H), since ker(Q) = im(Z).
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            z = random_singular(n, int(rng.integers(1, n)), rng)
            a = ginibre(n, rng=rng) if rng.uniform() < 0.5 else random_member(z.conj().T, rng).conj().T
            q = kernel_basis(z.conj().T).projector()
            assert keeps_image_invariant(a, z).member == keeps_kernel_invariant(a, q).member


class TestPoleTerm:
    def test_direct_products(self):
        z = np.diag([1.0, 0.0]).astype(complex)
        c = np.diag([0.0, 1.0]).astype(complex)
        assert pole_term_vanishes(unit(2, 1, 0), z, c).member
        verdict = pole_term_vanishes(unit(2, 0, 1), z, c)
        assert not verdict.member
        assert np.allclose(verdict.witness, unit(2, 0, 1))

    def test_precondition_enforced(self):
        with pytest.raises(PoleConditionError):
            pole_term_vanishes(np.eye(2), np.eye(2), np.eye(2))

    def test_agrees_with_kernel_criterion_for_constructed_pole(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            z = random_singular(n, int(rng.integers(1, n)), rng)
            pole = construct_good_path(z).inverse_pole
            for _ in range(5):
                a = random_member(z, rng) if rng.uniform() < 0.5 else ginibre(n, rng=rng)
                assert (
                    pole_term_vanishes(a, z, pole).member
                    == keeps_kernel_invariant(a, z).member
                )

    def test_dual_variant(self):
        z = np.diag([1.0, 0.0]).astype(complex)
        c = np.diag([0.0, 1.0]).astype(complex)
        # C A Z picks the (2,1) entry instead
        assert pole_term_vanishes_dual(unit(2, 0, 1), z, c).member
        assert not pole_term_vanishes_dual(unit(2, 1, 0), z, c).member


class TestDimensionFormula:
    @pytest.mark.parametrize("n,m,expected", [(3, 1, 7), (2, 1, 3), (4, 0, 16), (5, 5, 25)])
    def test_values(self, n, m, expected):
        assert kernel_algebra_dim(n, m) == expected

    def test_out_of_range(self):
        with pytest.raises(InvalidInputError):
            kernel_algebra_dim(3, 4)
        with pytest.raises(InvalidInputError):
            kernel_algebra_dim(3, -1)

    def test_brute_force_constraint_solve(self):
        # independent oracle: nullity of A -> Z A K over vectorized A
        rng = np.random.default_rng(31)
        for n in range(2, 6):
            for m in range(0, n):
                z = random_singular(n, m, rng)
                k = kernel_basis(z).basis
                op = np.kron(k.T, z)
                s = np.linalg.svd(op, compute_uv=False)
                nullity = (n * n) - int(np.count_nonzero(s > 1e-10 * max(1.0, s[0])))
                assert nullity == kernel_algebra_dim(n, m)

    def test_image_algebra_dimension(self):
        # dual count: matrices preserving im(Z) form a space of dim
        # n^2 - k n + k^2 with k = dim ker(Z), via brute-force constraint solve
        rng = np.random.default_rng(37)
        for n in range(2, 6):
            for rank in range(1, n + 1):
                z = random_singular(n, rank, rng)
                k = n - rank
                img = np.linalg.svd(z)[0][:, :rank]
                comp = np.eye(n) - img @ img.conj().T
                op = np.kron(img.T, comp)
                s = np.linalg.svd(op, compute_uv=False)
                nullity = (n * n) - int(np.count_nonzero(s > 1e-10 * max(1.0, s[0])))
                assert nullity == n * n - k * n + k * k


class TestKernelAlgebraBasis:
    def test_lower_block_pattern_in_dim_two(self):
        z = np.diag([1.0, 0.0]).astype(complex)
        basis = kernel_algebra_basis(z)
        assert len(basis) == 3
        for b in basis:
            assert abs(b[0, 1]) < 1e-12
        stacked = np.stack([b.reshape(-1) for b in basis])
        target = np.stack([unit(2, i, j).reshape(-1) for i, j in [(0, 0), (1, 0), (1, 1)]])
        u1 = np.linalg.svd(stacked.T, full_matrices=False)[0]
        u2 = np.linalg.svd(target.T, full_matrices=False)[0]
        assert np.linalg.norm(u1 @ u1.conj().T - u2 @ u2.conj().T, 2) < 1e-10

    def test_invertible_base_gives_elementary_matrices(self):
        rng = np.random.default_rng(2)
        z = np.eye(3) + 0.1 * ginibre(3, rng=rng)
        basis = kernel_algebra_basis(z)
        assert len(basis) == 9
        expected = [unit(3, i, j) for i in range(3) for j in range(3)]
        for got, want in zip(basis, expected):
            assert np.allclose(got, want)

    def test_random_rank_counts_and_membership(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(0, n + 1))
            z = random_singular(n, m, rng)
            basis = kernel_algebra_basis(z)
            assert len(basis) == kernel_algebra_dim(n, m)
            assert all(keeps_kernel_invariant(b, z).member for b in basis)

    def test_spans_brute_force_nullspace(self):
        rng = np.random.default_rng(4)
        z = random_singular(4, 2, rng)
        k = kernel_basis(z).basis
        op = np.kron(k.T, z)
        _, s, vh = np.linalg.svd(op, full_matrices=True)
        rank = int(np.count_nonzero(s > 1e-10 * max(1.0, s[0])))
        oracle = vh[rank:].conj().T
        ours = np.stack([b.reshape(-1, order="F") for b in kernel_algebra_basis(z)]).T
        q = np.linalg.svd(ours, full_matrices=False)[0]
        gap = np.linalg.norm(q @ q.conj().T - oracle @ oracle.conj().T, 2)
        assert gap < 1e-9


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(2, 5))
def test_dimension_depends_only_on_rank(seed, n):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(0, n + 1))
    sizes = {len(kernel_algebra_basis(random_singular(n, m, rng))) for _ in range(4)}
    assert sizes == {kernel_algebra_dim(n, m)}


class TestAlgebraClosure:
    def test_products_and_combinations_stay_members(self):
        rng = np.random.default_rng(12)
        z = random_singular(4, 2, rng)
        a = random_member(z, rng)
        b = random_member(z, rng)
        lam, mu = complex(rng.standard_normal()), complex(rng.standard_normal())
        assert keeps_kernel_invariant(a @ b, z).member
        assert keeps_kernel_invariant(lam * a + mu * b, z).member

    def test_pole_annihilator_contains_kernel_algebra(self):
        rng = np.random.default_rng(14)
        z = random_singular(4, 2, rng)
        pole = construct_good_path(z).inverse_pole
        for _ in range(10):
            assert pole_term_vanishes(random_member(z, rng), z, pole).member

    def test_chain_holds_for_every_annihilating_companion(self):
        # kernel invariance implies ZAC = 0 for any C with ZC = CZ = 0,
        # invertible middle factor or not
        rng = np.random.default_rng(15)
        z = random_singular(4, 2, rng)
        kb = kernel_basis(z).basis
        lb = kernel_basis(z.conj().T).basis
        member = random_member(z, rng)
        for x in (ginibre(2, rng=rng), np.diag([1.0, 0.0]).astype(complex)):
            c = kb @ x @ lb.conj().T
            assert pole_term_vanishes(member, z, c).member


class TestConjugateFamily:
    """Conjugates ``p A p^{-1}`` as :func:`simulate` takes them on the
    constant path ``U = p``, behind the package's one singularity gate, and
    the kernel algebra basis of Z under conjugation by an invertible p."""

    @staticmethod
    def _conjugate_norms(a, p, phi=None):
        return simulate(MatrixPath.polynomial(p, ()), a, phi, grid=[1e-1, 1e-2, 1e-3]).norms

    def test_identity_fixed(self):
        # p I p^{-1} = I: norm 1, and nothing off the diagonal
        rng = np.random.default_rng(6)
        p = np.eye(3) + 0.2 * ginibre(3, rng=rng)
        assert np.allclose(self._conjugate_norms(np.eye(3), p), 1.0, rtol=0, atol=1e-12)
        off = self._conjugate_norms(np.eye(3), p, Modifier.delete_diagonal(3))
        assert np.all(off < 1e-12)

    def test_rejects_singular(self):
        p = random_singular(3, 2, np.random.default_rng(7))
        with pytest.raises(PathSingularError):
            self._conjugate_norms(np.eye(3), p)

    @pytest.mark.parametrize("small", [1e-11, 1e-12, 1e-14, 0.0])
    def test_gate_is_numkit_singular(self, small):
        # the package-wide gate, SINGULAR_REL = 1e-13, not the rank cutoff
        p = np.diag([1.0, small])
        b = np.array([[1.0, 2.0], [3.0, 4.0]])
        if small < 1e-13:
            with pytest.raises(PathSingularError):
                self._conjugate_norms(b, p)
        else:
            # p b p^{-1} = [[1, 2 / small], [3 small, 4]]
            expected = np.linalg.norm(np.array([[1.0, 2.0 / small], [3.0 * small, 4.0]]), 2)
            assert np.allclose(self._conjugate_norms(b, p), expected, rtol=1e-12, atol=0)

    @staticmethod
    def _span_projector(mats):
        stacked = np.stack([m.reshape(-1) for m in mats]).T
        q = np.linalg.svd(stacked, full_matrices=False)[0]
        return q @ q.conj().T

    def test_transports_kernel_algebra_under_right_multiplication(self):
        rng = np.random.default_rng(16)
        z = random_singular(3, 1, rng)
        p = np.eye(3) + 0.3 * ginibre(3, rng=rng)
        inv = np.linalg.inv(p)
        transported = [inv @ b @ p for b in kernel_algebra_basis(z)]
        direct = kernel_algebra_basis(z @ p)
        gap = np.linalg.norm(
            self._span_projector(transported) - self._span_projector(direct), 2
        )
        assert gap < 1e-8

    def test_left_multiplication_leaves_algebra_unchanged(self):
        rng = np.random.default_rng(18)
        z = random_singular(3, 2, rng)
        p = np.eye(3) + 0.3 * ginibre(3, rng=rng)
        before = self._span_projector(kernel_algebra_basis(z))
        after = self._span_projector(kernel_algebra_basis(p @ z))
        assert np.linalg.norm(before - after, 2) < 1e-8


class TestDivergenceCertificate:
    def test_negations_of_kernel_criterion(self):
        z = diag_projector(3, 1)
        assert divergence_certified(unit(3, 0, 1), z)
        assert not divergence_certified(np.diag([3.0, 1.0, 2.0]), z)
        rng = np.random.default_rng(20)
        invertible = np.eye(3) + 0.2 * ginibre(3, rng=rng)
        assert not divergence_certified(ginibre(3, rng=rng), invertible)
