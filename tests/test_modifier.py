import itertools

import numpy as np
import pytest

from conjlim.criteria import keeps_image_invariant, keeps_kernel_invariant
from conjlim.goodpath import construct_good_path, is_pole_coefficient
from conjlim.modifier import (
    ConjugationFamilyError,
    Modifier,
    apply,
    conjugation_family_bound,
    diagonal_bound_certificate,
    gershgorin_region,
    nilpotent_faithful,
    nilpotent_faithful_randomized,
    some_path_bounded,
    some_path_bounded_dual,
)
from conjlim.numkit import (
    InvalidInputError,
    ginibre,
    image_basis,
    kernel_basis,
    operator_norm,
    random_singular,
    random_unitary,
)


def unit(n, i, j):
    e = np.zeros((n, n), dtype=complex)
    e[i, j] = 1.0
    return e


def corner_example():
    """3x3 rank-one diagonal base with the (1,3) Hadamard pattern."""
    z = np.diag([1.0, 0.0, 0.0]).astype(complex)
    return z, Modifier.hadamard(unit(3, 0, 2))


def as_general(phi):
    """The same map as a general modifier, which is never decided exactly."""
    n = phi.dim
    h = np.ones((n, n)) if phi.kind == "identity" else phi.data
    return Modifier.general(np.diag(h.reshape(-1, order="F")))


def random_member(z, rng):
    from conjlim.criteria import kernel_algebra_basis

    basis = kernel_algebra_basis(z)
    coeff = ginibre(len(basis), 1, rng).reshape(-1)
    return sum(c * b for c, b in zip(coeff, basis))


class TestApply:
    def test_delete_diagonal_kills_identity(self):
        j = Modifier.delete_diagonal(3)
        assert np.allclose(apply(j, np.eye(3)), 0.0)

    def test_delete_diagonal_fixes_offdiagonal_unit(self):
        j = Modifier.delete_diagonal(3)
        assert np.allclose(apply(j, unit(3, 0, 1)), unit(3, 0, 1))

    def test_general_identity(self):
        phi = Modifier.general(np.eye(9))
        a = ginibre(3, rng=np.random.default_rng(0))
        assert np.allclose(apply(phi, a), a)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            apply(Modifier.identity(2), np.eye(3))

    def test_operator_matrix_consistency(self):
        rng = np.random.default_rng(1)
        a = ginibre(3, rng=rng)
        h = ginibre(3, rng=rng)
        l = ginibre(9, rng=rng)
        # each modifier with its matrix on column-stacked 3 x 3 matrices
        for phi, op in (
            (Modifier.identity(3), np.eye(9)),
            (Modifier.hadamard(h), np.diag(h.reshape(-1, order="F"))),
            (Modifier.general(l), l),
        ):
            via_op = (op @ a.reshape(-1, order="F")).reshape((3, 3), order="F")
            assert np.allclose(apply(phi, a), via_op, atol=1e-12)


class TestApplyStack:
    def modifiers(self, n, rng):
        return (
            Modifier.identity(n),
            Modifier.delete_diagonal(n),
            Modifier.hadamard(ginibre(n, rng=rng)),
            Modifier.general(ginibre(n * n, rng=rng)),
        )

    def test_stack_matches_slices(self):
        rng = np.random.default_rng(11)
        for n in (1, 3, 5):
            stack = np.stack([ginibre(n, rng=rng) for _ in range(6)])
            for phi in self.modifiers(n, rng):
                out = apply(phi, stack)
                assert out.shape == stack.shape
                for m, o in zip(stack, out):
                    assert np.allclose(o, apply(phi, m), rtol=1e-14, atol=1e-14)

    def test_stack_rejects_nan(self):
        rng = np.random.default_rng(12)
        stack = np.stack([ginibre(3, rng=rng) for _ in range(4)])
        stack[2, 1, 0] = np.nan
        for phi in self.modifiers(3, rng):
            with pytest.raises(InvalidInputError):
                apply(phi, stack)

    def test_stack_rejects_wrong_trailing_shape(self):
        rng = np.random.default_rng(13)
        stack = np.stack([ginibre(4, rng=rng) for _ in range(4)])
        for phi in self.modifiers(3, rng):
            with pytest.raises(InvalidInputError):
                apply(phi, stack)


class TestSomePathBounded:
    def test_corner_pattern_accepts_every_matrix(self):
        z, phi = corner_example()
        rng = np.random.default_rng(2)
        for s in range(30):
            a = ginibre(3, rng=rng)
            verdict = some_path_bounded(a, z, phi, seed=s)
            assert verdict.member
            # witness is an admissible companion making the pole term vanish
            c = verdict.witness
            assert np.linalg.norm(z @ c, 2) < 1e-10
            assert np.linalg.norm(apply(phi, z @ a @ c), 2) < 1e-8

    def test_identity_modifier_matches_kernel_criterion(self):
        rng = np.random.default_rng(3)
        for i in range(200):
            n = int(rng.integers(2, 6))
            z = random_singular(n, int(rng.integers(1, n)), rng)
            a = random_member(z, rng) if i % 2 == 0 else ginibre(n, rng=rng)
            got = some_path_bounded(a, z, Modifier.identity(n), seed=i).member
            assert got == keeps_kernel_invariant(a, z).member

    def test_delete_diagonal_collapses_to_kernel_criterion(self):
        # written as a general map, so the randomized route decides it
        rng = np.random.default_rng(4)
        for i in range(30):
            n = int(rng.integers(2, 6))
            z = random_singular(n, int(rng.integers(1, n)), rng)
            a = random_member(z, rng) if i % 2 == 0 else ginibre(n, rng=rng)
            got = some_path_bounded(a, z, as_general(Modifier.delete_diagonal(n)), seed=i).member
            assert got == keeps_kernel_invariant(a, z).member

    def test_theorem_route_matches_randomized_route(self):
        # faithful modifiers are decided by Z A K = 0 (dually L^H A Z = 0);
        # the same map as a general modifier goes through the null space of
        # the constraint and random draws, and must agree
        rng = np.random.default_rng(17)
        for i in range(200):
            n = int(rng.integers(2, 8))
            z = random_singular(n, int(rng.integers(1, n)), rng)
            kernel_member = random_member(z, rng)
            image_member = random_member(z.conj().T, rng).conj().T
            a = (kernel_member, image_member, ginibre(n, rng=rng))[i % 3]
            kind = (i // 3) % 3
            if kind == 0:
                h = ginibre(n, rng=rng)
                h[np.diag_indices(n)] *= rng.uniform(size=n) < 0.5
                phi = Modifier.hadamard(h)
            elif kind == 1:
                phi = Modifier.identity(n)
            else:
                phi = Modifier.delete_diagonal(n)
            assert nilpotent_faithful(phi).faithful
            for decide, product in (
                (some_path_bounded, lambda c: z @ a @ c),
                (some_path_bounded_dual, lambda c: c @ a @ z),
            ):
                verdict = decide(a, z, phi, seed=i)
                assert verdict.member == decide(a, z, as_general(phi), seed=i).member
                if verdict.member:
                    assert is_pole_coefficient(verdict.witness, z)
                    residual = np.linalg.norm(apply(phi, product(verdict.witness)), 2)
                    assert residual <= verdict.threshold

    def test_theorem_route_reports_the_defect(self):
        # the residual is ||V_r^H A K|| (dually ||L^H A U_r||), measured on
        # orthonormal bases V_r of im Z^H and U_r of im Z, and the witness the
        # companion K L^H, whatever the verdict
        rng = np.random.default_rng(18)
        z = random_singular(5, 2, rng)
        kb = kernel_basis(z).basis
        lb = kernel_basis(z.conj().T).basis
        rows = image_basis(z.conj().T).basis
        cols = image_basis(z).basis
        phi = Modifier.delete_diagonal(5)
        for a in (random_member(z, rng), ginibre(5, rng=rng)):
            primal = some_path_bounded(a, z, phi, seed=0)
            dual = some_path_bounded_dual(a, z, phi, seed=0)
            assert primal.residual == pytest.approx(np.linalg.norm(rows.conj().T @ a @ kb, 2))
            assert dual.residual == pytest.approx(np.linalg.norm(lb.conj().T @ a @ cols, 2))
            for verdict in (primal, dual):
                assert verdict.member == (verdict.residual <= verdict.threshold)
                # K L^H for some orthonormal K, L: C C^H and C^H C are the
                # projectors onto ker Z and ker Z^H
                c = verdict.witness
                assert np.allclose(c @ c.conj().T, kb @ kb.conj().T, atol=1e-10)
                assert np.allclose(c.conj().T @ c, lb @ lb.conj().T, atol=1e-10)
                assert is_pole_coefficient(verdict.witness, z)

    @pytest.mark.parametrize("c", [1e-6, 1.0, 1e6, 1e12])
    def test_theorem_route_ignores_the_scale_of_phi(self, c):
        # boundedness does not change when phi is scaled, and on the theorem
        # route the defect is not measured through phi
        rng = np.random.default_rng(21)
        for i in range(20):
            n = int(rng.integers(2, 7))
            phi = Modifier.hadamard(c * (np.ones((n, n)) - np.eye(n)))
            z = random_singular(n, int(rng.integers(1, n)), rng)
            kernel_member = random_member(z, rng)
            image_member = random_member(z.conj().T, rng).conj().T
            generic = ginibre(n, rng=rng)
            for a in (kernel_member, image_member, generic):
                primal = some_path_bounded(a, z, phi, seed=i)
                dual = some_path_bounded_dual(a, z, phi, seed=i)
                assert primal.member == keeps_kernel_invariant(a, z).member
                assert dual.member == keeps_image_invariant(a, z).member
            assert not some_path_bounded(generic, z, phi, seed=i).member
            assert not some_path_bounded_dual(generic, z, phi, seed=i).member
        # a small defect stays visible next to a large phi
        z = np.diag([1.0, 0.0]).astype(complex)
        phi = Modifier.hadamard(c * (np.ones((2, 2)) - np.eye(2)))
        assert not some_path_bounded(1e-5 * unit(2, 0, 1), z, phi, seed=0).member

    def test_work_is_bounded_under_faithful_modifier(self, monkeypatch):
        # a non-member under delete_diagonal at n = 16 takes no constraint
        # SVD and no draws: a few decompositions, none larger than n x n
        shapes = []

        def counting(svd):
            def wrapped(m, *args, **kwargs):
                shapes.append(np.shape(m))
                return svd(m, *args, **kwargs)

            return wrapped

        # norm(., 2) calls the private module's svd, not numpy.linalg.svd
        for module in (np.linalg, np.linalg._linalg):
            monkeypatch.setattr(module, "svd", counting(module.svd))
        rng = np.random.default_rng(19)
        n = 16
        z = random_singular(n, 2, rng)
        a = ginibre(n, rng=rng)
        shapes.clear()
        verdict = some_path_bounded(a, z, Modifier.delete_diagonal(n), seed=0)
        assert not verdict.member
        assert len(shapes) <= 5
        assert max(max(shape) for shape in shapes) <= n

    @pytest.mark.parametrize("decide", [some_path_bounded, some_path_bounded_dual])
    def test_kernel_and_cokernel_share_one_rank_decision(self, decide):
        # sigma_min sits at the rank cutoff, where separate decisions on Z
        # and Z^H can disagree; one SVD gives K and L the same column count
        rng = np.random.default_rng(20)
        disagreed = 0
        for _ in range(300):
            n = int(rng.integers(2, 7))
            s = np.sort(rng.uniform(0.5, 2.0, n))[::-1]
            s[-1] = 1e-10 * s[0] * (1.0 + rng.uniform(-1e-5, 1e-5))
            u, v = random_unitary(n, rng), random_unitary(n, rng)
            z = (u * s) @ v.conj().T
            disagreed += kernel_basis(z).dim != kernel_basis(z.conj().T).dim
            a = ginibre(n, rng=rng)
            for phi in (Modifier.identity(n), Modifier.general(np.eye(n * n))):
                c = decide(a, z, phi, seed=0).witness
                assert c.shape == (n, n)
                assert np.linalg.norm(z @ c, 2) <= 1e-8
                assert np.linalg.norm(c @ z, 2) <= 1e-8
        if not disagreed:
            # whether svd(Z) and svd(Z^H) split at the cutoff depends on the
            # LAPACK build; without a split the draws proved nothing here
            pytest.skip("no draw split the rank decisions of Z and Z^H")

    def test_general_modifier_matches_hadamard(self):
        # the Hadamard map written as a general one: same verdicts, and the
        # general witness solves its own constraint, which pins the order of
        # the constraint's columns against vec(X)
        rng = np.random.default_rng(13)
        for i in range(40):
            n = int(rng.integers(2, 7))
            z = random_singular(n, int(rng.integers(1, n)), rng)
            kernel_member = random_member(z, rng)
            image_member = random_member(z.conj().T, rng).conj().T
            a = (kernel_member, image_member, ginibre(n, rng=rng))[i % 3]
            h = ginibre(n, rng=rng)
            if i % 2:
                # two entries kept: not faithful, and two linear conditions
                # on X that its transpose does not meet
                mask = np.zeros(n * n)
                mask[rng.choice(n * n, 2, replace=False)] = 1.0
                h = h * mask.reshape(n, n)
            general = as_general(Modifier.hadamard(h))
            for decide, product in (
                (some_path_bounded, lambda c: z @ a @ c),
                (some_path_bounded_dual, lambda c: c @ a @ z),
            ):
                verdict = decide(a, z, general, seed=i)
                assert verdict.member == decide(a, z, Modifier.hadamard(h), seed=i).member
                if verdict.member:
                    assert np.linalg.norm(apply(general, product(verdict.witness)), 2) <= 1e-8

    def test_invertible_base_accepts_everything(self):
        rng = np.random.default_rng(5)
        z = np.eye(3) + 0.2 * ginibre(3, rng=rng)
        verdict = some_path_bounded(ginibre(3, rng=rng), z, Modifier.identity(3), seed=0)
        assert verdict.member

    def test_verdicts_stable_across_seeds(self):
        rng = np.random.default_rng(6)
        z = random_singular(4, 2, rng)
        member = random_member(z, rng)
        generic = ginibre(4, rng=rng)
        j = Modifier.delete_diagonal(4)
        for a, expected in ((member, True), (generic, False)):
            verdicts = {some_path_bounded(a, z, j, seed=s).member for s in range(5)}
            assert verdicts == {expected}


class TestSomePathBoundedDual:
    def test_identity_matches_image_criterion(self):
        rng = np.random.default_rng(7)
        for i in range(30):
            n = int(rng.integers(2, 6))
            z = random_singular(n, int(rng.integers(1, n)), rng)
            if i % 2 == 0:
                a = random_member(z.conj().T, rng).conj().T
            else:
                a = ginibre(n, rng=rng)
            got = some_path_bounded_dual(a, z, Modifier.identity(n), seed=i).member
            assert got == keeps_image_invariant(a, z).member

    def test_identity_matrix_always_member(self):
        # C I Z = C Z = 0 for every admissible companion
        rng = np.random.default_rng(8)
        z = random_singular(4, 2, rng)
        for phi in (Modifier.identity(4), Modifier.delete_diagonal(4), Modifier.hadamard(ginibre(4, rng=rng))):
            assert some_path_bounded_dual(np.eye(4), z, phi, seed=1).member

    def test_corner_pattern_dual_accepts_everything(self):
        z, phi = corner_example()
        rng = np.random.default_rng(9)
        for s in range(20):
            assert some_path_bounded_dual(ginibre(3, rng=rng), z, phi, seed=s).member


class TestAdjoint:
    @staticmethod
    def modifiers(n, rng):
        """Identity, complex Hadamard (faithful and not) and complex general."""
        blind = ginibre(n, rng=rng)
        blind[0, 1] = 0.0
        return [
            Modifier.identity(n),
            Modifier.hadamard(ginibre(n, rng=rng)),
            Modifier.hadamard(blind),
            Modifier.general(ginibre(n * n, rng=rng)),
        ]

    def test_is_phi_on_adjoints(self):
        # phi'(M) = phi(M^H)^H, so phi(C A Z) = 0 iff phi'(Z^H A^H C^H) = 0
        rng = np.random.default_rng(31)
        for n in (2, 3, 5):
            for phi in self.modifiers(n, rng):
                for _ in range(3):
                    m = ginibre(n, rng=rng)
                    expected = apply(phi, m.conj().T).conj().T
                    assert np.allclose(apply(phi.adjoint(), m), expected, rtol=0, atol=1e-12)

    def test_kinds_and_data(self):
        rng = np.random.default_rng(32)
        identity, hadamard, _, general = self.modifiers(3, rng)
        assert identity.adjoint() is identity
        assert hadamard.adjoint().kind == "hadamard"
        assert np.array_equal(hadamard.adjoint().data, hadamard.data.conj().T)
        assert general.adjoint().kind == "general"

    def test_twice_gives_phi_back(self):
        rng = np.random.default_rng(33)
        for phi in self.modifiers(4, rng):
            twice = phi.adjoint().adjoint()
            assert twice is phi
            fresh = Modifier(phi.kind, phi.dim, phi.adjoint().data).adjoint()
            if phi.kind != "identity":
                assert np.array_equal(fresh.data, phi.data)

    def test_preserves_faithfulness_and_norm_scale(self):
        rng = np.random.default_rng(34)
        n = 4
        cases = self.modifiers(n, rng) + [
            as_general(Modifier.delete_diagonal(n)),
            as_general(Modifier.hadamard(unit(n, 0, 2))),
        ]
        for phi in cases:
            report, dual = nilpotent_faithful(phi, seed=1), nilpotent_faithful(phi.adjoint(), seed=1)
            assert dual.faithful == report.faithful
            assert dual.exact == report.exact
            assert phi.adjoint().norm_scale() == pytest.approx(phi.norm_scale(), rel=1e-12)
        assert [nilpotent_faithful(phi).faithful for phi in cases] == [
            True, True, False, True, True, False
        ]


class TestNilpotentFaithful:
    def test_delete_diagonal_is_faithful(self):
        for n in (2, 3, 5):
            report = nilpotent_faithful(Modifier.delete_diagonal(n))
            assert report.faithful and report.exact

    def test_corner_pattern_counterexample(self):
        report = nilpotent_faithful(Modifier.hadamard(unit(3, 0, 2)))
        assert not report.faithful
        assert np.allclose(report.counterexample, unit(3, 0, 1))

    def test_identity_is_faithful(self):
        report = nilpotent_faithful(Modifier.identity(4))
        assert report.faithful and report.exact

    def test_randomized_falsifier_agrees_on_patterns(self):
        rng = np.random.default_rng(10)
        for i in range(12):
            n = int(rng.integers(2, 5))
            h = ginibre(n, rng=rng)
            if i % 3:
                mask = rng.uniform(size=(n, n)) < 0.4
                np.fill_diagonal(mask, False)
                h = h * ~mask
            phi = Modifier.hadamard(h)
            exact = nilpotent_faithful(phi)
            sampled = nilpotent_faithful_randomized(phi, seed=i, trials=60)
            assert exact.faithful == sampled.faithful
            for rep in (exact, sampled):
                if rep.counterexample is not None:
                    t = rep.counterexample
                    assert operator_norm(t) > 0
                    assert operator_norm(t @ t) < 1e-10
                    assert operator_norm(apply(phi, t)) < 1e-10

    def test_counterexample_is_first_zero_in_row_major_order(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            h = ginibre(n, rng=rng) * (rng.uniform(size=(n, n)) < 0.7)
            zeros = [(i, j) for i in range(n) for j in range(n) if i != j and h[i, j] == 0]
            report = nilpotent_faithful(Modifier.hadamard(h))
            assert report.exact
            assert report.faithful == (not zeros)
            if zeros:
                assert np.array_equal(report.counterexample, unit(n, *zeros[0]))

    def test_general_kind_uses_randomized_route(self):
        phi = Modifier.general(np.eye(4))  # identity map on 2x2 via vec
        report = nilpotent_faithful(phi, seed=0, trials=50)
        assert report.faithful and not report.exact


class TestDeleteDiagonalAnnihilator:
    def test_offdiagonal_vanishing_forces_zero_on_pole_products(self):
        # Z A C is square-zero whenever C Z = 0, and a square-zero matrix
        # with zero off-diagonal part is zero: deleting the diagonal loses
        # nothing on these products
        rng = np.random.default_rng(16)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            z = random_singular(n, int(rng.integers(1, n)), rng)
            kb = kernel_basis(z).basis
            lb = kernel_basis(z.conj().T).basis
            c = kb @ ginibre(kb.shape[1], rng=rng) @ lb.conj().T
            a = ginibre(n, rng=rng)
            prod = z @ a @ c
            assert operator_norm(prod @ prod) < 1e-10 * max(1.0, operator_norm(prod) ** 2)
            offdiag = apply(Modifier.delete_diagonal(n), prod)
            if operator_norm(offdiag) < 1e-12:
                assert operator_norm(prod) < 1e-10


class TestGershgorin:
    def test_diagonal_radii_vanish(self):
        region = gershgorin_region(np.diag([1.0, 2.0, 3.0]))
        assert np.allclose(region.radii, 0.0)
        assert region.contains(np.array([1.0, 2.0, 3.0]))

    def test_swap_matrix(self):
        region = gershgorin_region(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(region.centers, 0.0)
        assert np.allclose(region.radii, 1.0)
        assert region.contains(np.array([1.0, -1.0]))

    def test_random_containment(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            a = ginibre(n, rng=rng)
            region = gershgorin_region(a)
            assert region.contains(np.linalg.eigvals(a), margin=1e-8)


class TestDiagonalBound:
    def test_tight_for_diagonal(self):
        cert = diagonal_bound_certificate(np.diag([1.0, -2.0, 3.0j]))
        assert cert.radii_sum == pytest.approx(0.0)
        assert cert.diag_sum == pytest.approx(cert.eigenvalue_sum)
        assert cert.diag_sum <= cert.bound + 1e-12

    def test_strict_upper_triangle(self):
        cert = diagonal_bound_certificate(np.array([[0.0, 7.5], [0.0, 0.0]]))
        assert cert.diag_sum == pytest.approx(0.0)
        assert cert.bound == pytest.approx(2 * 7.5)

    def test_random_ensemble(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            diagonal_bound_certificate(ginibre(n, rng=rng))  # must not raise


class TestConjugationFamilyBound:
    def test_constant_family(self):
        b = ginibre(3, rng=np.random.default_rng(13))
        report = conjugation_family_bound([b] * 4)
        assert report.ok and not report.vacuous

    def test_unbounded_offdiagonal_family_is_vacuous(self):
        a0 = np.ones((2, 2), dtype=complex)
        family = []
        for t in np.geomspace(1e-1, 1e-8, 8):
            family.append(np.diag([1.0, t]) @ a0 @ np.diag([1.0, 1.0 / t]))
        report = conjugation_family_bound(family)
        assert report.ok and report.vacuous

    def test_bounded_member_family(self):
        rng = np.random.default_rng(14)
        z = random_singular(3, 2, rng)
        gp = construct_good_path(z, order=2)
        member = random_member(z, rng)
        family = []
        for t in np.geomspace(1e-1, 1e-5, 9):
            u = gp.at(float(t))
            family.append(u @ member @ np.linalg.inv(u))
        report = conjugation_family_bound(family)
        assert report.ok and not report.vacuous

    def test_rejects_dissimilar_matrices(self):
        rng = np.random.default_rng(15)
        with pytest.raises(ConjugationFamilyError):
            conjugation_family_bound([ginibre(3, rng=rng), ginibre(3, rng=rng)])

    def test_matches_by_bottleneck_not_by_sum(self):
        # {0, x} against {0, y} with |x| = |y| = 2d and |x - y| = 2.5d: pairing
        # 0 with y and x with 0 keeps every distance at 2d, while the pairing
        # of least total distance, 0 with 0 and x with y, reaches 2.5d
        d = 1e-7
        x, y = 2 * d, 2 * d * np.exp(2j * np.arcsin(0.625))
        assert abs(x - y) == pytest.approx(2.5 * d)
        family = [np.diag([0, x]).astype(complex), np.diag([0, y])]
        assert conjugation_family_bound(family, eig_tol=2.2e-7).ok
        with pytest.raises(ConjugationFamilyError, match="differ by 2.000e-07"):
            conjugation_family_bound(family, eig_tol=1.9e-7)

    def test_matching_agrees_with_brute_force(self):
        # spectra inside the unit disc keep the scale max(1, ||B_0||) at 1, so
        # eig_tol is the distance itself
        rng = np.random.default_rng(16)
        overstated = 0
        for _ in range(600):
            n = int(rng.integers(1, 7))
            ref = 0.5 * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
            moved = rng.permutation(ref) + 0.2 * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
            family = [np.diag(ref), np.diag(moved)]
            a, b = (np.linalg.eigvals(m) for m in family)
            perms = np.array(list(itertools.permutations(range(n))))
            paired = np.abs(a[None, :] - b[perms])
            best = paired.max(axis=1).min()
            overstated += paired[paired.sum(axis=1).argmin()].max() > best
            conjugation_family_bound(family, eig_tol=best)  # the spectra match: no raise
            with pytest.raises(ConjugationFamilyError, match=f"differ by {best:.3e};"):
                conjugation_family_bound(family, eig_tol=np.nextafter(best, 0.0))
        # the draws include spectra where a minimum-sum matching reads high
        assert overstated > 0


class TestModifierValidation:
    def test_general_norm_scale_is_computed_once(self, monkeypatch):
        # the n^2 x n^2 SVD behind norm_scale is cached on the frozen modifier,
        # and shared with its adjoint
        n = 6
        big = 0
        svd = np.linalg.svd

        def counting(m, *args, **kwargs):
            nonlocal big
            big += np.shape(m)[-2:] == (n * n, n * n)
            return svd(m, *args, **kwargs)

        for module in (np.linalg, np.linalg._linalg):
            monkeypatch.setattr(module, "svd", counting)
        phi = as_general(Modifier.delete_diagonal(n))
        rng = np.random.default_rng(30)
        z = random_singular(n, 2, rng)
        for seed in range(2):
            some_path_bounded(ginibre(n, rng=rng), z, phi, seed=seed)
            # the dual runs on phi.adjoint(), which carries the norm scale over
            some_path_bounded_dual(ginibre(n, rng=rng), z, phi, seed=seed)
        assert big == 1

    def test_data_is_a_read_only_copy(self):
        # mutating the caller's array must not change the map or its norm scale
        h = np.ones((3, 3), dtype=complex)
        phi = Modifier.hadamard(h)
        assert phi.norm_scale() == 1.0
        h *= 10.0
        assert phi.norm_scale() == 1.0
        assert np.array_equal(apply(phi, np.eye(3)), np.eye(3))
        with pytest.raises(ValueError):
            phi.data[0, 0] = 2.0

    def test_wrong_hadamard_shape(self):
        with pytest.raises(InvalidInputError):
            Modifier("hadamard", 3, np.eye(2))

    def test_wrong_general_shape(self):
        with pytest.raises(InvalidInputError):
            Modifier.general(np.eye(5))

    def test_unknown_kind(self):
        with pytest.raises(InvalidInputError):
            Modifier("fourier", 2)
