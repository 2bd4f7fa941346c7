"""Metamorphic relations of the membership verdicts (T. Y. Chen et al.,
"Metamorphic Testing: A Review of Challenges and Opportunities", ACM CSUR
51(1), 2018): scaling Z by c in [1e-8, 1e8] moves no exact verdict, scaling A
by c in [1e-12, 1e12] moves none and scales each threshold by c, and each
dual test on adjoints reads the verdict of its primal.

Instances sit near the threshold on purpose: A is a unit-norm member plus a
unit-norm Ginibre violation of size 10^[-13, -7], so a threshold that reads
``||Z||``, one that is not proportional to ``||A||``, or a dual that
measures a different defect flips verdicts.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conjlim.criteria import (
    kernel_algebra_basis,
    keeps_image_invariant,
    keeps_kernel_invariant,
    pole_term_vanishes,
    pole_term_vanishes_dual,
)
from conjlim.goodpath import construct_good_path
from conjlim.modifier import Modifier, some_path_bounded, some_path_bounded_dual
from conjlim.numkit import ginibre, random_singular
from conjlim.pathsim import polynomial_path_bounded

SEEDED = settings(max_examples=15, deadline=None, derandomize=True, database=None)
instances = st.tuples(st.integers(0, 2**32 - 1), st.floats(-13.0, -7.0))
scales = st.floats(-8.0, 8.0).map(lambda e: 10.0**e)
a_scales = st.floats(-12.0, 12.0).map(lambda e: 10.0**e)


def near_member(seed, log_violation, image=False):
    """``(A, Z)`` with ``||Z|| = 1``: A a unit-norm kernel (or image) member
    plus a violation of norm ``10**log_violation``."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    z = random_singular(n, int(rng.integers(1, n)), rng)
    z /= np.linalg.norm(z, 2)
    basis = kernel_algebra_basis(z.conj().T if image else z)
    m = sum(c * b for c, b in zip(ginibre(len(basis), 1, rng).reshape(-1), basis))
    m = m.conj().T if image else m
    g = ginibre(n, rng=rng)
    a = m / np.linalg.norm(m, 2) + 10.0**log_violation * g / np.linalg.norm(g, 2)
    return a, z


def adjoint(m):
    return m.conj().T


class TestScaleOfZ:
    @SEEDED
    @given(instances, scales)
    def test_kernel_verdict(self, inst, c):
        a, z = near_member(*inst)
        base, scaled = keeps_kernel_invariant(a, z), keeps_kernel_invariant(a, c * z)
        assert scaled.member == base.member
        assert scaled.threshold == base.threshold

    @SEEDED
    @given(instances, scales)
    def test_image_verdict(self, inst, c):
        a, z = near_member(*inst, image=True)
        base, scaled = keeps_image_invariant(a, z), keeps_image_invariant(a, c * z)
        assert scaled.member == base.member
        assert scaled.threshold == base.threshold

    @SEEDED
    @given(instances, scales)
    def test_faithful_some_path_bounded(self, inst, c):
        a, z = near_member(*inst)
        phi = Modifier.delete_diagonal(z.shape[0])
        base = some_path_bounded(a, z, phi, seed=0)
        scaled = some_path_bounded(a, c * z, phi, seed=0)
        assert scaled.member == base.member
        assert scaled.threshold == base.threshold


class TestScaleOfA:
    """Every defect and every threshold is linear in A, so ``A -> cA`` keeps
    the verdict and multiplies the threshold by c."""

    @staticmethod
    def assert_scaled(base, scaled, c):
        assert scaled.member == base.member
        assert scaled.threshold == pytest.approx(c * base.threshold, rel=1e-12, abs=0.0)

    @SEEDED
    @given(instances, a_scales)
    def test_kernel_verdict(self, inst, c):
        a, z = near_member(*inst)
        self.assert_scaled(keeps_kernel_invariant(a, z), keeps_kernel_invariant(c * a, z), c)

    @SEEDED
    @given(instances, a_scales)
    def test_image_verdict(self, inst, c):
        a, z = near_member(*inst, image=True)
        self.assert_scaled(keeps_image_invariant(a, z), keeps_image_invariant(c * a, z), c)

    @SEEDED
    @given(instances, a_scales)
    def test_pole_term(self, inst, c):
        a, z = near_member(*inst)
        pole = construct_good_path(z).inverse_pole
        base, scaled = pole_term_vanishes(a, z, pole), pole_term_vanishes(c * a, z, pole)
        self.assert_scaled(base, scaled, c)

    @SEEDED
    @given(instances, a_scales)
    def test_pole_term_dual(self, inst, c):
        a, z = near_member(*inst, image=True)
        pole = construct_good_path(z).inverse_pole
        base = pole_term_vanishes_dual(a, z, pole)
        self.assert_scaled(base, pole_term_vanishes_dual(c * a, z, pole), c)

    @SEEDED
    @given(instances, a_scales)
    def test_faithful_some_path_bounded(self, inst, c):
        a, z = near_member(*inst)
        phi = Modifier.delete_diagonal(z.shape[0])
        base = some_path_bounded(a, z, phi, seed=0)
        self.assert_scaled(base, some_path_bounded(c * a, z, phi, seed=0), c)

    # the witness search compares column norms of the defect, whose squares
    # overflow when ||A|| is near the largest float
    HUGE_A = 1e300 * np.ones((3, 3), dtype=complex)
    Z_RANK_ONE = np.diag([1.0, 0.0, 0.0]).astype(complex)
    MEMBERSHIP = {
        "keeps_kernel_invariant": lambda a, z: keeps_kernel_invariant(a, z).member,
        "keeps_image_invariant": lambda a, z: keeps_image_invariant(a, z).member,
        "some_path_bounded": lambda a, z: some_path_bounded(
            a, z, Modifier.delete_diagonal(3), seed=0
        ).member,
        "polynomial_path_bounded": lambda a, z: polynomial_path_bounded(
            z, [np.diag([0.0, 1.0, 1.0])], a
        ),
    }

    @pytest.mark.parametrize("name", MEMBERSHIP)
    def test_no_overflow_near_the_top_of_the_float_range(self, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not self.MEMBERSHIP[name](self.HUGE_A, self.Z_RANK_ONE)

    def test_witness_near_the_top_of_the_float_range(self):
        a, z = self.HUGE_A, self.Z_RANK_ONE
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            verdict = keeps_kernel_invariant(a, z)
        x = verdict.witness
        assert np.linalg.norm(z @ x) < 1e-12 and abs((a @ x)[0]) > verdict.threshold


class TestAdjointDuality:
    @SEEDED
    @given(instances, scales)
    def test_kernel_and_image(self, inst, c):
        a, z = near_member(*inst)
        primal = keeps_kernel_invariant(a, c * z)
        dual = keeps_image_invariant(adjoint(a), adjoint(c * z))
        assert dual.member == primal.member
        assert dual.threshold == primal.threshold

    @SEEDED
    @given(instances, scales)
    def test_pole_term(self, inst, c):
        a, z = near_member(*inst)
        pole = construct_good_path(c * z).inverse_pole
        primal = pole_term_vanishes(a, c * z, pole)
        dual = pole_term_vanishes_dual(adjoint(a), adjoint(c * z), adjoint(pole))
        assert dual.member == primal.member
        if not primal.member:
            assert np.array_equal(dual.witness, adjoint(primal.witness))

    @SEEDED
    @given(instances, scales, st.sampled_from(["J", "hadamard", "general"]))
    def test_some_path_bounded(self, inst, c, kind):
        # J decides by the kernel test; a complex Hadamard factor with a zero
        # off the diagonal, or a general map, goes through the random draws
        a, z = near_member(*inst)
        n = z.shape[0]
        rng = np.random.default_rng(inst[0])
        if kind == "J":
            phi = Modifier.delete_diagonal(n)
        elif kind == "hadamard":
            h = ginibre(n, rng=rng)
            h[0, 1] = 0.0
            phi = Modifier.hadamard(h)
        else:
            phi = Modifier.general(ginibre(n * n, rng=rng))
        primal = some_path_bounded(a, c * z, phi, seed=inst[0])
        dual = some_path_bounded_dual(adjoint(a), adjoint(c * z), phi.adjoint(), seed=inst[0])
        assert dual.member == primal.member
        assert np.array_equal(dual.witness, adjoint(primal.witness))
