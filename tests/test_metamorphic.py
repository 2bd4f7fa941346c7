"""Metamorphic relations of the membership verdicts (T. Y. Chen et al.,
"Metamorphic Testing: A Review of Challenges and Opportunities", ACM CSUR
51(1), 2018): scaling Z by c in [1e-8, 1e8] moves no exact verdict, and each
dual test on adjoints reads the verdict of its primal.

Instances sit near the threshold on purpose: A is a unit-norm member plus a
unit-norm Ginibre violation of size 10^[-13, -7], so a threshold that reads
``||Z||`` or a dual that measures a different defect flips verdicts.
"""

import numpy as np
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

SEEDED = settings(max_examples=15, deadline=None, derandomize=True, database=None)
instances = st.tuples(st.integers(0, 2**32 - 1), st.floats(-13.0, -7.0))
scales = st.floats(-8.0, 8.0).map(lambda e: 10.0**e)


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
