"""Every entry point that takes several matrices of one shape rejects a
mismatched one with :class:`InvalidInputError`.

Each case is a call with one matrix slot left open.  The call must succeed
with the matching matrix in that slot, so that the rejection of a
mismatched one is owed to the shape contract and not to another check.
"""

import dataclasses

import numpy as np
import pytest

from conjlim.criteria import (
    keeps_image_invariant,
    keeps_kernel_invariant,
    pole_term_vanishes,
    pole_term_vanishes_dual,
)
from conjlim.goodpath import (
    GoodPath,
    construct_good_path,
    is_pole_coefficient,
    laurent_inverse,
    rigidity_index,
)
from conjlim.modifier import (
    Modifier,
    conjugation_family_bound,
    some_path_bounded,
    some_path_bounded_dual,
)
from conjlim.numkit import InvalidInputError
from conjlim.pathsim import (
    MatrixPath,
    divergence_search,
    locality_probe,
    polynomial_growth_degrees,
    polynomial_path_bounded,
)

Z = np.diag([1.0, 0.0, 0.0]).astype(complex)
C = np.diag([0.0, 1.0, 1.0]).astype(complex)  # ZC = CZ = 0; also the path filler
A = np.triu(np.ones((3, 3), dtype=complex))
GP = construct_good_path(Z, order=1)
PHI = Modifier.identity(3)

#: (matching matrix for the open slot, call with that slot open)
CASES = {
    "keeps_kernel_invariant": (Z, lambda m: keeps_kernel_invariant(A, m)),
    "keeps_image_invariant": (A, lambda m: keeps_image_invariant(m, Z)),
    "pole_term_vanishes": (C, lambda m: pole_term_vanishes(A, Z, m)),
    "pole_term_vanishes_dual": (C, lambda m: pole_term_vanishes_dual(A, Z, m)),
    "some_path_bounded": (A, lambda m: some_path_bounded(m, Z, PHI, seed=0)),
    "some_path_bounded_dual": (Z, lambda m: some_path_bounded_dual(A, m, PHI, seed=0)),
    "divergence_search": (Z, lambda m: divergence_search(A, m, budget=1, seed=0)),
    "locality_probe": (Z, lambda m: locality_probe(A, m, seed=0, samples=1, budget=1)),
    "conjugation_family_bound": (A, lambda m: conjugation_family_bound([A, m])),
    "MatrixPath.from_samples": (C, lambda m: MatrixPath.from_samples([(0.5, C), (0.25, m)])),
    "MatrixPath.polynomial": (C, lambda m: MatrixPath.polynomial(Z, [C, m])),
    "MatrixPath.linear": (C, lambda m: MatrixPath.linear(Z, m)),
    "polynomial_growth_degrees[coeff]": (C, lambda m: polynomial_growth_degrees(Z, [m], A)),
    "polynomial_growth_degrees[A]": (A, lambda m: polynomial_growth_degrees(Z, [C], m)),
    "polynomial_path_bounded": (A, lambda m: polynomial_path_bounded(Z, [C], m)),
    "laurent_inverse": (C, lambda m: laurent_inverse(Z, [m], order=1)),
    "is_pole_coefficient": (Z, lambda m: is_pole_coefficient(C, m)),
    "rigidity_index": (C, lambda m: rigidity_index(Z, [m])),
    "GoodPath.path_coeffs": (C, lambda m: dataclasses.replace(GP, path_coeffs=(m,))),
    "GoodPath.inverse_pole": (C, lambda m: dataclasses.replace(GP, inverse_pole=m)),
    "GoodPath.inverse_series": (
        GP.inverse_series[1],
        lambda m: dataclasses.replace(GP, inverse_series=(GP.inverse_series[0], m)),
    ),
}

MISMATCHED = {"smaller": np.eye(2), "non-square": np.ones((3, 2))}


@pytest.mark.parametrize("bad", list(MISMATCHED), ids=list(MISMATCHED))
@pytest.mark.parametrize("entry", list(CASES), ids=list(CASES))
def test_mismatched_matrix_is_rejected(entry, bad):
    good, call = CASES[entry]
    call(good)
    with pytest.raises(InvalidInputError):
        call(MISMATCHED[bad])


#: (the operand's name, call with that operand open) for each dual test
DUAL_SLOTS = {
    "keeps_image_invariant[A]": ("A", lambda m: keeps_image_invariant(m, Z)),
    "keeps_image_invariant[Z]": ("Z", lambda m: keeps_image_invariant(A, m)),
    "pole_term_vanishes_dual[A]": ("A", lambda m: pole_term_vanishes_dual(m, Z, C)),
    "pole_term_vanishes_dual[Z]": ("Z", lambda m: pole_term_vanishes_dual(A, m, C)),
    "pole_term_vanishes_dual[C]": ("C", lambda m: pole_term_vanishes_dual(A, Z, m)),
    "some_path_bounded_dual[A]": ("A", lambda m: some_path_bounded_dual(m, Z, PHI, seed=0)),
    "some_path_bounded_dual[Z]": ("Z", lambda m: some_path_bounded_dual(A, m, PHI, seed=0)),
}


@pytest.mark.parametrize("entry", list(DUAL_SLOTS), ids=list(DUAL_SLOTS))
def test_dual_names_the_operand_as_given(entry):
    # each dual validates its inputs before it runs its primal on adjoints,
    # so the error names the caller's matrix and shape, not the adjoint's
    name, call = DUAL_SLOTS[entry]
    with pytest.raises(InvalidInputError, match=rf"^{name} must be square, got shape \(3, 2\)$"):
        call(MISMATCHED["non-square"])
