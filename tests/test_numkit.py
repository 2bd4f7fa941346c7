import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conjlim import criteria, goodpath, modifier, numkit, pathsim
from conjlim.numkit import (
    InvalidInputError,
    Subspace,
    ginibre,
    image_basis,
    kernel_basis,
    matrix_from_json,
    matrix_to_json,
    operator_norm,
    orthonormal_complement,
    poly_eval,
    random_singular,
    random_unitary,
    subspace_equal,
    subspace_intersection,
    svd_rank,
)


def power_iteration_norm(m, iters=2000, seed=0):
    """Independent largest-singular-value oracle via power iteration on M^H M."""
    rng = np.random.default_rng(seed)
    a = np.asarray(m, dtype=complex)
    v = rng.standard_normal(a.shape[1]) + 1j * rng.standard_normal(a.shape[1])
    v /= np.linalg.norm(v)
    g = a.conj().T @ a
    for _ in range(iters):
        w = g @ v
        nw = np.linalg.norm(w)
        if nw == 0:
            return 0.0
        v = w / nw
    return float(np.sqrt(np.real(np.vdot(v, g @ v))))


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm(np.eye(3)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert operator_norm(np.diag([0.0, 2.0])) == pytest.approx(2.0)

    def test_matches_power_iteration(self):
        m = ginibre(4, rng=np.random.default_rng(42))
        assert operator_norm(m) == pytest.approx(power_iteration_norm(m), abs=1e-10)

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInputError):
            operator_norm(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("n", range(1, 17))
    def test_equals_numpy_2_norm_exactly(self, n):
        # the same LAPACK call as np.linalg.norm(., 2), so bitwise equal
        rng = np.random.default_rng(n)
        r = max(1, n // 2)
        cases = [
            ginibre(n, rng=rng),
            ginibre(n, n + 3, rng),
            np.zeros((n, n), dtype=complex),
            ginibre(n, r, rng) @ ginibre(r, n, rng),
            np.diag(np.arange(n) % 2).astype(complex),
        ]
        for m in cases:
            assert operator_norm(m) == np.linalg.norm(m, 2)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_rejects_infinite(self, bad):
        m = np.eye(3, dtype=complex)
        m[1, 2] = bad
        with pytest.raises(InvalidInputError):
            operator_norm(m)

    def test_rejects_vectors(self):
        with pytest.raises(InvalidInputError, match="2-dimensional"):
            operator_norm(np.ones(3))


class TestPolyEval:
    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    @pytest.mark.parametrize("complex_t", [False, True])
    def test_matches_power_sum(self, degree, complex_t):
        rng = np.random.default_rng(degree)
        base = ginibre(4, rng=rng)
        coeffs = [ginibre(4, rng=rng) for _ in range(degree)]
        ts = rng.uniform(-2.0, 2.0, 7)
        if complex_t:
            ts = ts + 1j * rng.uniform(-2.0, 2.0, 7)
        out = poly_eval(base, coeffs, ts)
        assert out.shape == (7, 4, 4)
        for t, u in zip(ts, out):
            expected = base + sum(t ** (k + 1) * e for k, e in enumerate(coeffs))
            assert np.allclose(u, expected, rtol=0.0, atol=1e-13)


class TestSingularGate:
    def test_vector_and_stack(self):
        # sigma_min against 1e-13 * max(1, sigma_max): the floor of 1 binds
        # for the small matrices, the relative cut for the large ones
        s = np.array([[1.0, 1e-13], [1.0, 2e-13], [1e-3, 5e-14], [1e-3, 2e-13], [1e6, 1e-7]])
        expected = [True, False, True, False, True]
        assert numkit.singular(s).tolist() == expected
        assert [bool(numkit.singular(row)) for row in s] == expected
        assert not numkit.singular(np.array([1e6, 2e-7]))
        stack = np.stack([np.eye(3), np.diag([1.0, 1.0, 0.0])])
        assert numkit.singular(np.linalg.svd(stack, compute_uv=False)).tolist() == [False, True]

    def test_vector_fast_path_agrees_with_stack(self):
        # sigma_max below, at and above the floor of 1; sigma_min on either
        # side of the threshold and exactly at it; the zero vector
        rel = numkit.SINGULAR_REL
        vectors = [np.zeros(3)]
        for top in (0.5, 1.0, 1.0 + 2**-40, 7.0, 1e6):
            cut = rel * max(1.0, top)
            for low in (0.0, cut * (1 - 1e-9), cut, cut * (1 + 1e-9), 0.5 * top):
                vectors.append(np.array([top, top / 2, low]))
        for s in vectors:
            one = numkit.singular(s)
            assert isinstance(one, bool)
            assert one == bool(numkit.singular(s[None, :])[0])
        assert numkit.singular(np.array([1.0, 0.0, rel]))
        assert not numkit.singular(np.array([1.0, 0.0, np.nextafter(rel, 1.0)]))


class TestGatedInverse:
    def test_exactly_singular_point_fails_the_lu_and_is_gated(self):
        us = np.stack([np.eye(2), np.diag([1.0, 0.0])]).astype(complex)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(us)
        inv, gate = numkit.gated_inverse(us)
        assert np.array_equal(inv[0], np.eye(2))
        assert np.isnan(inv[1]).all()
        assert gate.tolist() == [False, True]

    def test_only_the_failing_matrix_takes_an_svd(self, monkeypatch):
        us = np.stack([np.eye(2), np.diag([1.0, 0.0]), 2.0 * np.eye(2)]).astype(complex)
        shapes = []
        svd = np.linalg.svd

        def recording(a, *args, **kwargs):
            shapes.append(a.shape)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording)
        _, gate = numkit.gated_inverse(us)
        assert gate.tolist() == [False, True, False]
        assert shapes == [(1, 2, 2)]

    def test_lu_failure_with_no_gated_point_is_raised(self, monkeypatch):
        def failing(a):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "inv", failing)
        with pytest.raises(np.linalg.LinAlgError):
            numkit.gated_inverse(np.stack([np.eye(3), 2.0 * np.eye(3)]))

    def test_inverse_failing_its_residual_is_not_trusted(self, monkeypatch):
        # a small but wrong inverse of diag(1, 1e-15) must not clear it
        monkeypatch.setattr(np.linalg, "inv", lambda a: np.broadcast_to(np.eye(2), a.shape).copy())
        _, gate = numkit.gated_inverse(np.diag([1.0, 1e-15])[None].astype(complex))
        assert gate.tolist() == [True]

    def test_cleared_points_take_no_svd(self, monkeypatch):
        us = np.stack([np.eye(4), np.diag([1e3, 1.0, 1e-3, 1e-6])]).astype(complex)
        monkeypatch.setattr(np.linalg, "svd", None)
        inv, gate = numkit.gated_inverse(us)
        assert gate.tolist() == [False, False]
        assert np.allclose(inv @ us, np.eye(4), rtol=0.0, atol=1e-12)


class TestTolerance:
    def test_defaults_valid(self):
        assert 0 < numkit.RANK_REL < 1 and numkit.RESIDUAL_ABS > 0

    def test_residual_scale_is_relative(self):
        # RESIDUAL_ABS times the product of the norms, with no floor at 1,
        # so a threshold scales with every factor down to the smallest norms
        assert numkit.residual_scale() == numkit.RESIDUAL_ABS
        for norms in [(1e-3,), (100.0,), (1e-12, 1e-6), (1e12, 1e-3, 2.0), (0.0,)]:
            assert numkit.residual_scale(*norms) == pytest.approx(
                numkit.RESIDUAL_ABS * np.prod(norms), rel=1e-15, abs=0.0
            )


class TestKernelBasis:
    def test_diagonal_rank_one(self):
        ker = kernel_basis(np.diag([1.0, 0.0, 0.0]))
        span = Subspace.from_span(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        assert subspace_equal(ker, span)

    def test_invertible_has_trivial_kernel(self):
        m = np.eye(4) + 0.2 * ginibre(4, rng=np.random.default_rng(1))
        assert kernel_basis(m).dim == 0

    def test_zero_matrix_has_full_kernel(self):
        assert kernel_basis(np.zeros((3, 3))).dim == 3

    def test_rank_two_product_construction(self):
        # build a rank-2 matrix with a kernel known by construction
        rng = np.random.default_rng(7)
        q = random_unitary(4, rng)
        m = ginibre(4, 2, rng) @ q[:, :2].conj().T
        expected = Subspace(q[:, 2:])
        assert subspace_equal(kernel_basis(m), expected)


class TestImageBasis:
    def test_diagonal(self):
        img = image_basis(np.diag([1.0, 0.0, 0.0]))
        assert subspace_equal(img, Subspace.from_span(np.eye(3)[:, :1]))

    def test_zero(self):
        assert image_basis(np.zeros((2, 2))).dim == 0

    def test_orthogonal_to_adjoint_kernel(self):
        rng = np.random.default_rng(11)
        m = random_singular(4, 2, rng)
        img = image_basis(m)
        ker_adj = kernel_basis(m.conj().T)
        assert img.dim == 2
        overlap = np.linalg.norm(img.basis.conj().T @ ker_adj.basis, 2)
        assert overlap < 1e-10


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 8), rank=st.integers(0, 8), seed=st.integers(0, 10**6))
def test_rank_nullity(n, rank, seed):
    rank = min(rank, n)
    m = random_singular(n, rank, np.random.default_rng(seed))
    assert kernel_basis(m).dim + image_basis(m).dim == n


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 8), d=st.integers(0, 8), seed=st.integers(0, 10**6))
def test_projector_idempotence(n, d, seed):
    d = min(d, n)
    rng = np.random.default_rng(seed)
    s = Subspace(random_unitary(n, rng)[:, :d])
    p = s.projector()
    assert np.linalg.norm(p @ p - p, 2) <= 1e-10


class TestSubspaceOps:
    def test_equal_up_to_scaling(self):
        s1 = Subspace.from_span(np.array([[1.0], [0.0]]))
        s2 = Subspace.from_span(np.array([[2.0], [0.0]]))
        assert subspace_equal(s1, s2)

    def test_distinct_axes_differ(self):
        s1 = Subspace.from_span(np.array([[1.0], [0.0]]))
        s2 = Subspace.from_span(np.array([[0.0], [1.0]]))
        assert not subspace_equal(s1, s2)

    def test_ambient_mismatch(self):
        with pytest.raises(InvalidInputError):
            subspace_equal(Subspace.full(2), Subspace.full(3))

    def test_intersection(self):
        e = np.eye(3)
        s1 = Subspace.from_span(e[:, :2])
        s2 = Subspace.from_span(e[:, 1:])
        meet = subspace_intersection(s1, s2)
        assert meet.dim == 1
        assert subspace_equal(meet, Subspace.from_span(e[:, 1:2]))

    def test_complement(self):
        s = Subspace.from_span(np.eye(3)[:, :1])
        comp = orthonormal_complement(s)
        assert comp.dim == 2
        assert np.linalg.norm(s.basis.conj().T @ comp.basis) < 1e-12


class TestRankOf:
    def test_exact_ranks(self):
        rng = np.random.default_rng(13)
        for n, r in [(3, 1), (5, 3), (4, 0), (4, 4)]:
            assert svd_rank(random_singular(n, r, rng))[3] == r


class TestSvdRank:
    def test_cut_is_relative_and_strict(self):
        # sigma <= RANK_REL * sigma_max is null, at any scale of the matrix
        for scale in (1e-20, 1.0, 1e20):
            m = scale * np.diag([1.0, 2e-10, 1e-10, 5e-11])
            assert svd_rank(m)[3] == 2

    def test_zero_matrix_has_rank_zero(self):
        u, s, vh, r = svd_rank(np.zeros((3, 3)))
        assert r == 0 and vh[r:].shape == (3, 3)

    @pytest.mark.parametrize("shape", [(3, 5), (5, 3)])
    def test_full_factors_of_a_rectangular_matrix(self, shape):
        rng = np.random.default_rng(21)
        m = ginibre(*shape, rng=rng)[:, :1] @ ginibre(1, shape[1], rng=rng)
        u, s, vh, r = svd_rank(m)
        assert (u.shape, vh.shape, r) == ((shape[0],) * 2, (shape[1],) * 2, 1)
        assert np.linalg.norm(m @ vh[r:].conj().T) <= 1e-12
        assert np.linalg.norm(u[:, r:].conj().T @ m) <= 1e-12

    def test_rejects_invalid_input(self):
        with pytest.raises(InvalidInputError):
            svd_rank(np.array([[np.nan]]))


class TestSvdCounts:
    """Each public criterion reads its bases and ``||Z||`` off one SVD of Z
    (n = 6, rank 3); the pole test also splits C once, and the pole-term
    test takes each norm once.  Each dual takes the count of its primal:
    the adjoint of a general map carries its norm scale over.  ``==`` pins
    an exact count, ``<=`` a ceiling."""

    N = 6
    J = modifier.Modifier.delete_diagonal(N)
    CALLS = {  # name: (call on (A, Z, C), count, exact)
        "keeps_kernel_invariant": (lambda a, z, c: criteria.keeps_kernel_invariant(a, z), 3, 0),
        "keeps_image_invariant": (lambda a, z, c: criteria.keeps_image_invariant(a, z), 3, 0),
        "is_pole_coefficient": (lambda a, z, c: goodpath.is_pole_coefficient(c, z), 8, 0),
        "construct_good_path": (lambda a, z, c: goodpath.construct_good_path(z), 1, 1),
        "pole_term_vanishes": (lambda a, z, c: criteria.pole_term_vanishes(a, z, c), 6, 1),
        "pole_term_vanishes_dual": (
            lambda a, z, c: criteria.pole_term_vanishes_dual(a, z, c), 6, 1
        ),
        "some_path_bounded": (
            lambda a, z, c: modifier.some_path_bounded(a, z, TestSvdCounts.J, seed=0), 3, 1
        ),
        "some_path_bounded_dual": (
            lambda a, z, c: modifier.some_path_bounded_dual(a, z, TestSvdCounts.J, seed=0), 3, 1
        ),
        # a fresh general map: its n^2 x n^2 norm scale, then the constraint
        "some_path_bounded[general]": (
            lambda a, z, c: modifier.some_path_bounded(a, z, TestSvdCounts.general(), seed=0),
            4,
            1,
        ),
        "some_path_bounded_dual[general]": (
            lambda a, z, c: modifier.some_path_bounded_dual(
                a, z, TestSvdCounts.general(), seed=0
            ),
            4,
            1,
        ),
    }

    @staticmethod
    def general() -> "modifier.Modifier":
        """The delete-diagonal map written as a general one."""
        return modifier.Modifier.general(np.diag(TestSvdCounts.J.data.reshape(-1, order="F")))

    @staticmethod
    def count_svds(monkeypatch) -> list:
        """Patch every ``svd`` entry point to append to the returned list."""
        calls = []

        def counting(svd):
            def wrapped(*args, **kwargs):
                calls.append(1)
                return svd(*args, **kwargs)

            return wrapped

        # norm(., 2) calls the private module's svd, not numpy.linalg.svd
        for module in (np.linalg, np.linalg._linalg):
            monkeypatch.setattr(module, "svd", counting(module.svd))
        return calls

    @pytest.mark.parametrize("name", list(CALLS))
    def test_svd_count(self, name, monkeypatch):
        call, limit, exact = self.CALLS[name]
        rng = np.random.default_rng(22)
        z = random_singular(self.N, 3, rng)
        a = ginibre(self.N, rng=rng)
        c = goodpath.construct_good_path(z).inverse_pole
        calls = self.count_svds(monkeypatch)
        result = call(a, z, c)
        if name == "is_pole_coefficient":
            assert result  # every Gram check and comparison ran
        count = len(calls)
        assert count == limit if exact else count <= limit

    def test_simulate_takes_one_svd_on_a_well_conditioned_path(self, monkeypatch):
        # the LU certificate clears every grid point, so the one SVD is the
        # batched norm of the conjugates
        rng = np.random.default_rng(22)
        z = random_singular(self.N, 3, rng)
        a = ginibre(self.N, rng=rng)
        path = pathsim.MatrixPath.from_good_path(goodpath.construct_good_path(z, order=2))
        calls = self.count_svds(monkeypatch)
        pathsim.simulate(path, a)
        assert len(calls) == 1


class TestMatrixJson:
    def test_round_trip_exact(self):
        m = ginibre(5, rng=np.random.default_rng(17))
        text = json.dumps(matrix_to_json(m))
        back = matrix_from_json(json.loads(text))
        assert np.array_equal(back, m)

    def test_schema_fields(self):
        obj = matrix_to_json(np.eye(2))
        assert obj["rows"] == 2 and obj["cols"] == 2 and len(obj["data"]) == 4
        assert obj["data"][0] == [1.0, 0.0]

    @pytest.mark.parametrize(
        "obj",
        [
            {"rows": 2, "cols": 2, "data": [[1, 0]]},
            {"rows": 0, "cols": 1, "data": []},
            {"cols": 1, "data": [[1, 0]]},
            {"rows": 1, "cols": 1, "data": [[1]]},
            [1, 2, 3],
            {"rows": 1, "cols": 1, "data": [["x", 0]]},
            {"rows": 1, "cols": 1, "data": [[None, 0]]},
            {"rows": "one", "cols": 1, "data": [[1, 0]]},
        ],
    )
    def test_rejects_malformed(self, obj):
        with pytest.raises(InvalidInputError):
            matrix_from_json(obj)

    def test_file_round_trip(self, tmp_path):
        m = ginibre(3, rng=np.random.default_rng(23))
        path = tmp_path / "m.json"
        numkit.save_matrix(path, m)
        assert np.array_equal(numkit.load_matrix(path), m)
