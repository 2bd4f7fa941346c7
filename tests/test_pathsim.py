import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conjlim import numkit, pathsim
from conjlim.criteria import keeps_kernel_invariant, kernel_algebra_basis
from conjlim.goodpath import InvalidPathError, construct_good_path, laurent_inverse
from conjlim.modifier import Modifier, apply
from conjlim.numkit import (
    InvalidInputError,
    ginibre,
    operator_norm,
    random_singular,
    random_unitary,
)
from conjlim.pathsim import (
    Filtration,
    MatrixPath,
    PathSingularError,
    divergence_search,
    kernel_filtration,
    locality_probe,
    log_grid,
    polynomial_growth_degrees,
    polynomial_path_bounded,
    preserves_filtration,
    rank_one_probe,
    simulate,
)
from conjlim.pathsim import _batched_adjugate


def unit(n, i, j):
    e = np.zeros((n, n), dtype=complex)
    e[i, j] = 1.0
    return e


def diag(*vals):
    return np.diag(np.array(vals, dtype=complex))


def poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def poly_add(p, q):
    if len(p) < len(q):
        p, q = q, p
    return [x + (q[i] if i < len(q) else 0) for i, x in enumerate(p)]


def poly_det(m):
    """Determinant of a matrix of polynomials (coefficient lists) by
    cofactor expansion along the first row, in exact arithmetic."""
    if not m:
        return [Fraction(1)]
    out = [Fraction(0)]
    for j, entry in enumerate(m[0]):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        term = poly_mul(entry, poly_det(minor))
        out = poly_add(out, [-x for x in term] if j % 2 else term)
    return out


def lowest_degree(polys):
    degrees = [k for p in polys for k, x in enumerate(p) if x != 0]
    return min(degrees) if degrees else None


def exact_growth_degrees(z, coeffs, a):
    """Lowest t-degrees of ``U A adj(U)`` and ``det U`` for an integer
    polynomial path, with ``fractions.Fraction`` arithmetic only."""
    n = len(z)
    path = [
        [[Fraction(int(m[i][j])) for m in (z, *coeffs)] for j in range(n)]
        for i in range(n)
    ]
    adj = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [row[:j] + row[j + 1 :] for r, row in enumerate(path) if r != i]
            cof = poly_det(minor)
            adj[j][i] = [-x for x in cof] if (i + j) % 2 else cof
    ua = [[None] * n for _ in range(n)]
    for i in range(n):
        for c in range(n):
            acc = [Fraction(0)]
            for r in range(n):
                acc = poly_add(acc, [Fraction(int(a[r][c])) * x for x in path[i][r]])
            ua[i][c] = acc
    prod = []
    for i in range(n):
        for j in range(n):
            acc = [Fraction(0)]
            for c in range(n):
                acc = poly_add(acc, poly_mul(ua[i][c], adj[c][j]))
            prod.append(acc)
    return lowest_degree(prod), lowest_degree([poly_det(path)])


def signed_minor_adjugate(m):
    n = m.shape[0]
    adj = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            minor = np.delete(np.delete(m, i, axis=0), j, axis=1)
            adj[j, i] = (-1) ** (i + j) * np.linalg.det(minor)
    return adj


def random_member(z, rng):
    basis = kernel_algebra_basis(z)
    coeff = ginibre(len(basis), 1, rng).reshape(-1)
    return sum(c * b for c, b in zip(coeff, basis))


def fresh_svd_search(a, z, phi, radius, budget, seed, stop_at=None):
    """Reference for :func:`divergence_search`: the same moves and random
    stream, with a fresh full SVD of every candidate in the ball and the
    operator-norm scalar test.  Returns ``(evaluations, rejected, restarts,
    draws, kicks)``: the start draws taken and the kicks inside the ball."""
    n = z.shape[0]
    rng = np.random.default_rng(seed)
    mu = np.trace(a) / n
    if operator_norm(a - mu * np.eye(n)) <= 1e-13 * max(1.0, abs(mu), operator_norm(a)):
        return 0, 0, 0, 0, 0
    count = dict(evals=0, rejected=0, restarts=0, draws=0, kicks=0)
    best = [-np.inf]

    def value(u, kick):
        d = operator_norm(u - z)
        if d >= radius:
            count["rejected"] += 1
            return None
        count["kicks"] += kick
        w, s, vh = np.linalg.svd(u)
        if numkit.singular(s):
            count["rejected"] += 1
            return None
        count["evals"] += 1
        val = operator_norm(apply(phi, ((u @ a) @ vh.conj().T / s) @ w.conj().T))
        best[0] = max(best[0], val)
        return val, d, (w, s, vh)

    def random_start():
        count["restarts"] += 1
        pick, pick_ratio = None, -np.inf
        for _ in range(8):
            count["draws"] += 1
            g = ginibre(n, rng=rng)
            g /= operator_norm(g)
            delta = radius * rng.uniform(0.2, 0.6)
            u = z + delta * g
            ratio = np.linalg.svd(u, compute_uv=False)[-1] / delta
            if ratio >= 0.05:
                return u
            if ratio > pick_ratio:
                pick, pick_ratio = u, ratio
        return pick

    def done():
        return count["evals"] >= budget or (stop_at is not None and best[0] >= stop_at)

    while not done() and count["restarts"] < budget:
        u = random_start()
        scored = value(u, False)
        if scored is None:
            continue
        cur, d, (w, s, vh) = scored
        stall = 0
        while not done() and stall < 25:
            slack = 0.9 * (radius - d)
            improved = False
            for move in range(3):
                if move == 0:
                    cand = u - min(0.75 * float(s[-1]), slack) * np.outer(w[:, -1], vh[-1])
                else:
                    xy = ginibre(n, 2, rng)
                    xy /= np.linalg.norm(xy, axis=0)
                    eps = float(s[-1]) * rng.uniform(0.3, 1.5) + 1e-3 * radius * rng.uniform()
                    cand = u + min(eps, slack) * np.outer(xy[:, 0], xy[:, 1].conj())
                scored = value(cand, move > 0)
                if done():
                    break
                if scored is not None and scored[0] > cur * (1.0 + 1e-6):
                    u, (cur, d, (w, s, vh)) = cand, scored
                    improved = True
                    break
            stall = 0 if improved else stall + 1
    return tuple(count[k] for k in ("evals", "rejected", "restarts", "draws", "kicks"))


class TestSimulate:
    # along diag(1, t): conjugating E12 gives [[0, 1/t], [0, 0]] and
    # conjugating E21 gives [[0, 0], [t, 0]]

    def test_divergent_closed_form(self):
        path = MatrixPath.linear(diag(1.0, 0.0), diag(0.0, 1.0))
        report = simulate(path, unit(2, 0, 1))
        assert report.verdict == "divergent"
        assert report.alpha == pytest.approx(1.0, abs=1e-6)

    def test_decaying_closed_form(self):
        path = MatrixPath.linear(diag(1.0, 0.0), diag(0.0, 1.0))
        report = simulate(path, unit(2, 1, 0))
        assert report.verdict == "bounded"
        assert report.alpha == pytest.approx(-1.0, abs=1e-6)

    def test_identity_is_constant(self):
        path = MatrixPath.linear(diag(1.0, 0.0), diag(0.0, 1.0))
        report = simulate(path, np.eye(2))
        assert report.verdict == "bounded"
        assert report.alpha == pytest.approx(0.0, abs=1e-9)
        assert report.r2 == 1.0
        assert report.norm_max == pytest.approx(1.0)

    def test_singular_grid_point_is_reported(self):
        path = MatrixPath.from_samples([(0.25, diag(1.0, 0.0))])
        with pytest.raises(PathSingularError, match="0.25"):
            simulate(path, np.eye(2))

    def test_goodpath_kind(self):
        gp = construct_good_path(random_singular(3, 1, np.random.default_rng(0)))
        report = simulate(MatrixPath.from_good_path(gp), np.eye(3))
        assert report.verdict == "bounded"

    def test_custom_grid(self):
        path = MatrixPath.linear(diag(1.0, 0.0), diag(0.0, 1.0))
        grid = log_grid(1e-2, 1e-5, 13)
        report = simulate(path, unit(2, 0, 1), grid=grid)
        assert report.t_values.size == 13
        assert report.verdict == "divergent"

    def test_default_grid_is_shared_but_each_report_owns_its_copy(self):
        path = MatrixPath.linear(diag(1.0, 0.0), diag(0.0, 1.0))
        first = simulate(path, unit(2, 0, 1))
        second = simulate(path, unit(2, 0, 1))
        assert np.array_equal(first.t_values, log_grid())
        assert np.array_equal(second.t_values, log_grid())
        first.t_values[:] = 0.5
        assert np.array_equal(second.t_values, log_grid())
        assert np.array_equal(simulate(path, unit(2, 0, 1)).t_values, log_grid())
        # a caller's grid is copied: rewriting it leaves the report alone
        grid = log_grid(1e-2, 1e-5, 13)
        custom = simulate(path, unit(2, 0, 1), grid=grid)
        assert custom.t_values is not grid
        grid[:] = 7.0
        assert np.array_equal(custom.t_values, log_grid(1e-2, 1e-5, 13))

    @pytest.mark.parametrize(
        "grid",
        [[[1e-2, 1e-3]], [], [1e-2, np.nan, 1e-3], [1e-2, np.inf], [1e-2, -1e-3], [1e-2, 0.0]],
        ids=["2-d", "empty", "nan", "inf", "negative", "zero"],
    )
    def test_malformed_grid_is_rejected_before_evaluation(self, grid, monkeypatch):
        path = MatrixPath.linear(diag(1.0, 0.0), diag(0.0, 1.0))

        def refuse(self, ts):
            raise AssertionError("path evaluated before the grid was checked")

        monkeypatch.setattr(MatrixPath, "values", refuse)
        with pytest.raises(InvalidInputError, match="grid"):
            simulate(path, unit(2, 0, 1), grid=grid)

    @pytest.mark.parametrize("grid", [[1e-2], [1e-2, 1e-2], [1.0, 1e-3, 1e-3, 1e-3]])
    def test_fit_window_needs_two_distinct_t(self, grid):
        path = MatrixPath.linear(diag(1.0, 0.0), diag(0.0, 1.0))
        with pytest.raises(InvalidInputError, match="two distinct t"):
            simulate(path, unit(2, 0, 1), grid=grid)

    def test_overflowing_conjugate_names_its_t(self):
        # the conjugate of the finite 1e305 E12 is 1e305 / t E12, which
        # overflows once t < 1e305 / max_float
        path = MatrixPath.linear(diag(1.0, 0.0), diag(0.0, 1.0))
        ts = log_grid()
        first = ts[ts < 1e305 / np.finfo(float).max][0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match=f"overflows at grid point t = {first}$"):
                simulate(path, 1e305 * unit(2, 0, 1))
            # one power of ten lower stays finite on the whole grid
            assert simulate(path, 1e300 * unit(2, 0, 1)).norm_max == pytest.approx(1e306)

    def test_overflowing_modifier_image_names_its_t(self):
        # the conjugate 1e300 / t E12 is finite on the whole grid, but
        # 1e10 times it overflows from the first grid point on
        path = MatrixPath.linear(diag(1.0, 0.0), diag(0.0, 1.0))
        phi = Modifier.general(1e10 * np.eye(4))
        first = log_grid()[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                InvalidInputError,
                match=rf"^phi\(U\(t\) A U\(t\)\^-1\) is not finite at grid point t = {first}$",
            ):
                simulate(path, 1e300 * unit(2, 0, 1), phi)
            # a modifier ten powers smaller keeps every image finite
            small = simulate(path, 1e300 * unit(2, 0, 1), Modifier.general(np.eye(4)))
            assert small.norm_max == pytest.approx(1e306)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_closed_form_fit_matches_polyfit(self, seed):
        # along diag(1, 1/v) the conjugate of E12 has norm v, so a samples
        # path puts chosen norms on a grid inside one decade, whose points
        # all form the fit window
        rng = np.random.default_rng(seed)
        count = int(rng.integers(3, 12))
        ts = np.sort(rng.uniform(1e-3, 9e-3, count))[::-1]
        steady = [1.0 + 1e-5 * rng.standard_normal(count), rng.uniform(0.5, 2.0) * np.ones(count)]
        for target in [np.exp(rng.uniform(-5.0, 5.0, count)), ts ** -rng.uniform(0, 2), *steady]:
            path = MatrixPath.from_samples(zip(ts, (diag(1.0, 1.0 / v) for v in target)))
            report = simulate(path, unit(2, 0, 1))
            lt, ln = np.log(report.t_values), np.log(report.norms)
            fit = np.polyfit(lt, ln, 1)
            if ln.max() - ln.min() < 1e-3:
                r2 = 1.0
            else:
                ss_res = np.sum((ln - np.polyval(fit, lt)) ** 2)
                r2 = 1.0 - ss_res / np.sum((ln - ln.mean()) ** 2)
            assert report.alpha == pytest.approx(-fit[0], abs=1e-12)
            assert report.r2 == pytest.approx(r2, abs=1e-12)


class TestSingularityGate:
    # diag(1, 0) + t diag(0, c) has sigma_min / sigma_max = c t: 5e-14 at
    # t = 1e-4 for c = 5e-10, under the 1e-13 gate; 2e-13 for c = 2e-9
    @pytest.mark.parametrize("c", [5e-10, 2e-9])
    def test_simulate_and_laurent_inverse_share_the_gate(self, c):
        z, e = diag(1.0, 0.0), diag(0.0, c)
        path = MatrixPath.linear(z, e)
        grid = [1e-2, 1e-3, 1e-4]
        if c < 1e-9:
            with pytest.raises(PathSingularError, match=r"t = 0\.0001"):
                simulate(path, np.eye(2), grid=grid)
            with pytest.raises(InvalidPathError, match=r"t = 0\.0001"):
                laurent_inverse(z, [e], order=2)
        else:
            simulate(path, np.eye(2), grid=grid)
            laurent_inverse(z, [e], order=2)

    def test_gate_svd_takes_only_the_points_the_lu_cannot_clear(self, monkeypatch):
        # ||U^{-1}||_F = 1 / (c t) clears t = 1e-2 and 1e-3 but not 1e-4
        path = MatrixPath.linear(diag(1.0, 0.0), diag(0.0, 2e-9))
        grid = [1e-2, 1e-3, 1e-4]
        stacks = []
        svd = np.linalg.svd

        def recording(a, *args, **kwargs):
            stacks.append(np.array(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording)
        simulate(path, np.eye(2), grid=grid)
        assert [s.shape for s in stacks] == [(1, 2, 2), (3, 2, 2)]
        assert np.array_equal(stacks[0], path.values([1e-4]))

    @pytest.mark.parametrize("top", [1e-2, 0.5, 7.0, 1e3])
    def test_gate_matches_the_svd_gate_near_the_threshold(self, top):
        # one grid point at sigma_min / sigma_max log-spaced over [1e-15,
        # 1e-9]; the max(1, .) floor binds for top < 1 and not for top > 1
        rng = np.random.default_rng(int(top * 100))
        grid = log_grid(1e-1, 1e-3, 5)
        fired = 0
        for ratio in np.geomspace(1e-15, 1e-9, 31):
            n = int(rng.integers(2, 7))
            sigma = np.geomspace(top, top * ratio, n)
            mats = [ginibre(n, rng=rng) + 3.0 * np.eye(n) for _ in grid]
            k = int(rng.integers(len(grid)))
            mats[k] = random_unitary(n, rng) @ np.diag(sigma) @ random_unitary(n, rng)
            path = MatrixPath.from_samples(zip(grid, mats))
            a = ginibre(n, rng=rng)
            gate = numkit.singular(np.linalg.svd(np.stack(mats), compute_uv=False))
            if gate.any():
                fired += 1
                t = re.escape(str(grid[gate.argmax()]))
                with pytest.raises(PathSingularError, match=f"t = {t}$"):
                    simulate(path, a, grid=grid)
            else:
                report = simulate(path, a, grid=grid)
                expected = TestStackedSimulate.reference_norms(mats, a, Modifier.identity(n))
                assert np.allclose(report.norms, expected, rtol=1e-10, atol=0.0)
        assert 0 < fired < 31


class TestStackedSimulate:
    # the grid stops at t = 1e-3 so that cond(U(t)) stays near 1e3 and the
    # stacked inverse and the per-point reference agree far below the tolerance
    GRID = log_grid(1e-1, 1e-3, 9)

    @staticmethod
    def reference_norms(mats, a, phi):
        return np.array(
            [np.linalg.norm(apply(phi, u @ a @ np.linalg.inv(u)), 2) for u in mats]
        )

    def power_sum(self, base, coeffs, t):
        return base + sum(t ** (k + 1) * e for k, e in enumerate(coeffs))

    def test_norms_match_per_point_reference(self):
        rng = np.random.default_rng(21)
        for n, rank in ((2, 1), (4, 2), (6, 5)):
            z = random_singular(n, rank, rng)
            a = ginibre(n, rng=rng)
            coeffs = [ginibre(n, rng=rng) for _ in range(2)]
            gp = construct_good_path(z)
            mats = {
                "polynomial": [self.power_sum(z, coeffs, t) for t in self.GRID],
                "goodpath": [self.power_sum(gp.base, gp.path_coeffs, t) for t in self.GRID],
            }
            paths = {
                "polynomial": MatrixPath.polynomial(z, coeffs),
                "goodpath": MatrixPath.from_good_path(gp),
                "samples": MatrixPath.from_samples(zip(self.GRID, mats["polynomial"])),
            }
            mats["samples"] = mats["polynomial"]
            for phi in (
                Modifier.identity(n),
                Modifier.delete_diagonal(n),
                Modifier.general(ginibre(n * n, rng=rng)),
            ):
                for kind, path in paths.items():
                    report = simulate(path, a, phi, grid=self.GRID)
                    assert np.array_equal(report.t_values, self.GRID)
                    expected = self.reference_norms(mats[kind], a, phi)
                    assert np.allclose(report.norms, expected, rtol=1e-10, atol=0.0), kind

    def test_first_of_two_singular_grid_points_is_named(self):
        grid = log_grid()
        first, second = grid[5], grid[12]
        # diag(t - first, t - second) vanishes exactly at both grid points
        path = MatrixPath.linear(diag(-first, -second), np.eye(2))
        with pytest.raises(PathSingularError, match=f"t = {re.escape(str(first))}$"):
            simulate(path, unit(2, 0, 1), grid=grid)

    def test_values_stack_and_missing_sample(self):
        mats = [diag(1.0, t) for t in (0.5, 0.25)]
        path = MatrixPath.from_samples([(0.25, mats[1]), (0.5, mats[0])])
        assert np.array_equal(path.values([0.5, 0.25, 0.5]), np.stack([mats[0], mats[1], mats[0]]))
        with pytest.raises(InvalidInputError, match="0.125"):
            path.values([0.5, 0.125])

    def test_grid_point_without_a_sample_is_rejected(self):
        path = MatrixPath.from_samples([(0.25, diag(1.0, 0.5))])
        with pytest.raises(InvalidInputError, match="0.3"):
            simulate(path, unit(2, 0, 1), grid=[0.3, 0.2])

    def test_grid_subset_of_the_samples_evaluates_only_those(self):
        ts = (0.5, 0.25, 0.125, 0.0625)
        path = MatrixPath.from_samples((t, diag(1.0, t)) for t in ts)
        report = simulate(path, unit(2, 0, 1), grid=[0.5, 0.125, 0.0625])
        assert np.array_equal(report.t_values, [0.5, 0.125, 0.0625])
        assert np.allclose(report.norms, [2.0, 8.0, 16.0], rtol=1e-12)


class TestRankOneProbe:
    def test_elementary(self):
        assert np.allclose(rank_one_probe([1, 0, 0], [0, 1, 0]), unit(3, 0, 1))

    def test_composition(self):
        e = np.eye(3)
        left = rank_one_probe(e[:, 0], e[:, 1]) @ rank_one_probe(e[:, 1], e[:, 2])
        assert np.allclose(left, unit(3, 0, 2), atol=1e-15)

    def test_probe_properties_on_random_frames(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            q = random_unitary(4, rng)
            x, y, z = q[:, 0], q[:, 1], q[:, 2]
            exy = rank_one_probe(x, y)
            eyz = rank_one_probe(y, z)
            # composition and the orthogonality annihilation rule
            assert np.linalg.norm(exy @ eyz - rank_one_probe(x, z), 2) < 1e-12
            assert np.linalg.norm(eyz @ exy, 2) < 1e-12  # (x, z) = 0
            a = ginibre(4, rng=rng)
            coeff = np.vdot(y, a @ x)  # y^H A x
            assert np.linalg.norm(exy @ a @ exy - coeff * exy, 2) < 1e-12

    def test_diagonal_probes_sum_to_identity(self):
        q = random_unitary(5, np.random.default_rng(2))
        total = sum(rank_one_probe(q[:, i], q[:, i]) for i in range(5))
        assert np.linalg.norm(total - np.eye(5), 2) < 1e-12

    def test_rejects_zero_vectors(self):
        with pytest.raises(InvalidInputError):
            rank_one_probe([0.0, 0.0], [1.0, 0.0])


class TestFiltration:
    def test_two_step_chain(self):
        filt = kernel_filtration([diag(1.0, 0.0), diag(0.0, 1.0)])
        assert filt.dims == (1, 0)

    def test_zero_then_identity(self):
        filt = kernel_filtration([np.zeros((3, 3)), np.eye(3)])
        assert filt.dims == (3, 0)

    def test_generic_coefficients_reach_zero(self):
        rng = np.random.default_rng(3)
        z = random_singular(4, 2, rng)
        filt = kernel_filtration([z, ginibre(4, rng=rng)])
        assert filt.dims[-1] == 0

    def test_rejects_non_nested_chain(self):
        from conjlim.numkit import Subspace

        e = np.eye(3)
        with pytest.raises(InvalidInputError):
            Filtration((Subspace.from_span(e[:, :1]), Subspace.from_span(e[:, 1:2])))


class TestPreservesFiltration:
    def test_identity_preserves(self):
        filt = kernel_filtration([diag(1.0, 0.0), diag(0.0, 1.0)])
        assert preserves_filtration(np.eye(2), filt).member

    def test_offdiagonal_violates(self):
        filt = kernel_filtration([diag(1.0, 0.0), diag(0.0, 1.0)])
        verdict = preserves_filtration(unit(2, 0, 1), filt)
        assert not verdict.member
        assert verdict.witness is not None

    def test_bounded_simulation_implies_filtration_invariance(self):
        # necessity: a bounded conjugate along a polynomial path forces A to
        # preserve every intersected coefficient kernel
        rng = np.random.default_rng(13)
        seen_bounded = 0
        for i in range(30):
            n = int(rng.integers(2, 5))
            z = random_singular(n, int(rng.integers(1, n)), rng)
            coeffs = [ginibre(n, rng=rng)]
            a = random_member(z, rng) if i % 2 == 0 else ginibre(n, rng=rng)
            try:
                report = simulate(MatrixPath.polynomial(z, coeffs), a)
            except PathSingularError:
                continue
            if report.verdict == "bounded":
                seen_bounded += 1
                filt = kernel_filtration([z, *coeffs])
                assert preserves_filtration(a, filt).member
        assert seen_bounded >= 5

    def test_goodpath_coefficients_reduce_to_kernel_criterion(self):
        rng = np.random.default_rng(4)
        for i in range(15):
            n = int(rng.integers(2, 5))
            z = random_singular(n, int(rng.integers(1, n)), rng)
            gp = construct_good_path(z, order=2)
            filt = kernel_filtration([gp.base, *gp.path_coeffs])
            a = random_member(z, rng) if i % 2 == 0 else ginibre(n, rng=rng)
            assert preserves_filtration(a, filt).member == keeps_kernel_invariant(a, z).member


class TestPolynomialPathBounded:
    def test_unbounded_hand_example(self):
        # P = E12 has degree 0 while det = t has degree 1
        z, e = diag(1.0, 0.0), diag(0.0, 1.0)
        assert polynomial_path_bounded(z, [e], unit(2, 0, 1)) is False
        degrees = polynomial_growth_degrees(z, [e], unit(2, 0, 1))
        assert degrees == (0, 1)

    def test_bounded_hand_example(self):
        z, e = diag(1.0, 0.0), diag(0.0, 1.0)
        assert polynomial_path_bounded(z, [e], unit(2, 1, 0)) is True
        assert polynomial_growth_degrees(z, [e], unit(2, 1, 0)) == (2, 1)

    def test_identity_always_bounded(self):
        z, e = diag(1.0, 0.0), diag(0.0, 1.0)
        assert polynomial_path_bounded(z, [e], np.eye(2)) is True

    def test_identically_singular_path(self):
        with pytest.raises(InvalidPathError):
            polynomial_path_bounded(diag(1.0, 0.0), [diag(1.0, 0.0)], np.eye(2))

    def test_singular_at_a_sample_point(self):
        # diag(1 - t, t) is singular at the root-of-unity sample t = 1
        z, e = diag(1.0, 0.0), diag(-1.0, 1.0)
        assert polynomial_growth_degrees(z, [e], unit(2, 0, 1)) == (0, 1)
        assert polynomial_growth_degrees(z, [e], unit(2, 1, 0)) == (2, 1)

    def test_ill_conditioned_path_with_unit_determinant(self):
        # U(t) = I + t*s*u v^T with v^T u = 0 has det U(t) = 1 and condition
        # number about s^2 at |t| = 1, while its rows have norm about s/sqrt(6)
        n, s = 6, 1e3
        u = np.ones(n) / np.sqrt(n)
        v = np.zeros(n)
        v[:2] = (1.0, -1.0)
        v /= np.sqrt(2.0)
        a = np.diag(np.arange(n, dtype=float))
        _, det_deg = polynomial_growth_degrees(np.eye(n), [s * np.outer(u, v)], a)
        assert det_deg == 0
        assert polynomial_path_bounded(np.eye(n), [s * np.outer(u, v)], a) is True

    def test_matches_exact_rational_oracle(self):
        rng = np.random.default_rng(5)
        singular_paths = 0
        for i in range(60):
            n = int(rng.integers(1, 5))
            rank = int(rng.integers(0, n + 1))
            z = rng.integers(-2, 3, (n, rank)) @ rng.integers(-2, 3, (rank, n))
            coeffs = [rng.integers(-2, 3, (n, n)) for _ in range(int(rng.integers(1, 3)))]
            if i % 6 == 0:
                # the last row zero or repeated in every coefficient makes
                # the determinant vanish identically
                for m in (z, *coeffs):
                    m[-1] = m[0] if n > 1 and i % 12 else 0
            a = rng.integers(-3, 4, (n, n)) if i % 5 else 2 * np.eye(n, dtype=int)
            expected = exact_growth_degrees(z, coeffs, a)
            got = polynomial_growth_degrees(z, coeffs, a)
            if expected[1] is None:
                # on an identically singular path the product samples are
                # rounding noise, so only the determinant degree is defined
                singular_paths += 1
                assert got[1] is None
                with pytest.raises(InvalidPathError):
                    polynomial_path_bounded(z, coeffs, a)
            else:
                assert got == expected
                bounded = expected[0] is None or expected[0] >= expected[1]
                assert polynomial_path_bounded(z, coeffs, a) is bounded
        assert singular_paths >= 10

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_degree_bound_is_reached(self, n, p):
        # U(t) = t^p I: det U = t^{np} and U A adj(U) = t^{np} A reach the
        # bound n p, which a DFT over n p points would alias onto degree 0
        coeffs = [np.zeros((n, n))] * (p - 1) + [np.eye(n)]
        a = ginibre(n, rng=np.random.default_rng(n + 10 * p))
        assert polynomial_growth_degrees(np.zeros((n, n)), coeffs, a) == (n * p, n * p)

    def test_takes_one_svd_and_one_det_over_the_samples(self, monkeypatch):
        # both polynomials have degree at most n p, so n p + 1 samples; the
        # SVD gives the adjugate and the determinant, whose unit phase takes
        # the one batched det
        calls = {"svd": [], "det": []}

        def recording(name, fn):
            def wrapped(m, *args, **kwargs):
                calls[name].append(np.shape(m))
                return fn(m, *args, **kwargs)

            return wrapped

        for module in (np.linalg, np.linalg._linalg):
            for name in calls:
                monkeypatch.setattr(module, name, recording(name, getattr(module, name)))
        rng = np.random.default_rng(13)
        n, p = 4, 3
        z = random_singular(n, 2, rng)
        coeffs = [ginibre(n, rng=rng) for _ in range(p)]
        polynomial_growth_degrees(z, coeffs, ginibre(n, rng=rng))
        assert calls == {"svd": [(n * p + 1, n, n)], "det": [(n * p + 1, n, n)]}

    def test_agrees_with_simulation(self):
        rng = np.random.default_rng(6)
        checked = 0
        for i in range(25):
            n = int(rng.integers(2, 5))
            z = random_singular(n, int(rng.integers(1, n)), rng)
            coeffs = [ginibre(n, rng=rng) for _ in range(int(rng.integers(1, 3)))]
            a = random_member(z, rng) if i % 2 == 0 else ginibre(n, rng=rng)
            try:
                exact = polynomial_path_bounded(z, coeffs, a)
                report = simulate(MatrixPath.polynomial(z, coeffs), a)
            except (InvalidPathError, PathSingularError):
                continue
            if report.verdict == "inconclusive":
                continue
            checked += 1
            assert exact == (report.verdict == "bounded")
        assert checked >= 15


class TestAdjugate:
    @staticmethod
    def check(stack):
        for m, got in zip(stack, _batched_adjugate(stack)[0]):
            want = signed_minor_adjugate(m)
            assert np.linalg.norm(got - want, 2) <= 1e-12 * np.linalg.norm(want, 2)

    def test_full_rank(self):
        rng = np.random.default_rng(20)
        for n in range(1, 7):
            self.check(np.stack([ginibre(n, rng=rng) for _ in range(4)]))

    def test_rank_one_adjugate_at_corank_one(self):
        rng = np.random.default_rng(21)
        for n in range(2, 7):
            stack = np.stack([random_singular(n, n - 1, rng) for _ in range(4)])
            self.check(stack)
            for got in _batched_adjugate(stack)[0]:
                s = np.linalg.svd(got, compute_uv=False)
                assert s[1] <= 1e-12 * s[0]

    def test_zero_adjugate_at_corank_two(self):
        rng = np.random.default_rng(22)
        for n in range(2, 7):
            stack = np.stack([random_singular(n, r, rng) for r in range(n - 1)])
            for m, got in zip(stack, _batched_adjugate(stack)[0]):
                assert np.linalg.norm(got, 2) <= 1e-12 * max(1.0, operator_norm(m)) ** (n - 1)

    @staticmethod
    def det_floor(stack):
        """The determinant noise floor ``n^2 eps s_1 prod_{j<n-1} s_j``."""
        n = stack.shape[-1]
        _, s, det = _batched_adjugate(stack)
        return det, n * n * np.finfo(float).eps * s[:, 0] * s[:, :-1].prod(axis=1)

    def test_determinant_full_rank(self):
        # each determinant lies within the floor of the exact one, and the
        # SVD form also rounds its n + 1 factors
        rng = np.random.default_rng(20)
        for n in range(1, 7):
            stack = np.stack([ginibre(n, rng=rng) for _ in range(4)])
            det, floor = self.det_floor(stack)
            want = np.linalg.det(stack)
            eps = np.finfo(float).eps
            assert np.all(np.abs(det - want) <= 2 * floor + (n + 1) * eps * np.abs(want))

    def test_determinant_vanishes_at_corank_one_and_two(self):
        # within the floor, so the degree test reads a path that is singular
        # for every t as identically singular
        rng = np.random.default_rng(21)
        for n in range(2, 7):
            for rank in (n - 1, n - 2):
                stack = np.stack([random_singular(n, rank, rng) for _ in range(4)])
                det, floor = self.det_floor(stack)
                assert np.all(np.abs(det) <= floor)

    def test_determinant_of_ill_conditioned_unit_path(self):
        # I + t*s*u v^T with v^T u = 0 at the 7 sample points of n = 6, p = 1
        n, s = 6, 1e3
        u = np.ones(n) / np.sqrt(n)
        v = np.zeros(n)
        v[:2] = (1.0, -1.0)
        v /= np.sqrt(2.0)
        ts = np.exp(2j * np.pi * np.arange(n + 1) / (n + 1))
        stack = np.eye(n) + ts[:, None, None] * (s * np.outer(u, v))
        det, floor = self.det_floor(stack)
        assert np.all(np.abs(det - 1.0) <= floor)
        assert np.all(np.abs(det - np.linalg.det(stack)) <= floor)


class TestDivergenceSearch:
    def test_zero_base_point(self):
        out = divergence_search(
            diag(1.0, 2.0), np.zeros((2, 2)), radius=0.1, budget=10_000, seed=0, stop_at=1e6
        )
        assert out.norm > 1e6
        assert operator_norm(out.matrix) < 0.1

    def test_scalar_matrix_is_a_fixed_point(self):
        rng = np.random.default_rng(7)
        z = random_singular(3, 2, rng)
        lam = 1.5 - 2.0j
        out = divergence_search(lam * np.eye(3), z, seed=1, budget=500)
        assert out.norm == pytest.approx(abs(lam), abs=1e-12)

    def test_kernel_violating_unit(self):
        out = divergence_search(
            unit(3, 1, 2), diag(1.0, 0.0, 0.0), radius=0.1, budget=10_000, seed=2, stop_at=1e6
        )
        assert out.norm > 1e6

    def test_kernel_algebra_member_still_diverges(self):
        # non-scalar members admit one bounded path but not a bounded ball
        rng = np.random.default_rng(8)
        z = random_singular(3, 2, rng)
        a = random_member(z, rng)
        assert keeps_kernel_invariant(a, z).member
        out = divergence_search(a, z, radius=0.1, budget=20_000, seed=3, stop_at=1e6)
        assert out.norm > 1e6

    def test_respects_radius(self):
        rng = np.random.default_rng(9)
        z = random_singular(3, 1, rng)
        out = divergence_search(ginibre(3, rng=rng), z, radius=0.05, budget=2_000, seed=4)
        assert operator_norm(out.matrix - z) < 0.05

    def test_budget_must_be_positive(self):
        with pytest.raises(InvalidInputError, match="budget"):
            divergence_search(unit(2, 0, 1), np.zeros((2, 2)), budget=0, seed=0)

    def test_search_whose_every_start_is_refused_returns(self):
        # Z + delta G rounds back to a singular matrix at this scale, so the
        # gate refuses every random start; the budget must still end the
        # search.  A subprocess with a timeout turns a hang into a failure.
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
        code = (
            "import numpy as np\n"
            "from conjlim.pathsim import divergence_search\n"
            "out = divergence_search(np.triu(np.ones((3, 3))), np.diag([1e20, 0.0, 0.0]),"
            " radius=1e-3, budget=10, seed=0)\n"
            "print(out.matrix, out.norm, out.evaluations, out.rejected, out.restarts)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["None", "-inf", "0", "10", "10"]

    def test_corank_heavy_base_is_not_starved(self):
        # at n = 16 and rank 2 a random start rarely has sigma_min >= 0.05 delta;
        # the best-conditioned draw must still start the ascent
        rng = np.random.default_rng(16)
        z = random_singular(16, 2, rng)
        for k in range(6):
            a = ginibre(16, rng=rng)
            out = divergence_search(a, z, radius=0.1, budget=10_000, seed=k, stop_at=1e6)
            assert out.norm > 1e6, k

    def test_work_is_bounded_by_the_budget(self, monkeypatch):
        # at an invertible base with a small radius every move must land in
        # the ball, and each evaluation costs a bounded number of SVDs
        calls = 0

        def counting(svd):
            def wrapped(*args, **kwargs):
                nonlocal calls
                calls += 1
                return svd(*args, **kwargs)

            return wrapped

        # norm(., 2) calls the private module's svd, not numpy.linalg.svd
        for module in (np.linalg, np.linalg._linalg):
            monkeypatch.setattr(module, "svd", counting(module.svd))
        a = ginibre(3, rng=np.random.default_rng(12))
        out = divergence_search(a, np.eye(3), radius=0.025, budget=500, seed=0)
        assert out.evaluations == 500
        assert out.rejected == 0
        assert out.restarts >= 1
        assert calls <= 4 * out.evaluations

    def test_evaluation_takes_no_solve_and_three_svds(self, monkeypatch):
        # the gate's SVD gives the inverse, so an evaluation takes one SVD
        # each for the ball test, the gate and the objective, and no solve; a
        # restart takes at most 8 draws of two SVDs, the scalar test two
        calls = {"svd": 0, "solve": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapped

        for module in (np.linalg, np.linalg._linalg):
            for name in calls:
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        a = ginibre(3, rng=np.random.default_rng(12))
        out = divergence_search(a, np.eye(3), radius=0.025, budget=500, seed=0)
        assert out.evaluations == 500
        assert calls["solve"] == 0
        assert calls["svd"] <= 3 * out.evaluations + 2 * 8 * out.restarts + 2

    @staticmethod
    def count_full_svds(monkeypatch):
        """Patch every ``svd`` entry point; returns the list of full-SVD
        calls and the list of every input matrix."""
        full, inputs = [], []

        def counting(svd):
            def wrapped(m, *args, **kwargs):
                inputs.append(np.array(m))
                if kwargs.get("compute_uv", True):
                    full.append(1)
                return svd(m, *args, **kwargs)

            return wrapped

        for module in (np.linalg, np.linalg._linalg):
            monkeypatch.setattr(module, "svd", counting(module.svd))
        return full, inputs

    def test_only_starts_and_kicks_take_a_full_svd(self, monkeypatch):
        # a shrink move keeps its parent's singular vectors, so its SVD is
        # the parent's with s_n lowered; a fresh SVD per candidate took one
        # full SVD per evaluation (500 and 5 here)
        rng = np.random.default_rng(16)
        z16 = random_singular(16, 2, rng)
        a16 = ginibre(16, rng=rng)
        a3 = ginibre(3, rng=np.random.default_rng(12))
        cases = [(a3, np.eye(3), 0.025, 500, None), (a16, z16, 0.1, 10_000, 1e6)]
        for a, z, radius, budget, stop_at in cases:
            evals, _, _, draws, kicks = fresh_svd_search(
                a, z, Modifier.identity(z.shape[0]), radius, budget, 0, stop_at
            )
            full, inputs = self.count_full_svds(monkeypatch)
            out = divergence_search(a, z, radius=radius, budget=budget, seed=0, stop_at=stop_at)
            assert out.evaluations == evals
            # every start draw and every kick in the ball, nothing else
            assert len(full) == draws + kicks < evals
            # the Frobenius certificate rules A scalar out without an SVD
            dev = a - np.trace(a) / a.shape[0] * np.eye(a.shape[0])
            assert not any(np.array_equal(m, dev) or np.array_equal(m, a) for m in inputs)
            monkeypatch.undo()

    @pytest.mark.parametrize(
        "n, singular_z, kind, seed",
        [
            (3, True, "identity", 0),
            (3, False, "delete_diagonal", 1),
            (4, True, "general", 2),
            (4, False, "identity", 3),
            (6, True, "delete_diagonal", 4),
            (6, False, "general", 5),
            (10, True, "identity", 6),
            (10, False, "delete_diagonal", 7),
            (16, True, "general", 8),
            (16, False, "identity", 9),
        ],
    )
    def test_matches_a_fresh_svd_per_candidate(self, n, singular_z, kind, seed):
        rng = np.random.default_rng(100 + seed)
        if singular_z:
            z = random_singular(n, int(rng.integers(1, n)), rng)
        else:
            z = random_unitary(n, rng) @ np.diag(rng.uniform(0.5, 2.0, n))
        a = ginibre(n, rng=rng)
        phi = {
            "identity": Modifier.identity(n),
            "delete_diagonal": Modifier.delete_diagonal(n),
            "general": Modifier.general(ginibre(n * n, rng=rng) / n),
        }[kind]
        radius, budget = (0.1, 2_000) if singular_z else (0.03, 300)
        stop_at = 1e6 if singular_z else None
        out = divergence_search(a, z, phi, radius, budget, seed=seed, stop_at=stop_at)
        ref = fresh_svd_search(a, z, phi, radius, budget, seed, stop_at)
        assert (out.evaluations, out.rejected, out.restarts) == ref[:3]
        u = out.matrix
        assert operator_norm(u - z) < radius
        exact = operator_norm(apply(phi, u @ a @ np.linalg.inv(u)))
        cond = np.linalg.cond(u)
        assert abs(out.norm - exact) <= 100 * cond * np.finfo(float).eps * exact

    @pytest.mark.parametrize("mu", [1e-3, 1.0, 1e6])
    def test_scalar_certificate_agrees_with_the_svd_rule(self, mu):
        # A = mu I + delta E around the operator-norm threshold 1e-13 *
        # max(1, |mu|, ||A||): for the rank-one E the Frobenius norm is the
        # operator norm, so the SVD rule alone decides a factor-2 sqrt(n)
        # band; for the full-rank one the Frobenius norm is sqrt(n) times it
        n = 4
        z = random_singular(n, 2, np.random.default_rng(30))
        seen = set()
        for e in (unit(n, 0, 1), diag(1.0, -1.0, 1.0, -1.0)):
            for rel in np.geomspace(1e-15, 1e-11, 41):
                a = mu * np.eye(n) + rel * mu * e
                m = np.trace(a) / n
                dev = operator_norm(a - m * np.eye(n))
                scalar = dev <= 1e-13 * max(1.0, abs(m), operator_norm(a))
                out = divergence_search(a, z, budget=1, seed=0)
                assert (out.evaluations == 0) == scalar, (e, rel)
                seen.add(scalar)
        assert seen == ({True} if mu < 1.0 else {True, False})

    def test_modifier_objective(self):
        out = divergence_search(
            unit(3, 1, 2),
            diag(1.0, 0.0, 0.0),
            Modifier.delete_diagonal(3),
            radius=0.1,
            budget=10_000,
            seed=5,
            stop_at=1e6,
        )
        assert out.norm > 1e6


class TestLocalityProbe:
    def test_scalar_never_falsified(self):
        rng = np.random.default_rng(10)
        z = random_singular(3, 1, rng)
        report = locality_probe(2.0 * np.eye(3), z, seed=0, samples=4, budget=2000)
        assert report.consistent

    def test_nonscalar_at_singular_base_falsified(self):
        rng = np.random.default_rng(11)
        z = random_singular(3, 2, rng)
        report = locality_probe(ginibre(3, rng=rng), z, seed=1, samples=4, budget=4000)
        assert not report.consistent
        assert report.witness is not None

    def test_samples_must_be_positive(self):
        # with no sample the probe would report consistency without probing
        with pytest.raises(InvalidInputError, match="samples"):
            locality_probe(unit(3, 0, 1), diag(1.0, 0.0, 0.0), seed=0, samples=0)

    def test_work_is_bounded_by_the_budget(self, monkeypatch):
        evaluations = []

        def counted(*args, **kwargs):
            out = divergence_search(*args, **kwargs)
            evaluations.append(out.evaluations)
            return out

        monkeypatch.setattr(pathsim, "divergence_search", counted)
        locality_probe(np.triu(np.ones((3, 3))), np.eye(3), r=0.05, seed=0, samples=2, budget=2)
        assert len(evaluations) == 2
        assert sum(evaluations) <= 2

    def test_budget_below_samples_is_rejected(self):
        with pytest.raises(InvalidInputError, match="budget"):
            locality_probe(unit(3, 0, 1), np.eye(3), seed=0, samples=2, budget=1)

    def test_invertible_base_with_small_radius_consistent(self):
        rng = np.random.default_rng(12)
        a = ginibre(3, rng=rng)
        report = locality_probe(a, np.eye(3), r=0.05, seed=2, samples=4, budget=2000)
        assert report.consistent
