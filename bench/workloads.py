"""Seeded workload instances, the library calls each one makes, and the
oracle each result is checked against.

An instance is drawn from ``numpy.random.default_rng([seed, workload, index])``
with numpy alone, so the same seed gives the same inputs and an instance does
not depend on how many came before it.  Inputs are screened here, before any
library call, so that every exception raised in the timed part counts as a
failure of the library.

Each workload provides ``make(seed, index)``, ``run(inst)`` (the library
calls, timed) and ``check(inst, out)`` (the oracle, untimed).  ``check``
returns ``"ok"``, ``"incomplete: <reason>"`` (a search fell short of the
certificate it was asked for; ``"incomplete: starved"`` when it stopped
below both its evaluation budget and its target norm) or
``"wrong: <reason>"`` (a verdict the oracle contradicts).  Library functions are looked up on their modules at
call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from conjlim import criteria, goodpath, modifier, pathsim

#: Matrix sizes of the north star; per-layer numbers are binned by them.
SIZES = (3, 6, 10, 16)

#: Points of ``pathsim.log_grid()``, the grid every ``simulate`` call uses.
GRID_POINTS = 26

#: Target norm and budget of the searches that certify divergence.
STOP_AT = 1e6
SEARCH_BUDGET = 10_000


@dataclass
class Instance:
    index: int
    kind: str
    n: int
    arrays: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)

    def digest(self) -> str:
        h = hashlib.sha256(f"{self.index}|{self.kind}|{self.n}|{sorted(self.params.items())}".encode())
        for key in sorted(self.arrays):
            value = self.arrays[key]
            for m in value if isinstance(value, list) else [value]:
                h.update(key.encode())
                h.update(np.ascontiguousarray(m).tobytes())
        return h.hexdigest()


def _rng(seed: int, workload: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, workload, index])


def _ginibre(rng, rows, cols=None):
    cols = rows if cols is None else cols
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def _unitary(rng, n):
    q, r = np.linalg.qr(_ginibre(rng, n))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _singular(rng, n, rank):
    """Rank-``rank`` matrix whose rank is unambiguous at the library's
    ``1e-10`` relative cutoff, with its right singular vectors."""
    while True:
        z = _ginibre(rng, n, rank) @ _ginibre(rng, rank, n)
        _, s, vh = np.linalg.svd(z)
        if s[rank - 1] > 1e-4 * s[0] and (rank == n or s[rank] < 1e-13 * s[0]):
            return z, vh


def _kernel_member(rng, vh, rank):
    """Random A with ``A ker(Z) <= ker(Z)``: block lower triangular in the
    basis whose last columns span the kernel."""
    n = vh.shape[0]
    q = vh.conj().T
    b = _ginibre(rng, n)
    b[:rank, rank:] = 0.0
    return q @ b @ q.conj().T


def _non_member(rng, z, vh, rank):
    """Ginibre A whose kernel defect ``||Z A K||`` is far above noise."""
    k = vh[rank:].conj().T
    while True:
        a = _ginibre(rng, z.shape[0])
        if np.linalg.norm(z @ a @ k, 2) > 1e-3 * np.linalg.norm(z, 2) * np.linalg.norm(a, 2):
            return a


def _path_well_posed(z, coeffs, floor=1e-10):
    """Every point of the simulate grid is invertible well above the
    library's ``1e-13`` singularity gate."""
    for t in np.geomspace(1e-1, 1e-6, GRID_POINTS):
        u = z.astype(np.complex128, copy=True)
        for k, e in enumerate(coeffs, start=1):
            u = u + t**k * e
        s = np.linalg.svd(u, compute_uv=False)
        if s[-1] <= floor * s[0]:
            return False
    return True


def _library_seed(rng) -> int:
    return int(rng.integers(2**31 - 1))


def _simulate_agrees(verdict: str, bounded: bool) -> bool:
    return verdict == "inconclusive" or verdict == ("bounded" if bounded else "divergent")


# ---------------------------------------------------------------------------
# sweep: classify random (A, Z) pairs with many small decompositions.

class Sweep:
    name = "sweep"
    wid = 1
    #: a non-member at n=3, which makes every call of the workload
    warmup_index = 10**9 + 1

    @staticmethod
    def make(seed: int, index: int) -> Instance:
        rng = _rng(seed, Sweep.wid, index)
        member = index % 2 == 0
        n = SIZES[(index // 2) % len(SIZES)]
        rank = int(rng.integers(1, n))
        z, vh = _singular(rng, n, rank)
        a = _kernel_member(rng, vh, rank) if member else _non_member(rng, z, vh, rank)
        return Instance(
            index,
            "member" if member else "non-member",
            n,
            {"A": a, "Z": z},
            {"rank": rank, "seed_j": _library_seed(rng), "seed_search": _library_seed(rng)},
        )

    @staticmethod
    def run(inst: Instance) -> dict:
        a, z, p = inst.arrays["A"], inst.arrays["Z"], inst.params
        member = criteria.keeps_kernel_invariant(a, z).member
        gp = goodpath.construct_good_path(z, order=2)
        report = pathsim.simulate(pathsim.MatrixPath.from_good_path(gp), a)
        j_member = modifier.some_path_bounded(
            a, z, modifier.Modifier.delete_diagonal(inst.n), seed=p["seed_j"]
        ).member
        out = {"member": member, "verdict": report.verdict, "j_member": j_member}
        if not member:
            search = pathsim.divergence_search(
                a, z, radius=0.1, budget=SEARCH_BUDGET, seed=p["seed_search"], stop_at=STOP_AT
            )
            out["search_norm"] = search.norm
            out["search_evals"] = search.evaluations
        return out

    @staticmethod
    def check(inst: Instance, out: dict) -> str:
        truth = inst.kind == "member"
        if out["member"] != truth:
            return "wrong: keeps_kernel_invariant"
        if not _simulate_agrees(out["verdict"], truth):
            return f"wrong: simulate says {out['verdict']}"
        if out["j_member"] != truth:
            return "wrong: some_path_bounded under delete_diagonal"
        if not truth and not out["search_norm"] > STOP_AT:
            if out["search_evals"] < SEARCH_BUDGET:
                return "incomplete: starved"
            return "incomplete: budget spent below 1e6"
        return "ok"

    @staticmethod
    def inconclusive(out: dict) -> int:
        return int(out.get("verdict") == "inconclusive")

    @staticmethod
    def corrupt(inst: Instance, out: dict) -> dict:
        return {**out, "member": not out["member"]}


# ---------------------------------------------------------------------------
# exact: the adjugate/determinant test and the Laurent least-squares solve.

#: Laurent truncation orders by size, chosen so that neither
#: ``laurent_inverse`` nor ``polynomial_path_bounded`` falls below a quarter
#: of the timed run.  At n=10, order 3 comes twice as often as order 1, so
#: the slowest class holds 2/9 of the instances and p90 falls well inside
#: it rather than at its lower edge.
LAURENT_ORDERS = {3: (4, 6, 8), 6: (2, 3, 4), 10: (1, 3, 3)}
EXACT_SIZES = (3, 6, 10)


def _square_zero(rng, n):
    """Z with Z^2 = 0 and rank floor(n/2): the path Z + tI has inverse
    I/t - Z/t^2, a pole of order 2."""
    q = _unitary(rng, n)
    d = np.zeros((n, n), dtype=np.complex128)
    for i in range(n // 2):
        d[2 * i, 2 * i + 1] = rng.uniform(0.5, 2.0)
    return q @ d @ q.conj().T


class Exact:
    name = "exact"
    wid = 2
    #: a polynomial path at n=3, which makes every call of the workload
    warmup_index = 10**9 + 2

    @staticmethod
    def make(seed: int, index: int) -> Instance:
        rng = _rng(seed, Exact.wid, index)
        # size, degree and order cycle with the index, so every run of about
        # the same length solves the same mix of problem sizes
        n = EXACT_SIZES[index % 3]
        degree = 1 + (index // 3) % 3
        order = LAURENT_ORDERS[n][(index // 9) % 3]
        if index % 8 == 7:
            z = _square_zero(rng, n)
            coeffs = [np.eye(n, dtype=np.complex128)]
            a = _ginibre(rng, n)
            return Instance(index, "pole2", n, {"A": a, "Z": z, "E": coeffs}, {"order": order})
        rank = int(rng.integers(1, n))
        z, vh = _singular(rng, n, rank)
        a = _kernel_member(rng, vh, rank) if index % 2 == 0 else _ginibre(rng, n)
        while True:
            coeffs = [_ginibre(rng, n) for _ in range(degree)]
            if _path_well_posed(z, coeffs):
                break
        return Instance(
            index, "poly", n, {"A": a, "Z": z, "E": coeffs}, {"order": order, "degree": degree}
        )

    @staticmethod
    def run(inst: Instance) -> dict:
        a, z, es = inst.arrays["A"], inst.arrays["Z"], inst.arrays["E"]
        order = inst.params["order"]
        exact = pathsim.polynomial_path_bounded(z, es, a)
        report = pathsim.simulate(pathsim.MatrixPath.polynomial(z, es), a)
        out = {"exact": exact, "verdict": report.verdict}
        if inst.kind == "pole2":
            try:
                goodpath.laurent_inverse(z, es, order=order)
                out["pole2_rejected"] = False
            except goodpath.NotAGoodPathError:
                out["pole2_rejected"] = True
        else:
            gp = goodpath.construct_good_path(z, order=order)
            pole, series = goodpath.laurent_inverse(z, gp.path_coeffs, order=order)
            out["expected"] = [gp.inverse_pole, *gp.inverse_series]
            out["laurent"] = [pole, *series]
        return out

    @staticmethod
    def check(inst: Instance, out: dict) -> str:
        if not _simulate_agrees(out["verdict"], out["exact"]):
            return f"wrong: exact test says bounded={out['exact']}, simulate says {out['verdict']}"
        if inst.kind == "pole2":
            return "ok" if out["pole2_rejected"] else "wrong: pole of order 2 accepted"
        scale = max(1.0, max(np.linalg.norm(c, 2) for c in out["expected"]))
        gap = max(np.linalg.norm(x - y, 2) for x, y in zip(out["laurent"], out["expected"]))
        if not gap <= 1e-7 * scale:
            return f"wrong: laurent_inverse off by {gap:.2e}"
        return "ok"

    @staticmethod
    def inconclusive(out: dict) -> int:
        return int(out.get("verdict") == "inconclusive")

    @staticmethod
    def corrupt(inst: Instance, out: dict) -> dict:
        if inst.kind == "pole2":
            return {**out, "pole2_rejected": not out["pole2_rejected"]}
        return {**out, "laurent": [out["laurent"][0] + 1.0, *out["laurent"][1:]]}


# ---------------------------------------------------------------------------
# locality: divergence search where most candidates leave the ball.

LOCALITY_SIZES = (3, 4, 5, 6)


def _locality_kind(index: int) -> str:
    r = index % 10
    return "probe-scalar" if r == 0 else "probe-singular" if r in (1, 2) else "search"


class Locality:
    name = "locality"
    wid = 3
    #: a search at an invertible base
    warmup_index = 10**9 + 3

    @staticmethod
    def make(seed: int, index: int) -> Instance:
        rng = _rng(seed, Locality.wid, index)
        kind = _locality_kind(index)
        n = LOCALITY_SIZES[(index // 10) % len(LOCALITY_SIZES)]
        lib_seed = _library_seed(rng)
        if kind == "search":
            sigma = rng.uniform(0.5, 2.0, n)
            z = _unitary(rng, n) * sigma
            a = _ginibre(rng, n)
            params = {
                "radius": float(rng.uniform(0.02, 0.1)),
                "budget": 2 + index % 5,
                "seed": lib_seed,
            }
            return Instance(index, kind, n, {"A": a, "Z": z}, params)
        rank = int(rng.integers(1, n))
        z, _ = _singular(rng, n, rank)
        if kind == "probe-scalar":
            lam = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            a = lam * np.eye(n, dtype=np.complex128)
        else:
            a = _ginibre(rng, n)
        return Instance(index, kind, n, {"A": a, "Z": z}, {"seed": lib_seed})

    @staticmethod
    def run(inst: Instance) -> dict:
        a, z, p = inst.arrays["A"], inst.arrays["Z"], inst.params
        if inst.kind == "search":
            out = pathsim.divergence_search(
                a, z, radius=p["radius"], budget=p["budget"], seed=p["seed"]
            )
            return {"matrix": out.matrix, "norm": out.norm, "evals": out.evaluations}
        report = pathsim.locality_probe(a, z, r=0.1, seed=p["seed"], samples=4, budget=2000)
        return {"consistent": report.consistent, "norm": report.best_norm}

    @staticmethod
    def check(inst: Instance, out: dict) -> str:
        a, z, p = inst.arrays["A"], inst.arrays["Z"], inst.params
        if inst.kind == "search":
            u = out["matrix"]
            if u is None or not np.linalg.norm(u - z, 2) < p["radius"]:
                return "wrong: search left the ball"
            s_min = np.linalg.svd(z, compute_uv=False)[-1]
            bound = np.linalg.norm(u, 2) * np.linalg.norm(a, 2) / (s_min - p["radius"])
            if not out["norm"] <= bound * (1 + 1e-12):
                return f"wrong: norm {out['norm']:.3e} above the ball bound {bound:.3e}"
            if out["evals"] < p["budget"]:
                return "incomplete: starved"
            return "ok"
        if inst.kind == "probe-singular":
            return "incomplete: non-scalar probe not falsified" if out["consistent"] else "ok"
        lam = abs(a[0, 0])
        if not out["consistent"] or not abs(out["norm"] - lam) <= 1e-12:
            return f"wrong: scalar probe gave norm {out['norm']!r} for |lambda| {lam!r}"
        return "ok"

    @staticmethod
    def inconclusive(out: dict) -> int:
        return 0

    @staticmethod
    def corrupt(inst: Instance, out: dict) -> dict:
        if inst.kind == "search":
            return {**out, "norm": np.inf}
        return {**out, "consistent": not out["consistent"]}


WORKLOADS = {w.name: w for w in (Sweep, Exact, Locality)}
