"""Command-line front end.

Subcommands: ``criteria``, ``goodpath``, ``modifier``, ``simulate``,
``suite``, ``convert``.  All matrix I/O uses the JSON schema
``{"rows": r, "cols": c, "data": [[re, im], ...]}`` (row-major); good paths
and reports are emitted as JSON documents.  ``--seed`` is mandatory for every
randomized operation so runs are reproducible.

Exit codes: 0 on success, 2 for input or usage errors, 1 for unexpected
failures; a failing suite exits with ``10 + index`` of the suite id in
``conjlim.suites.SUITE_IDS``.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from . import criteria, goodpath, modifier, pathsim, suites
from .numkit import (
    ConjlimError,
    InvalidInputError,
    load_matrix,
    matrices_from_json,
    matrix_from_json,
    matrix_to_json,
    read_field,
)

__all__ = ["main", "convert"]


def _emit(obj: dict, out: str | None) -> None:
    text = json.dumps(obj, indent=2)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_modifier(spec: str, dim: int) -> modifier.Modifier:
    if spec == "id":
        return modifier.Modifier.identity(dim)
    if spec == "J":
        return modifier.Modifier.delete_diagonal(dim)
    if spec.startswith("hadamard:"):
        return modifier.Modifier.hadamard(load_matrix(spec.split(":", 1)[1]))
    if spec.startswith("general:"):
        return modifier.Modifier.general(load_matrix(spec.split(":", 1)[1]))
    raise InvalidInputError(
        f"unknown modifier spec {spec!r}; use id, J, hadamard:FILE or general:FILE"
    )


def _cmd_criteria(args) -> int:
    if args.op == "dim":
        if args.n is None or args.m is None:
            raise InvalidInputError("--op dim requires --n and --m")
        value = criteria.kernel_algebra_dim(args.n, args.m)
        _emit({"n": args.n, "m": args.m, "dim": value}, args.out)
        return 0
    if args.Z is None:
        raise InvalidInputError(f"--op {args.op} requires --Z")
    z = load_matrix(args.Z)
    if args.op == "basis":
        basis = criteria.kernel_algebra_basis(z)
        _emit({"count": len(basis), "basis": [matrix_to_json(b) for b in basis]}, args.out)
        return 0
    if args.A is None:
        raise InvalidInputError(f"--op {args.op} requires --A")
    a = load_matrix(args.A)
    if args.op == "sker":
        verdict = criteria.keeps_kernel_invariant(a, z)
    elif args.op == "sim":
        verdict = criteria.keeps_image_invariant(a, z)
    elif args.op in ("sc", "sc-dual"):
        if args.C is None:
            raise InvalidInputError(f"--op {args.op} requires --C")
        c = load_matrix(args.C)
        fn = criteria.pole_term_vanishes if args.op == "sc" else criteria.pole_term_vanishes_dual
        verdict = fn(a, z, c)
    else:  # pragma: no cover - argparse choices guard this
        raise InvalidInputError(f"unknown op {args.op!r}")
    _emit(verdict.to_json(), args.out)
    return 0


def _cmd_goodpath(args) -> int:
    z = load_matrix(args.Z)
    gp = goodpath.construct_good_path(z, order=args.order)
    gp.validate()
    _emit(gp.to_json(), args.out)
    return 0


def _cmd_modifier(args) -> int:
    if args.op in ("member", "member-dual"):
        if args.Z is None or args.A is None:
            raise InvalidInputError(f"--op {args.op} requires --Z and --A")
        if args.seed is None:
            raise InvalidInputError(f"--op {args.op} requires --seed")
        z = load_matrix(args.Z)
        a = load_matrix(args.A)
        phi = _load_modifier(args.phi, z.shape[0])
        fn = modifier.some_path_bounded if args.op == "member" else modifier.some_path_bounded_dual
        verdict = fn(a, z, phi, seed=args.seed)
        _emit(verdict.to_json(), args.out)
        return 0
    if args.op == "faithful":
        if args.seed is None:
            raise InvalidInputError("--op faithful requires --seed")
        if args.phi.startswith(("hadamard:", "general:")):
            dim = 1  # placeholder; the factor file fixes the dimension
            phi = _load_modifier(args.phi, dim)
        else:
            dim = args.dim if args.dim is not None else (
                load_matrix(args.A).shape[0] if args.A else None
            )
            if dim is None:
                raise InvalidInputError("--op faithful requires --dim for id/J modifiers")
            phi = _load_modifier(args.phi, dim)
        report = modifier.nilpotent_faithful(phi, seed=args.seed, trials=args.trials)
        out = {"faithful": report.faithful, "exact": report.exact}
        if report.counterexample is not None:
            out["counterexample"] = matrix_to_json(report.counterexample)
        _emit(out, args.out)
        return 0
    if args.op in ("gershgorin", "jbound"):
        if args.A is None:
            raise InvalidInputError(f"--op {args.op} requires --A")
        a = load_matrix(args.A)
        if args.op == "gershgorin":
            region = modifier.gershgorin_region(a)
            _emit(
                {
                    "centers": [[float(c.real), float(c.imag)] for c in region.centers],
                    "radii": [float(r) for r in region.radii],
                },
                args.out,
            )
        else:
            cert = modifier.diagonal_bound_certificate(a)
            _emit(
                {
                    "diag_sum": cert.diag_sum,
                    "radii_sum": cert.radii_sum,
                    "eigenvalue_sum": cert.eigenvalue_sum,
                    "bound": cert.bound,
                },
                args.out,
            )
        return 0
    raise InvalidInputError(f"unknown op {args.op!r}")  # pragma: no cover


def _load_path(spec: str) -> pathsim.MatrixPath:
    if ":" not in spec:
        raise InvalidInputError("path spec must look like kind:file.json")
    kind, path = spec.split(":", 1)
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if kind in ("linear", "poly"):
        base = read_field(obj, "base", matrix_from_json, f"{kind} path JSON")
        coeffs = read_field(obj, "coeffs", matrices_from_json, f"{kind} path JSON")
        if kind == "linear" and len(coeffs) != 1:
            raise InvalidInputError("linear path spec must carry exactly one coefficient")
        return pathsim.MatrixPath.polynomial(base, coeffs)
    if kind == "goodpath":
        return pathsim.MatrixPath.from_good_path(goodpath.GoodPath.from_json(obj))
    if kind == "samples":
        what = "sample JSON"
        pairs = [
            (read_field(s, "t", float, what), read_field(s, "matrix", matrix_from_json, what))
            for s in read_field(obj, "samples", list, "samples path JSON")
        ]
        return pathsim.MatrixPath.from_samples(pairs)
    raise InvalidInputError(f"unknown path kind {kind!r}")


def _parse_grid(spec: str) -> np.ndarray:
    parts = spec.split(":")
    if len(parts) != 3:
        raise InvalidInputError("grid spec must look like tmin:tmax:count")
    fields = dict(zip(("tmin", "tmax", "count"), parts))
    t1, t2 = (read_field(fields, key, float, "grid spec") for key in ("tmin", "tmax"))
    count = read_field(fields, "count", int, "grid spec")
    return pathsim.log_grid(t_max=max(t1, t2), t_min=min(t1, t2), count=count)


def _cmd_simulate(args) -> int:
    path = _load_path(args.path)
    a = load_matrix(args.A)
    phi = _load_modifier(args.phi, a.shape[0])
    grid = _parse_grid(args.grid) if args.grid else None
    report = pathsim.simulate(path, a, phi, grid=grid)
    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "norm"])
            for t, v in zip(report.t_values, report.norms):
                writer.writerow([repr(float(t)), repr(float(v))])
    _emit(report.to_json(), args.out)
    return 0


def _cmd_suite(args) -> int:
    config = json.loads(args.config) if args.config else None
    report = suites.run_suite(args.id, args.seed, config)
    for case in sorted(report.cases, key=lambda c: c.name):
        print(case.line(), file=sys.stderr)
    status = "pass" if report.passed else "FAIL"
    print(f"suite {report.suite_id}: {status} ({report.wall_time:.2f}s)", file=sys.stderr)
    _emit(report.to_json(), args.out)
    if report.passed:
        return 0
    return 10 + suites.SUITE_IDS.index(report.suite_id)


# ---------------------------------------------------------------------------
# conversion between the matrix JSON schema and CSV

def _matrix_to_csv(m: np.ndarray, path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for row in m:
            writer.writerow([repr(complex(z)) for z in row])


def _matrix_from_csv(path: str) -> np.ndarray:
    rows: list[list[complex]] = []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row:
                continue
            parsed = []
            for col, cell in enumerate(row, start=1):
                try:
                    parsed.append(complex(cell.strip()))
                except ValueError as exc:
                    raise InvalidInputError(
                        f"CSV parse error at line {lineno}, column {col}: {cell!r}"
                    ) from exc
            rows.append(parsed)
    if not rows:
        raise InvalidInputError("CSV file contains no matrix rows")
    width = len(rows[0])
    for lineno, r in enumerate(rows, start=1):
        if len(r) != width:
            raise InvalidInputError(f"CSV row {lineno} has {len(r)} cells, expected {width}")
    return np.array(rows, dtype=np.complex128)


def convert(src: str, dst: str, to: str | None = None) -> None:
    """Lossless matrix conversion between the JSON schema and CSV.

    The direction is inferred from the destination extension unless ``to``
    names the target format explicitly.  Round trips reproduce every entry
    exactly (decimal shortest-repr text).
    """
    target = (to or dst.rsplit(".", 1)[-1]).lower()
    if target == "csv":
        try:
            m = load_matrix(src)
        except json.JSONDecodeError as exc:
            raise InvalidInputError(
                f"JSON parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
        _matrix_to_csv(m, dst)
    elif target == "json":
        m = _matrix_from_csv(src)
        with open(dst, "w", encoding="utf-8") as fh:
            json.dump(matrix_to_json(m), fh)
    else:
        raise InvalidInputError(f"unknown conversion target {target!r} (use json or csv)")


def _cmd_convert(args) -> int:
    convert(args.infile, args.outfile, args.to)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conjlim",
        description="Boundedness of matrix conjugation orbits near singular base points.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("criteria", help="invariance-algebra membership and bases")
    p.add_argument("--op", required=True, choices=["sker", "sim", "sc", "sc-dual", "dim", "basis"])
    p.add_argument("--Z", help="base matrix JSON file")
    p.add_argument("--A", help="test matrix JSON file")
    p.add_argument("--C", help="companion matrix JSON file")
    p.add_argument("--n", type=int, help="ambient dimension (op dim)")
    p.add_argument("--m", type=int, help="rank (op dim)")
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=_cmd_criteria)

    p = sub.add_parser("goodpath", help="construct a simple-pole path to a base matrix")
    p.add_argument("--Z", required=True)
    p.add_argument("--order", type=int, default=8)
    p.add_argument("--out", help="write the path JSON here instead of stdout")
    p.set_defaults(func=_cmd_goodpath)

    p = sub.add_parser("modifier", help="modifier membership, faithfulness, certificates")
    p.add_argument(
        "--op",
        required=True,
        choices=["member", "member-dual", "faithful", "gershgorin", "jbound"],
    )
    p.add_argument("--phi", default="id", help="id | J | hadamard:FILE | general:FILE")
    p.add_argument("--Z")
    p.add_argument("--A")
    p.add_argument("--dim", type=int, help="modifier dimension (op faithful)")
    p.add_argument("--seed", type=int, help="seed (required for randomized ops)")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_modifier)

    p = sub.add_parser("simulate", help="sample conjugation norms along a path")
    p.add_argument("--path", required=True, help="{linear|poly|goodpath|samples}:FILE")
    p.add_argument("--A", required=True)
    p.add_argument("--phi", default="id")
    p.add_argument("--grid", help="tmin:tmax:count (default 1e-6:1e-1:26)")
    p.add_argument("--csv", help="also write a (t, norm) CSV table here")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("suite", help="run a named verification suite")
    p.add_argument("--id", required=True, help=f"one of: {', '.join(suites.SUITE_IDS)}")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--config", help="JSON object overriding suite parameters")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_suite)

    p = sub.add_parser("convert", help="convert matrices between JSON and CSV")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.add_argument("--to", choices=["json", "csv"], help="override target format")
    p.set_defaults(func=_cmd_convert)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:
        print(
            f"error: JSON parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
        return 2
    except ConjlimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
