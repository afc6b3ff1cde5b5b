"""Command-line front end.

Commands: check | realize | verify | convert | gale | gramian-verify |
gramian-realize | spherical-verify | hyperbolic-verify.

Exit codes: 0 success or realized, 1 rejected or verification failure,
2 inconclusive, 3 input error.  Reports are deterministic for identical
inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .errors import (
    DegenerateRelationError,
    NoPositiveScalingError,
    PatternViolationError,
    PolyrealizeError,
    SignatureMismatchError,
)
from .gale import gale_dual_cone, gale_dual_polytope
from .gramian import (
    DEFAULT_DET_ZERO_TOL,
    GramianCandidate,
    gramian_of_cone,
    realize_cone_from_gramian,
    verify_gramian_conditions,
    verify_hyperbolic_conditions,
    verify_spherical_conditions,
)
from .incidence import (
    DEFAULT_EQ_TOL,
    DEFAULT_FLAG_CAP,
    DEFAULT_SLACK_TOL,
    REASON_ATOMS_COATOMS,
    REASON_DIAMOND,
    REASON_RANK,
    IncidenceRelation,
    check_filled_incidence,
    lattice_gate,
    load_relation,
)
from .numkernel import (
    DEFAULT_RANK_TOL,
    BilinearForm,
    numeric_rank,
    read_matrix_csv,
    write_matrix_csv,
)
from .realize import (
    FilledIncidenceMatrix,
    STATUS_INCONCLUSIVE,
    STATUS_REALIZED,
    cone_to_polytope_matrix,
    polytope_to_cone_matrix,
    realizability_check,
    realization_space_dimension,
)

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT = 3


def _positive(text: str) -> float:
    value = float(text)
    if not 0 < value < float("inf"):  # also false for NaN
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return value


def _margin(text: str) -> float:
    value = _positive(text)
    if value >= 1:
        raise argparse.ArgumentTypeError(f"must be below 1, got {text}")
    return value


def _sweeps(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text}")
    return value


def _require_d(args) -> None:
    if args.d is None:
        raise ValueError("this command needs --d")


def _emit(report: dict, args) -> None:
    if args.format == "json":
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    else:
        lines = []

        def walk(prefix, value):
            if isinstance(value, dict):
                for k in sorted(value):
                    walk(f"{prefix}{k}." if prefix else f"{k}.", value[k])
            else:
                lines.append(f"{prefix[:-1]}: {value}")

        walk("", report)
        text = "\n".join(lines) + "\n"
    sys.stdout.write(text)


def _lattice_report(rel: IncidenceRelation, d) -> tuple:
    """(report dict, all conditions hold) for the lattice gate.

    A condition reads true only when the gate verified it; the lattice
    rank condition appears only when d is given.
    """
    report = {
        "facets": rel.n_facets,
        "vertices": rel.n_vertices,
        "incidences": len(rel.incident),
    }
    try:
        lat, _, reason = lattice_gate(rel, d)
    except DegenerateRelationError as exc:
        report["conditions"] = {"nondegenerate": False}
        report["reason"] = str(exc)
        return report, False
    conditions = report["conditions"] = {"nondegenerate": True, "graded": lat.is_graded}
    report["lattice_size"] = len(lat)
    if lat.is_graded:
        report["lattice_rank"] = lat.rank
        report["rank_profile"] = list(lat.rank_profile())
        if d is not None:
            conditions["lattice_rank"] = reason != REASON_RANK
        conditions["diamond"] = reason not in (REASON_RANK, REASON_DIAMOND)
        conditions["flag_connected"] = reason in (None, REASON_ATOMS_COATOMS)
        conditions["atoms_coatoms"] = reason is None
    if reason is not None:
        report["reason"] = reason
    return report, reason is None


def cmd_check(args) -> int:
    rel = load_relation(args.relation)
    report, ok = _lattice_report(rel, args.d)
    _emit(report, args)
    return EXIT_OK if ok else EXIT_REJECTED


def cmd_realize(args) -> int:
    rel = load_relation(args.relation)
    try:
        verdict = realizability_check(
            rel,
            args.d,
            margin=args.margin,
            max_iters=args.iters,
            eq_tol=args.eq_tol,
            slack_tol=args.slack_tol,
            rank_tol=args.rank_tol,
        )
    except DegenerateRelationError as exc:
        _emit({"verdict": "rejected", "reason": f"degenerate: {exc}"}, args)
        return EXIT_REJECTED
    report = {
        "verdict": verdict.status,
        "d": verdict.d,
        "tolerances": {"rank_tol": args.rank_tol, "eq_tol": args.eq_tol,
                       "slack_tol": args.slack_tol},
    }
    if verdict.lattice is not None and verdict.lattice.is_graded:
        report["lattice"] = {
            "size": len(verdict.lattice),
            "rank": verdict.lattice.rank,
            "rank_profile": list(verdict.lattice.rank_profile()),
        }
    if verdict.status == STATUS_REALIZED:
        report["realization_space_dimension"] = realization_space_dimension(
            rel, verdict.d
        )
        report["solver"] = {
            "iterations": verdict.completion.iterations,
            "loss": verdict.best_residual,
        }
        recon = verdict.realization.H.T @ verdict.realization.W
        report["reconstruction_residual"] = float(
            np.abs(recon - verdict.matrix.matrix).max()
        )
        out_dir = args.out or "."
        os.makedirs(out_dir, exist_ok=True)
        write_matrix_csv(os.path.join(out_dir, "M.csv"), verdict.matrix.matrix)
        write_matrix_csv(os.path.join(out_dir, "W.csv"), verdict.realization.W)
        write_matrix_csv(os.path.join(out_dir, "H.csv"), verdict.realization.H)
        report["written"] = ["M.csv", "W.csv", "H.csv"]
        _emit(report, args)
        return EXIT_OK
    if verdict.status == STATUS_INCONCLUSIVE:
        report["best_residual"] = verdict.best_residual
        _emit(report, args)
        return EXIT_INCONCLUSIVE
    report["reason"] = verdict.reason
    _emit(report, args)
    return EXIT_REJECTED


def cmd_verify(args) -> int:
    _require_d(args)
    rel = load_relation(args.relation)
    M = read_matrix_csv(args.matrix)
    fill = args.fill
    expected_rank = args.d if fill == 1.0 else args.d + 1
    report = {"fill": fill, "d": args.d}
    pattern = check_filled_incidence(M, rel, fill, args.eq_tol, args.slack_tol)
    rank = numeric_rank(M, args.rank_tol)
    report["pattern_ok"] = pattern.ok
    report["rank"] = rank
    report["rank_ok"] = rank == expected_rank
    if not pattern.ok:
        report["violations"] = [
            {"facet": v.facet, "vertex": v.vertex, "value": v.value, "kind": v.kind}
            for v in pattern.violations[:20]
        ]
    _emit(report, args)
    return EXIT_OK if pattern.ok and rank == expected_rank else EXIT_REJECTED


def _infer_relation(M: np.ndarray, fill: float, eq_tol: float) -> IncidenceRelation:
    pairs = [
        (i + 1, j + 1)
        for i in range(M.shape[0])
        for j in range(M.shape[1])
        if abs(M[i, j] - fill) <= eq_tol
    ]
    return IncidenceRelation.from_pairs(M.shape[0], M.shape[1], pairs)


def cmd_convert(args) -> int:
    M = read_matrix_csv(args.matrix)
    source_fill = 1.0 if args.direction == "polytope-to-cone" else 0.0
    rel = _infer_relation(M, source_fill, args.eq_tol)
    try:
        fim = FilledIncidenceMatrix(M, rel, source_fill, args.eq_tol, args.slack_tol)
        if args.direction == "polytope-to-cone":
            result = polytope_to_cone_matrix(fim, args.rank_tol)
        else:
            result = cone_to_polytope_matrix(fim, args.rank_tol)
    except (PatternViolationError, NoPositiveScalingError) as exc:
        _emit({"error": str(exc)}, args)
        return EXIT_REJECTED
    out = args.out or "converted.csv"
    write_matrix_csv(out, result.matrix)
    _emit(
        {
            "direction": args.direction,
            "rank": numeric_rank(result.matrix, args.rank_tol),
            "written": out,
        },
        args,
    )
    return EXIT_OK


def cmd_gale(args) -> int:
    M = read_matrix_csv(args.matrix)
    dual = gale_dual_cone(M, args.rank_tol) if args.kind == "cone" \
        else gale_dual_polytope(M, args.rank_tol)
    out = args.out or "gale.csv"
    report = {
        "kind": args.kind,
        "generators": int(dual.r_vectors.shape[0]),
        "rank": dual.rank,
        "dual_dimension": int(dual.null_basis.shape[1]),
        "trivial": dual.trivial,
    }
    if dual.trivial:
        report["written"] = None
    else:
        write_matrix_csv(out, dual.coords)
        report["written"] = out
    _emit(report, args)
    return EXIT_OK


def _load_candidate(args) -> GramianCandidate:
    rel = load_relation(args.relation)
    G = read_matrix_csv(args.gramian)
    phi = read_matrix_csv(args.phi)
    form = BilinearForm.from_matrix(phi)
    return GramianCandidate(G, form, rel, args.d)


def cmd_gramian_verify(args) -> int:
    _require_d(args)
    try:
        cand = _load_candidate(args)
    except ValueError as exc:
        _emit({"passed": False, "error": str(exc)}, args)
        return EXIT_REJECTED
    report = verify_gramian_conditions(
        cand, rank_tol=args.rank_tol, det_zero_tol=args.det_zero_tol, flag_cap=args.flag_cap)
    _emit(report.as_dict(), args)
    return EXIT_OK if report.passed else EXIT_REJECTED


def cmd_gramian_realize(args) -> int:
    _require_d(args)
    try:
        cand = _load_candidate(args)
    except ValueError as exc:
        _emit({"passed": False, "error": str(exc)}, args)
        return EXIT_REJECTED
    report = verify_gramian_conditions(
        cand, rank_tol=args.rank_tol, det_zero_tol=args.det_zero_tol, flag_cap=args.flag_cap)
    if not report.passed:
        _emit(report.as_dict(), args)
        return EXIT_REJECTED
    try:
        cone = realize_cone_from_gramian(cand, rank_tol=args.rank_tol)
    except (PatternViolationError, SignatureMismatchError) as exc:
        _emit({"passed": False, "error": str(exc)}, args)
        return EXIT_REJECTED
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    write_matrix_csv(os.path.join(out_dir, "N.csv"), cone.N.matrix)
    write_matrix_csv(os.path.join(out_dir, "H.csv"), cone.H)
    write_matrix_csv(os.path.join(out_dir, "W.csv"), cone.W)
    payload = report.as_dict()
    payload["written"] = ["N.csv", "H.csv", "W.csv"]
    payload["gramian_residual"] = float(
        np.abs(gramian_of_cone(cone.H, cone.form) - cand.G).max()
    )
    _emit(payload, args)
    return EXIT_OK


def cmd_spherical_verify(args) -> int:
    _require_d(args)
    rel = load_relation(args.relation)
    G = read_matrix_csv(args.gramian)
    report = verify_spherical_conditions(
        rel, G, args.d, rank_tol=args.rank_tol, det_zero_tol=args.det_zero_tol, flag_cap=args.flag_cap)
    _emit(report.as_dict(), args)
    return EXIT_OK if report.passed else EXIT_REJECTED


def cmd_hyperbolic_verify(args) -> int:
    _require_d(args)
    rel = load_relation(args.relation)
    G = read_matrix_csv(args.gramian)
    ideal = [int(v) for v in args.ideal.split(",") if v.strip()] if args.ideal else []
    report = verify_hyperbolic_conditions(
        rel, ideal, G, args.d, rank_tol=args.rank_tol,
        det_zero_tol=args.det_zero_tol, flag_cap=args.flag_cap,
    )
    _emit(report.as_dict(), args)
    return EXIT_OK if report.passed else EXIT_REJECTED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyrealize",
        description="Decide and construct polytope and cone realizations "
        "from facet-vertex incidence relations.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    options = {
        "d": dict(type=int, help="target polytope dimension"),
        "rank-tol": dict(type=_positive, default=DEFAULT_RANK_TOL),
        "eq-tol": dict(type=_positive, default=DEFAULT_EQ_TOL),
        "slack-tol": dict(type=_positive, default=DEFAULT_SLACK_TOL),
        "det-zero-tol": dict(type=_positive, default=DEFAULT_DET_ZERO_TOL),
        "flag-cap": dict(type=int, default=DEFAULT_FLAG_CAP),
        "out": dict(help="output file or directory"),
        "margin": dict(type=_margin, default=0.1),
        "iters": dict(type=_sweeps, default=2000),
    }
    tols = ("rank-tol", "eq-tol", "slack-tol")
    gramian = ("d", "rank-tol", "det-zero-tol", "flag-cap")

    def flags(p, *names):
        """Register --format and the named options: those the command reads."""
        for name in names:
            p.add_argument(f"--{name}", dest=name.replace("-", "_"), **options[name])
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("check", help="run the combinatorial lattice conditions")
    p.add_argument("relation", help="relation JSON file")
    flags(p, "d")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("realize", help="search for a realization of a relation")
    p.add_argument("relation")
    flags(p, "d", *tols, "out", "margin", "iters")
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("verify", help="verify a matrix against a relation")
    p.add_argument("relation")
    p.add_argument("matrix", help="matrix CSV file")
    p.add_argument("--fill", type=float, choices=(0.0, 1.0), default=1.0,
                   help="1 for a polytope matrix (rank d), 0 for a cone matrix (rank d+1)")
    flags(p, "d", *tols)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("convert", help="convert between polytope and cone matrices")
    p.add_argument("matrix")
    p.add_argument("direction", choices=("polytope-to-cone", "cone-to-polytope"))
    flags(p, *tols, "out")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("gale", help="Gale dual of a cone or polytope matrix")
    p.add_argument("matrix")
    p.add_argument("kind", choices=("cone", "polytope"))
    flags(p, "rank-tol", "out")
    p.set_defaults(func=cmd_gale)

    p = sub.add_parser("gramian-verify", help="verify a Gramian candidate")
    p.add_argument("relation")
    p.add_argument("gramian")
    p.add_argument("phi", help="bilinear form CSV file")
    flags(p, *gramian)
    p.set_defaults(func=cmd_gramian_verify)

    p = sub.add_parser("gramian-realize", help="realize a cone from a Gramian")
    p.add_argument("relation")
    p.add_argument("gramian")
    p.add_argument("phi")
    flags(p, *gramian, "out")
    p.set_defaults(func=cmd_gramian_realize)

    p = sub.add_parser("spherical-verify", help="spherical Gramian conditions")
    p.add_argument("relation")
    p.add_argument("gramian")
    flags(p, *gramian)
    p.set_defaults(func=cmd_spherical_verify)

    p = sub.add_parser("hyperbolic-verify", help="hyperbolic Gramian conditions")
    p.add_argument("relation")
    p.add_argument("gramian")
    p.add_argument("--ideal", default="", help="comma-separated ideal vertex indices")
    flags(p, *gramian)
    p.set_defaults(func=cmd_hyperbolic_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags; input errors are 3 here
        return EXIT_INPUT if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except PolyrealizeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
