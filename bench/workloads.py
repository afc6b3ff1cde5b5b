"""Ops of the three benchmark workloads, how to run them, and how to judge them.

An op is one corpus member's full sequence of public library calls.
``run`` executes it (under a tracer, which is ``spans.NULL`` with
tracing off) and returns (value, exception).  ``judge`` classifies the
result outside the timed region against the op's expected outcome:

- solved:   a definitive answer that re-verifies (realized with a
            certificate that checks out, rejected for the expected
            reason, Gramian conditions passed exhaustively);
- unsolved: an honest non-answer (inconclusive search, sampled check);
- failed:   an uncaught library exception;
- wrong:    an answer that contradicts the expected outcome.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

import corpus
from polyrealize import (
    BilinearForm,
    CompletionProblem,
    FilledIncidenceMatrix,
    GramianCandidate,
    IncidenceRelation,
    RealizabilityVerdict,
    build_maxbiclique_lattice,
    check_diamond,
    check_filled_incidence,
    check_flag_connected_local,
    cone_to_polytope_matrix,
    enumerate_super_cycles,
    flag_graph_bipartition,
    gale_dual_polytope,
    grunbaum_oracle,
    lattice_rank,
    polytope_to_cone_matrix,
    realizability_check,
    realize_cone_from_gramian,
    realize_from_matrix,
    verify_gramian_conditions,
    verify_hyperbolic_conditions,
    verify_spherical_conditions,
)
from polyrealize import complete as run_completion
from polyrealize.errors import PatternViolationError
from polyrealize.numkernel import DEFAULT_RANK_TOL, numeric_rank
from polyrealize.realize import (
    DEFAULT_EQ_TOL,
    DEFAULT_SLACK_TOL,
    REASON_DIAMOND,
    REASON_FLAG_CONNECTIVITY,
    REASON_NOT_GRADED,
    REASON_RANK,
    STATUS_INCONCLUSIVE,
    STATUS_REALIZED,
    STATUS_REJECTED,
)
from spans import NULL

WORKLOADS = ("search", "check", "gramian")
ORACLE_CAP = 10
ROUND_TRIP_TOL = 1e-8

EXPECT_REALIZE = "realize"
EXPECT_PATTERN = "pattern-violation"
EXPECT_PASS = "pass"
EXPECT_FAIL = "fail"

# Outcomes other than "solved" recorded at the commit that defined the
# benchmark.  A listed exception counts as failed in the metrics but is
# not a benchmark failure; a fix that makes the op solved is welcome.
KNOWN = {
    "search/simplex-5": "inconclusive",
    "search/simplex-6": "inconclusive",
    "search/simplex-8": "inconclusive",
    "search/pyramid-eq_tol": "PatternViolationError",
    "search/pyramid-rank_tol": "RankMismatchError",
    "gramian/cube-4": "sampled",
}


@dataclass(eq=False)
class Op:
    name: str
    kind: str  # search | check | gramian | hyperbolic
    relation: IncidenceRelation
    d: int
    expect: str  # realize | reject:<reason> | pattern-violation | pass | fail
    M: np.ndarray = None
    G: np.ndarray = None
    ideal: tuple = ()
    tolerances: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)

    @property
    def known(self):
        return KNOWN.get(f"{self.kind}/{self.name}")

    def manifest(self) -> dict:
        entry = {
            "name": self.name,
            "kind": self.kind,
            "n_x_m": [self.relation.n_facets, self.relation.n_vertices],
            "d": self.d,
            "expect": self.expect,
        }
        entry.update(self.counts)
        if self.tolerances:
            entry["tolerances"] = self.tolerances
        if self.known:
            entry["known_at_seed_commit"] = self.known
        return entry


@dataclass(frozen=True)
class Outcome:
    status: str  # solved | unsolved | failed | wrong
    note: str = ""


# ---------------------------------------------------------------- corpus


def relation_of(p: corpus.Polytope) -> IncidenceRelation:
    return IncidenceRelation.from_pairs(p.H.shape[1], p.W.shape[1], p.pairs())


def _stream(seed: int, *key) -> np.random.Generator:
    """Independent generator per member, so adding one shifts no other."""
    return np.random.default_rng([seed, *key])


def _member(p, kind, expect=EXPECT_REALIZE, **extra) -> Op:
    return Op(p.name, kind, relation_of(p), p.d, expect, counts=corpus.face_counts(p), **extra)


def _hulls(seed, sizes, per_size, jitter, min_gap, prefix):
    return [
        corpus.sphere_hull(_stream(seed, nv, k), nv, jitter, min_gap, f"{prefix}{nv}-{k}")
        for nv in sizes
        for k in range(per_size)
    ]


def _negative_relations():
    """Two squares side by side, and the pyramid missing incidence (5, 1)."""
    square = relation_of(corpus.ngon(4))
    pairs = list(square.incident) + [(i + 4, j + 4) for i, j in square.incident]
    squares = IncidenceRelation.from_pairs(8, 8, pairs)
    pyr = relation_of(corpus.pyramid())
    minus = IncidenceRelation.from_pairs(5, 5, pyr.incident - {(5, 1)})
    return [
        ("squares-disjoint", squares, 2, REASON_FLAG_CONNECTIVITY),
        ("pyramid-minus", minus, 3, REASON_DIAMOND),
    ]


def search_ops(seed: int) -> list:
    polys = (
        [corpus.simplex(d) for d in range(2, 9)]
        + [corpus.cube(d) for d in range(2, 5)]
        + [corpus.cross(d) for d in range(2, 5)]
        + [corpus.ngon(n) for n in range(3, 11)]
        + [corpus.prism(), corpus.pyramid()]
        + _hulls(seed, (6, 7), 4, 0.1, 0.05, "hull")
    )
    ops = [_member(p, "search") for p in polys]
    for name, rel, d, reason in _negative_relations():
        ops.append(Op(name, "search", rel, d, "reject:" + reason))
    pyr = corpus.pyramid()
    for tol, value in (("eq_tol", 1e-20), ("rank_tol", 1e-17)):
        ops.append(Op(f"pyramid-{tol}", "search", relation_of(pyr), 3, EXPECT_REALIZE,
                      tolerances={tol: value}, counts=corpus.face_counts(pyr)))
    return ops


def check_ops(seed: int) -> list:
    polys = (
        [corpus.simplex(d) for d in range(3, 10)]
        + [corpus.cube(d) for d in range(3, 8)]
        + [corpus.cross(d) for d in range(3, 7)]
        + [corpus.ngon(n) for n in (16, 64, 256)]
        + [corpus.prism(), corpus.pyramid()]
        + _hulls(seed, (20, 30, 40, 50, 60), 1, 0.0, 1e-3, "hull")
    )
    ops = [_member(p, "check", M=p.M) for p in polys]
    # perturbed matrices of fixed members, the seed picks the entry: two
    # moved incident entries, two non-incident entries pushed past the fill
    by_name = {op.name: op for op in ops}
    for k, base in enumerate(by_name[n] for n in ("simplex-4", "cube-3", "cross-3", "prism")):
        rng = _stream(seed, 1000 + k)
        M = base.M.copy()
        on = np.abs(M - 1.0) < corpus.ON_TOL
        cells = np.argwhere(on if k < 2 else ~on)
        i, j = cells[int(rng.integers(len(cells)))]
        if k < 2:
            M[i, j] += rng.choice([-1.0, 1.0]) * rng.uniform(0.01, 0.5)
        else:
            M[i, j] = 1.0 + rng.uniform(0.01, 0.5)
        ops.append(Op(f"perturbed-{base.name}", "check", base.relation, base.d,
                      EXPECT_PATTERN, M=M))
    for name, rel, d, reason in _negative_relations():
        ops.append(Op(name, "check", rel, d, "reject:" + reason))
    return ops


def gramian_ops(seed: int) -> list:
    polys = (
        [corpus.simplex(d) for d in range(2, 5)]
        + [corpus.cube(3), corpus.cube(4), corpus.cross(3)]
        + [corpus.ngon(8), corpus.ngon(16), corpus.prism(), corpus.pyramid()]
        + _hulls(seed, (6,), 2, 0.1, 0.05, "hull")
    )
    ops = [_member(p, "gramian", EXPECT_PASS, G=corpus.gramian_of(p)) for p in polys]
    # perturbed Gramians of fixed non-simplex members (a simplex Gramian
    # stays valid under small changes); the seed picks the entry
    by_name = {op.name: op for op in ops}
    for k, base in enumerate(by_name[n] for n in ("pyramid", "prism", "cube-3", "gon-8")):
        rng = _stream(seed, 2000 + k)
        i, j = sorted(rng.choice(base.G.shape[0], size=2, replace=False))
        G = base.G.copy()
        G[i, j] = G[j, i] = G[i, j] + rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 0.3)
        ops.append(Op(f"perturbed-{base.name}", "gramian", base.relation, base.d,
                      EXPECT_FAIL, G=G))
    tri = relation_of(corpus.ngon(3))
    c = -np.cos(np.pi / 4)
    phi = (1 + np.sqrt(5)) / 2
    pentagon = np.eye(5)
    for i in range(5):
        for j in range(5):
            if i != j and abs(i - j) % 5 not in (1, 4):
                pentagon[i, j] = -phi
    ops += [
        Op("h-ideal-triangle", "hyperbolic", tri, 2, EXPECT_PASS,
           G=np.array([[1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]),
           ideal=(1, 2, 3)),
        Op("h-right-angled-pentagon", "hyperbolic", relation_of(corpus.ngon(5)), 2,
           EXPECT_PASS, G=pentagon),
        Op("h-compact-triangle", "hyperbolic", tri, 2, EXPECT_PASS,
           G=np.array([[1.0, c, c], [c, 1.0, c], [c, c, 1.0]])),
    ]
    return ops


BUILDERS = {"search": search_ops, "check": check_ops, "gramian": gramian_ops}


# ---------------------------------------------------------------- running


def gate(lat, d=None):
    """The lattice conditions of realizability_check, as (d, failed reason)."""
    rank = lattice_rank(lat)
    if rank is None:
        return d, REASON_NOT_GRADED
    if d is None:
        d = rank - 1
    if rank != d + 1:
        return d, REASON_RANK
    if not check_diamond(lat):
        return d, REASON_DIAMOND
    if not check_flag_connected_local(lat):
        return d, REASON_FLAG_CONNECTIVITY
    return d, None


def _traced_search(op, tr):
    """realizability_check spelled out as its public calls, one span each."""
    rel = op.relation
    tol = {"eq_tol": DEFAULT_EQ_TOL, "slack_tol": DEFAULT_SLACK_TOL,
           "rank_tol": DEFAULT_RANK_TOL, **op.tolerances}
    with tr.span("incidence.gate_checks"):
        rel.require_nondegenerate()
    with tr.span("incidence.lattice"):
        lat = build_maxbiclique_lattice(rel)
    tr.count("incidence.lattice_elements", len(lat))
    with tr.span("incidence.gate_checks"):
        d, reason = gate(lat)
    if reason is not None:
        return RealizabilityVerdict(STATUS_REJECTED, d if d is not None else -1,
                                    reason=reason, lattice=lat)
    with tr.span("complete.search"):
        result = run_completion(CompletionProblem(rel, d))
    tr.count("complete.searches")
    tr.count("complete.restarts", result.restart_index + 1)
    if result.matrix is None:
        return RealizabilityVerdict(STATUS_INCONCLUSIVE, d, best_residual=result.best_residual,
                                    completion=result, lattice=lat)
    tr.count("complete.found")
    with tr.span("realize.certificate"):
        fim = FilledIncidenceMatrix(result.matrix, rel, 1.0, tol["eq_tol"], tol["slack_tol"])
    tr.count("realize.pattern_entries", fim.matrix.size)
    with tr.span("realize.certificate"):
        real = realize_from_matrix(fim, d, tol["rank_tol"])
    return RealizabilityVerdict(STATUS_REALIZED, d, realization=real, matrix=fim,
                                best_residual=result.best_residual, completion=result,
                                lattice=lat)


def _run_check(op, tr):
    rel = op.relation
    out = {"lattice": None}
    with tr.span("incidence.gate_checks"):
        rel.require_nondegenerate()
    with tr.span("incidence.lattice"):
        lat = out["lattice"] = build_maxbiclique_lattice(rel)
    tr.count("incidence.lattice_elements", len(lat))
    with tr.span("incidence.gate_checks"):
        out["d"], out["reason"] = gate(lat)
    if out["reason"] is not None:
        return out
    d = out["d"]
    with tr.span("realize.certificate"):
        fim = FilledIncidenceMatrix(op.M, rel, 1.0)
    tr.count("realize.pattern_entries", fim.matrix.size)
    with tr.span("numkernel.rank"):
        out["rank"] = numeric_rank(fim.matrix)
    with tr.span("realize.certificate"):
        out["realization"] = realize_from_matrix(fim, d)
    with tr.span("realize.convert"):
        out["cone"] = polytope_to_cone_matrix(fim)
        out["back"] = cone_to_polytope_matrix(out["cone"])
    tr.count("realize.pattern_entries", 2 * fim.matrix.size)
    with tr.span("gale.dual"):
        out["gale"] = gale_dual_polytope(fim.matrix)
    if rel.n_vertices <= ORACLE_CAP:
        with tr.span("realize.oracle"):
            out["oracle"] = grunbaum_oracle(out["realization"].W, lat)
    return out


_PAIRS = re.compile(r"^(exhaustive|sampled), (\d+) pairs")


def _count_pairs(report, tr):
    for c in report.checks:
        hit = _PAIRS.match(c.detail)
        if hit:
            tr.count("gramian.pairs", int(hit.group(2)))
            tr.count("gramian.sampled_checks", int(hit.group(1) == "sampled"))


def _run_gramian(op, tr):
    rel = op.relation
    out = {}
    if op.kind == "hyperbolic":
        with tr.span("gramian.hyperbolic"):
            out["hyperbolic"] = verify_hyperbolic_conditions(rel, op.ideal, op.G, op.d)
        _count_pairs(out["hyperbolic"], tr)
        return out
    with tr.span("gramian.verify"):
        cand = GramianCandidate(op.G, BilinearForm.euclidean(op.d + 1), rel, op.d)
        out["verify"] = verify_gramian_conditions(cand)
    _count_pairs(out["verify"], tr)
    if op.expect == EXPECT_PASS:
        with tr.span("gramian.realize_cone"):
            out["cone"] = realize_cone_from_gramian(cand)
    with tr.span("gramian.spherical"):
        out["spherical"] = verify_spherical_conditions(rel, op.G, op.d)
    _count_pairs(out["spherical"], tr)
    return out


PROBE_SPANS = ("incidence.lattice", "incidence.gate_checks", "incidence.flags",
               "incidence.super_cycles")


def probe(op, tr):
    """Re-run, on its own, the incidence work a Gramian verifier does inside."""
    with tr.span("incidence.lattice"):
        lat = build_maxbiclique_lattice(op.relation)
    tr.count("incidence.lattice_elements", len(lat))
    with tr.span("incidence.gate_checks"):
        gate(lat, op.d)
    with tr.span("incidence.flags"):
        coloring = flag_graph_bipartition(lat)
    with tr.span("incidence.super_cycles"):
        cycles = enumerate_super_cycles(lat, coloring)
    tr.count("incidence.flags", len(coloring))
    tr.count("incidence.super_cycles", len(cycles))


def run(op, tr=NULL):
    """Execute one op; returns (value, exception).  Catching everything here
    keeps the pass going; the exception is judged, never dropped."""
    try:
        if op.kind == "search":
            if tr is NULL:
                return realizability_check(op.relation, **op.tolerances), None
            return _traced_search(op, tr), None
        if op.kind == "check":
            return _run_check(op, tr), None
        return _run_gramian(op, tr), None
    except Exception as exc:
        return None, exc


def verify_calls(op) -> int:
    """Verifier calls per gramian op, each doing one probe's incidence work."""
    if op.kind == "hyperbolic":
        return 1
    return 2 if op.kind == "gramian" else 0


# ---------------------------------------------------------------- judging


def _certificate_problems(op, v) -> list:
    tol = {"eq_tol": DEFAULT_EQ_TOL, "slack_tol": DEFAULT_SLACK_TOL,
           "rank_tol": DEFAULT_RANK_TOL, **op.tolerances}
    M = v.matrix.matrix
    W, H = v.realization.W, v.realization.H
    problems = []
    if v.d != op.d:
        problems.append(f"d {v.d}, expected {op.d}")
    if not check_filled_incidence(M, op.relation, 1.0, tol["eq_tol"], tol["slack_tol"]).ok:
        problems.append("pattern does not re-verify")
    if numeric_rank(M, tol["rank_tol"]) != op.d:
        problems.append("numeric rank differs from d")
    if np.abs(H.T @ W - M).max() > 1e-9 * max(1.0, np.abs(M).max()):
        problems.append("H.T @ W differs from M")
    if op.relation.n_vertices <= ORACLE_CAP and not grunbaum_oracle(W, v.lattice):
        problems.append("Grunbaum oracle rejects the vertices")
    return problems


def _judge_search(op, v) -> Outcome:
    if op.expect.startswith("reject:"):
        want = op.expect.split(":", 1)[1]
        if v.status == STATUS_REJECTED and v.reason == want:
            return Outcome("solved")
        return Outcome("wrong", f"negative control gave {v.status} {v.reason or ''}".strip())
    if v.status == STATUS_REJECTED:
        return Outcome("wrong", f"polytope rejected: {v.reason}")
    if v.status == STATUS_INCONCLUSIVE:
        return Outcome("unsolved", f"inconclusive, residual {v.best_residual:.3g}")
    problems = _certificate_problems(op, v)
    return Outcome("wrong", "; ".join(problems)) if problems else Outcome("solved")


def _judge_check(op, out) -> Outcome:
    if op.expect == EXPECT_PATTERN:
        return Outcome("wrong", "perturbed matrix accepted")
    if op.expect.startswith("reject:"):
        want = op.expect.split(":", 1)[1]
        if out["reason"] == want:
            return Outcome("solved")
        return Outcome("wrong", f"negative control gave reason {out['reason']}")
    if out["reason"] is not None:
        return Outcome("wrong", f"polytope rejected: {out['reason']}")
    d, M = op.d, op.M
    problems = []
    if len(out["lattice"]) != op.counts["lattice"]:
        problems.append(f"|L| {len(out['lattice'])}, expected {op.counts['lattice']}")
    if out["d"] != d or out["rank"] != d:
        problems.append(f"d {out['d']} / rank {out['rank']}, expected {d}")
    real = out["realization"]
    if np.abs(real.H.T @ real.W - M).max() > 1e-9 * max(1.0, np.abs(M).max()):
        problems.append("H.T @ W differs from M")
    if numeric_rank(out["cone"].matrix) != d + 1 or numeric_rank(out["back"].matrix) != d:
        problems.append("conversion changed the rank")
    null = out["gale"].null_basis
    m = M.shape[1]
    if null.shape != (m, m - d - 1) or (
        null.size and np.abs((M - 1.0) @ null).max() > 1e-8 * max(1.0, np.abs(M - 1.0).max())
    ):
        problems.append("Gale null basis is wrong")
    if out.get("oracle") is False:
        problems.append("Grunbaum oracle rejects the vertices")
    return Outcome("wrong", "; ".join(problems)) if problems else Outcome("solved")


def _sampled(report) -> bool:
    return any(c.detail.startswith("sampled") for c in report.checks)


def _judge_gramian(op, out) -> Outcome:
    reports = [r for r in (out.get(k) for k in ("verify", "spherical", "hyperbolic")) if r]
    if op.expect == EXPECT_FAIL:
        if any(r.passed for r in reports):
            return Outcome("wrong", "perturbed Gramian passes")
        return Outcome("solved")
    if not all(r.passed for r in reports):
        return Outcome("wrong", "genuine Gramian fails its conditions")
    if "cone" in out:
        H = out["cone"].H / np.linalg.norm(out["cone"].H, axis=0)
        err = np.abs(H.T @ H - op.G).max()
        if err > ROUND_TRIP_TOL:
            return Outcome("wrong", f"Gramian round trip off by {err:.3g}")
    if any(_sampled(r) for r in reports):
        return Outcome("unsolved", "sampled super-cycle pairs")
    return Outcome("solved")


def judge(op, value, exc) -> Outcome:
    if exc is not None:
        if op.expect == EXPECT_PATTERN and isinstance(exc, PatternViolationError):
            return Outcome("solved")
        return Outcome("failed", f"{type(exc).__name__}: {exc}")
    if op.kind == "search":
        return _judge_search(op, value)
    if op.kind == "check":
        return _judge_check(op, value)
    return _judge_gramian(op, value)


def expected_failure(op, exc) -> bool:
    """An exception the KNOWN table lists for this op."""
    return exc is not None and op.known == type(exc).__name__


def result_key(op, value, exc):
    """What the traced run must reproduce exactly."""
    if exc is not None:
        return ("raised", type(exc).__name__, str(exc))
    if op.kind == "search":
        matrix = None if value.matrix is None else value.matrix.matrix.tobytes()
        return (value.status, value.d, value.reason, matrix)
    if op.kind == "check":
        return None
    return tuple((k, value[k].as_dict()) for k in ("verify", "spherical", "hyperbolic")
                 if k in value)
