"""Realizability of cones in metric spaces through their Gramian.

A cone with no lightlike facet hyperplane has a canonical set of unit
outward normals, and the matrix of pairwise form values of those
normals (the Gramian, whose entries are cosines of dihedral angles)
determines the cone up to orthogonal transformations of the form.  This
module verifies the determinant and rank conditions a candidate Gramian
must satisfy for a given relation, and constructs an explicit cone from
a passing candidate: factor G = H* Phi H, then recover each generator
as the Hodge star of the normals of a cycle at its vertex, all cycles
taken with one orientation.  Specialized condition sets cover the
spherical (positive definite form) and hyperbolic (Lorentzian form,
ideal vertices allowed) cases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    LightlikeNormalError,
    PatternViolationError,
)
from .incidence import (
    REASON_DIAMOND,
    REASON_FLAG_CONNECTIVITY,
    REASON_NOT_GRADED,
    REASON_RANK,
    IncidenceRelation,
    MaxbicliqueLattice,
    _facet_element_index,
    build_maxbiclique_lattice,
    check_filled_incidence,
    cycles_at_vertex,
    enumerate_super_cycles,
    enumerate_super_cycles_per_vertex,
    flag_graph_bipartition,
    lattice_gate,
)
from .numkernel import (
    DEFAULT_RANK_TOL,
    BilinearForm,
    as_matrix,
    compact_svd,
    factor_against_form,
    hodge_star,
    numeric_rank,
    signature,
    sqrt_psd,
)
from .realize import FilledIncidenceMatrix

DEFAULT_DET_ZERO_TOL = 1e-8
DEFAULT_PAIR_CAP = 100_000
DEFAULT_SAMPLE_SIZE = 10_000
DIAG_TOL = 1e-7


@dataclass(frozen=True, eq=False)
class GramianCandidate:
    """A symmetric matrix proposed as the Gramian of a type-R cone."""

    G: np.ndarray
    form: BilinearForm
    relation: IncidenceRelation
    d: int

    def __post_init__(self):
        G = as_matrix(self.G, "gramian")
        if G.shape[0] != G.shape[1] or G.shape[0] != self.relation.n_facets:
            raise ValueError(
                f"gramian shape {G.shape} does not match {self.relation.n_facets} facets"
            )
        if np.abs(G - G.T).max() > DIAG_TOL:
            raise ValueError("gramian is not symmetric")
        if np.abs(np.abs(np.diag(G)) - 1.0).max() > DIAG_TOL:
            raise ValueError("gramian diagonals must be +1 or -1")
        object.__setattr__(self, "G", 0.5 * (G + G.T))


@dataclass(frozen=True, eq=False)
class ConeRealization:
    """Unit outward normals H, generators W, and facet-ray matrix N = (Phi H)* W."""

    H: np.ndarray
    W: np.ndarray
    N: FilledIncidenceMatrix
    form: BilinearForm
    relation: IncidenceRelation
    d: int


@dataclass(frozen=True)
class ConditionCheck:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ConditionReport:
    passed: bool
    checks: tuple

    def check(self, name: str) -> ConditionCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "conditions": {c.name: c.passed for c in self.checks},
            "details": {c.name: c.detail for c in self.checks if c.detail},
        }


_LATTICE_DETAILS = {
    REASON_NOT_GRADED: "lattice is not graded",
    REASON_DIAMOND: "diamond condition fails",
    REASON_FLAG_CONNECTIVITY: "flag graph is disconnected",
}


def _minor_scale(minor: np.ndarray) -> float:
    """Hadamard-style scale for determinant zero tests."""
    norms = np.linalg.norm(minor, axis=1)
    prod = float(np.prod(np.maximum(norms, 1e-30)))
    return max(prod, 1.0)


def _unit_diagonal(G) -> ConditionCheck:
    return ConditionCheck("diagonal", bool(np.abs(np.diag(G) - 1.0).max() <= DIAG_TOL))


def _vertex_rank_condition(G, rel, d, rank_tol, ideal=frozenset()):
    """Principal minors over the facets at each vertex must have rank d.

    Ideal vertices of hyperbolic polytopes are the exception: their ray
    is lightlike, the form restricted to its orthogonal complement has a
    one-dimensional radical, and the minor rank drops to exactly d-1.
    """
    failures = []
    for j in range(1, rel.n_vertices + 1):
        rows = sorted(i - 1 for i in rel.facets_of_vertex(j))
        r = numeric_rank(G[np.ix_(rows, rows)], rank_tol)
        expected = d - 1 if j in ideal else d
        if r != expected:
            failures.append(f"vertex {j}: rank {r}, expected {expected}")
    return ConditionCheck(
        "vertex-minor-rank",
        not failures,
        "; ".join(failures[:5]),
    )


def _same_orientation_pairs(super_cycles, pair_cap, sample_size, seed):
    """Unordered index pairs (including diagonal) within each orientation class.

    Exhaustive below the cap; above it, a seeded sample plus every pair
    sharing a vertex.  Returns (pairs, exhaustive_flag)."""
    by_class = {0: [], 1: []}
    for idx, sc in enumerate(super_cycles):
        by_class[sc.orientation].append(idx)
    total = sum(len(v) * (len(v) + 1) // 2 for v in by_class.values())
    if total <= pair_cap:
        pairs = []
        for members in by_class.values():
            for a in range(len(members)):
                for b in range(a, len(members)):
                    pairs.append((members[a], members[b]))
        return pairs, True
    rng = np.random.default_rng(seed)
    chosen = set()
    for members in by_class.values():
        members_by_vertex = {}
        for idx in members:
            members_by_vertex.setdefault(super_cycles[idx].vertex, []).append(idx)
        for verts in members_by_vertex.values():
            for a in range(len(verts)):
                for b in range(a, len(verts)):
                    chosen.add((verts[a], verts[b]))
        if len(members) > 1:
            draws = rng.integers(0, len(members), size=(sample_size, 2))
            for a, b in draws:
                x, y = members[min(a, b)], members[max(a, b)]
                chosen.add((x, y))
    return sorted(chosen), False


def _super_cycle_condition(G, super_cycles, det_factor, name, pairs, exhaustive, ztol):
    """Dets of paired super-cycle minors, multiplied by det_factor, must be positive."""
    failures = []
    for a, b in pairs:
        rows = [i - 1 for i in super_cycles[a].facet_sequence]
        cols = [i - 1 for i in super_cycles[b].facet_sequence]
        minor = G[np.ix_(rows, cols)]
        value = det_factor * np.linalg.det(minor)
        if value <= ztol * _minor_scale(minor):
            failures.append(
                f"cycles {super_cycles[a].facet_sequence} x "
                f"{super_cycles[b].facet_sequence}: det*sign = {value:.3g}"
            )
            if len(failures) >= 5:
                break
    mode = "exhaustive" if exhaustive else "sampled"
    detail = f"{mode}, {len(pairs)} pairs" + ("; " + "; ".join(failures) if failures else "")
    return ConditionCheck(name, not failures, detail)


def _verify(rel, G, d, form_checks, det_factor, *, rank_tol, det_zero_tol, pair_cap,
            sample_size, seed, flag_cap, ideal=frozenset()):
    """The check sequence every Gramian verifier shares.

    Runs the lattice gate, the flag bipartition, ``form_checks()`` (the
    checks particular to the form), vertex minor ranks, then positivity
    of det(minor) * det_factor over same-orientation super-cycle pairs.
    Returns (checks, cycles): cycles is (lattice, super cycles, pairs,
    exhaustive) for a caller adding checks of its own, or None when the
    gate failed and ``checks`` holds only the failed lattice check.
    """
    lat, d, reason = lattice_gate(rel, d)
    if reason is not None:
        if reason == REASON_RANK:
            detail = f"lattice rank {lat.rank}, expected {d + 1}"
        else:
            detail = _LATTICE_DETAILS[reason]
        return [ConditionCheck("lattice", False, detail)], None
    coloring = flag_graph_bipartition(lat, flag_cap)
    checks = [ConditionCheck("lattice", True), *form_checks()]
    checks.append(_vertex_rank_condition(G, rel, d, rank_tol, ideal))
    super_cycles = enumerate_super_cycles(lat, coloring)
    pairs, exhaustive = _same_orientation_pairs(super_cycles, pair_cap, sample_size, seed)
    checks.append(
        _super_cycle_condition(
            G, super_cycles, det_factor, "super-cycle-pairs", pairs, exhaustive, det_zero_tol
        )
    )
    return checks, (lat, super_cycles, pairs, exhaustive)


def _report(checks) -> ConditionReport:
    return ConditionReport(all(c.passed for c in checks), tuple(checks))


def verify_gramian_conditions(
    cand: GramianCandidate,
    *,
    rank_tol: float = DEFAULT_RANK_TOL,
    det_zero_tol: float = DEFAULT_DET_ZERO_TOL,
    pair_cap: int = DEFAULT_PAIR_CAP,
    sample_size: int = DEFAULT_SAMPLE_SIZE,
    seed: int = 0,
    flag_cap: int = 10**6,
) -> ConditionReport:
    """Check whether the candidate can be the Gramian of a type-R cone.

    Conditions: the lattice preamble, signature of G matching the form
    (with n - d - 1 zeros), diagonals +-1, every vertex's principal
    minor of rank d, and positivity of det(minor) * sign(det Phi) for
    same-orientation super-cycle pairs.  Pair enumeration is exhaustive
    below pair_cap, otherwise sampled (disclosed in the report detail).
    """
    G = cand.G
    rel = cand.relation

    def form_checks():
        p, q = cand.form.signature
        sig = signature(G, rank_tol)
        expected = (p, q, rel.n_facets - cand.form.size)
        return [
            ConditionCheck("signature", sig == expected, f"signature {sig}, expected {expected}"),
            ConditionCheck("diagonal", bool(np.abs(np.abs(np.diag(G)) - 1.0).max() <= DIAG_TOL)),
        ]

    checks, _ = _verify(
        rel, G, cand.d, form_checks, cand.form.det_sign(), rank_tol=rank_tol,
        det_zero_tol=det_zero_tol, pair_cap=pair_cap, sample_size=sample_size,
        seed=seed, flag_cap=flag_cap,
    )
    return _report(checks)


def realize_cone_from_gramian(
    cand: GramianCandidate,
    *,
    rank_tol: float = DEFAULT_RANK_TOL,
    eq_tol: float = None,
    slack_tol: float = 1e-9,
    orientation: int = 0,
) -> ConeRealization:
    """Construct a cone whose Gramian is the candidate.

    Factors G = H* Phi H, picks one cycle per vertex (all of the chosen
    orientation) and sets the generator w_j to the Hodge star of the
    cycle's normals; N = (Phi H)* W then vanishes exactly on incident
    pairs.  If the first nonzero entry of N is positive the sign of W is
    flipped so all nonzero entries are negative.  A final fill-0 pattern
    and rank check backstops sampled condition verification; its failure
    raises PatternViolationError rather than returning a wrong cone.
    """
    rel = cand.relation
    H = factor_against_form(cand.G, cand.form, rank_tol)
    lat = build_maxbiclique_lattice(rel)
    cycles = enumerate_super_cycles_per_vertex(lat, rel, orientation=orientation)
    r = cand.form.size
    W = np.zeros((r, rel.n_vertices))
    for j in range(1, rel.n_vertices + 1):
        cycle = cycles[j].facet_sequence[:-1]
        W[:, j - 1] = hodge_star([H[:, i - 1] for i in cycle], cand.form)
    N = H.T @ cand.form.phi @ W
    flat = N.ravel()
    nonzero = flat[np.abs(flat) > 1e-12 * max(np.abs(flat).max(), 1e-300)]
    if nonzero.size and nonzero[0] > 0:
        W = -W
        N = -N
    scale = max(np.abs(N).max(), 1.0)
    if eq_tol is None:
        eq_tol = 1e-9 * scale
    report = check_filled_incidence(N, rel, 0.0, eq_tol=eq_tol, slack_tol=slack_tol)
    if not report.ok:
        raise PatternViolationError(
            f"constructed matrix violates the fill-0 pattern at "
            f"{len(report.violations)} entries; the candidate is not a valid Gramian",
            report.violations,
        )
    svd = compact_svd(N, rank_tol)
    if svd.rank != cand.d + 1:
        raise PatternViolationError(
            f"constructed matrix has rank {svd.rank}, expected {cand.d + 1}"
        )
    fim = FilledIncidenceMatrix(N, rel, 0.0, eq_tol, slack_tol)
    return ConeRealization(H, W, fim, cand.form, rel, cand.d)


def gramian_of_cone(H, form: BilinearForm, tol: float = 1e-9) -> np.ndarray:
    """Gramian of unit-normalized cogenerator columns: G = H* Phi H.

    Columns are rescaled to |phi(h, h)| = 1 first; lightlike columns
    (|phi(h, h)| below tol relative to the column norm) are rejected.
    """
    H = as_matrix(H, "H")
    phi = form.phi
    norms2 = np.einsum("ij,ik,kj->j", H, phi, H)
    col_scale = np.einsum("ij,ij->j", H, H)
    if np.any(np.abs(norms2) < tol * np.maximum(col_scale, 1e-300)):
        raise LightlikeNormalError("a cogenerator is lightlike for the form")
    Hn = H / np.sqrt(np.abs(norms2))
    G = Hn.T @ phi @ Hn
    return 0.5 * (G + G.T)


def verify_spherical_conditions(
    rel: IncidenceRelation,
    G,
    d: int,
    *,
    rank_tol: float = DEFAULT_RANK_TOL,
    det_zero_tol: float = DEFAULT_DET_ZERO_TOL,
    pair_cap: int = DEFAULT_PAIR_CAP,
    sample_size: int = DEFAULT_SAMPLE_SIZE,
    seed: int = 0,
    flag_cap: int = 10**6,
) -> ConditionReport:
    """Conditions for G to be the Gramian of a spherical d-polytope.

    G must be positive semi-definite of rank d+1 with unit diagonals,
    vertex minors of rank d, and positive determinants on
    same-orientation super-cycle pairs.
    """
    G = as_matrix(G, "gramian")

    def form_checks():
        w = np.linalg.eigvalsh(0.5 * (G + G.T))
        thr = rank_tol * max(np.abs(w).max(), 1e-300)
        r = int(np.count_nonzero(w > thr))
        return [
            ConditionCheck("psd", bool(w.min() >= -thr), f"min eigenvalue {w.min():.3g}"),
            ConditionCheck("rank", r == d + 1, f"rank {r}, expected {d + 1}"),
            _unit_diagonal(G),
        ]

    checks, _ = _verify(
        rel, G, d, form_checks, 1.0, rank_tol=rank_tol, det_zero_tol=det_zero_tol,
        pair_cap=pair_cap, sample_size=sample_size, seed=seed, flag_cap=flag_cap,
    )
    return _report(checks)


def _truncated_cycles(lat: MaxbicliqueLattice, d: int):
    """All (facet subset, meet element) pairs from proper cycle prefixes.

    A truncated cycle of length s (2 <= s <= d) is a prefix of a cycle:
    its partial meets descend one rank per step, ending at an element of
    rank d+1-s.  Only the facet set matters for principal minors, so
    sets are deduplicated.
    """
    rel = lat.relation
    seen = {}
    felem = {i: _facet_element_index(lat, i) for i in range(1, rel.n_facets + 1)}
    for j in range(1, rel.n_vertices + 1):
        for cycle in cycles_at_vertex(lat, j):
            current = None
            for t, i in enumerate(cycle):
                current = felem[i] if t == 0 else lat.meet(current, felem[i])
                s = t + 1
                if 2 <= s <= d:
                    seen.setdefault(frozenset(cycle[: t + 1]), current)
    return seen


def verify_hyperbolic_conditions(
    rel: IncidenceRelation,
    ideal_vertices,
    G,
    d: int,
    *,
    rank_tol: float = DEFAULT_RANK_TOL,
    det_zero_tol: float = DEFAULT_DET_ZERO_TOL,
    pair_cap: int = DEFAULT_PAIR_CAP,
    sample_size: int = DEFAULT_SAMPLE_SIZE,
    seed: int = 0,
    flag_cap: int = 10**6,
) -> ConditionReport:
    """Conditions for G to be the Gramian of a finite-volume hyperbolic polytope.

    Against the Lorentzian form diag(1, ..., 1, -1): unit diagonals;
    vertex minors of rank d; same-orientation super-cycle pair
    determinants negative; truncated-cycle principal minors zero at
    ideal vertices, positive at finite vertices and at all higher faces;
    and cross determinants of same-orientation cycles at different
    vertices positive.  The last condition uses the d x d minors over
    the cycle parts, which carry the pairwise form values of the
    generators; the full super-cycle minors already appear (negated) in
    the second condition.
    """
    G = as_matrix(G, "gramian")
    ideal = frozenset(int(v) for v in ideal_vertices)
    if not ideal <= set(range(1, rel.n_vertices + 1)):
        raise ValueError(f"ideal vertices {sorted(ideal)} out of range")
    checks, cycles = _verify(
        rel, G, d, lambda: [_unit_diagonal(G)], -1.0, rank_tol=rank_tol,
        det_zero_tol=det_zero_tol, pair_cap=pair_cap, sample_size=sample_size,
        seed=seed, flag_cap=flag_cap, ideal=ideal,
    )
    if cycles is None:
        return _report(checks)
    lat, super_cycles, pairs, exhaustive = cycles

    failures = []
    for facets, meet_el in _truncated_cycles(lat, d).items():
        rows = sorted(i - 1 for i in facets)
        minor = G[np.ix_(rows, rows)]
        det = float(np.linalg.det(minor))
        ztol = det_zero_tol * _minor_scale(minor)
        vset = lat.elements[meet_el].vertex_set
        is_ideal_vertex = len(vset) == 1 and vset[0] in ideal
        if is_ideal_vertex:
            if abs(det) > ztol:
                failures.append(
                    f"facets {tuple(sorted(facets))} at ideal vertex {vset[0]}: det {det:.3g}"
                )
        elif det <= ztol:
            failures.append(f"facets {tuple(sorted(facets))}: det {det:.3g}")
        if len(failures) >= 5:
            break
    checks.append(ConditionCheck("truncated-cycles", not failures, "; ".join(failures)))

    failures = []
    cross = [
        (a, b)
        for a, b in pairs
        if super_cycles[a].vertex != super_cycles[b].vertex
    ]
    for a, b in cross:
        rows = [i - 1 for i in super_cycles[a].facet_sequence[:-1]]
        cols = [i - 1 for i in super_cycles[b].facet_sequence[:-1]]
        minor = G[np.ix_(rows, cols)]
        det = float(np.linalg.det(minor))
        if det <= det_zero_tol * _minor_scale(minor):
            failures.append(
                f"cycles {super_cycles[a].facet_sequence[:-1]} x "
                f"{super_cycles[b].facet_sequence[:-1]}: det {det:.3g}"
            )
            if len(failures) >= 5:
                break
    mode = "exhaustive" if exhaustive else "sampled"
    checks.append(
        ConditionCheck(
            "distinct-vertex-pairs",
            not failures,
            f"{mode}, {len(cross)} pairs" + ("; " + "; ".join(failures) if failures else ""),
        )
    )
    return _report(checks)


def block_gramian(N) -> np.ndarray:
    """Joint Gramian of a cone's cogenerators and generators from its facet-ray matrix.

    Returns [[sqrt(N N*), N], [N*, sqrt(N* N)]], which equals
    [U; V] S [U* V*] for the compact SVD N = U S V*.  The diagonal
    blocks hold the cosines of the dihedral angles of the cone and of
    its polar.
    """
    N = as_matrix(N)
    n, m = N.shape
    top = sqrt_psd(N @ N.T)
    bottom = sqrt_psd(N.T @ N)
    out = np.empty((n + m, n + m))
    out[:n, :n] = top
    out[:n, n:] = N
    out[n:, :n] = N.T
    out[n:, n:] = bottom
    return out
