"""Realizability of cones in metric spaces through their Gramian.

A cone with no lightlike facet hyperplane has a canonical set of unit
outward normals, and the matrix of pairwise form values of those
normals (the Gramian, whose entries are cosines of dihedral angles)
determines the cone up to orthogonal transformations of the form.  This
module verifies the determinant and rank conditions a candidate Gramian
must satisfy for a given relation, and constructs an explicit cone from
a passing candidate: factor G = H* Phi H, then recover each generator
as the line phi-orthogonal to the normals of the facets at its vertex.
Specialized condition sets cover the spherical (positive definite form)
and hyperbolic (Lorentzian form, ideal vertices allowed) cases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    LightlikeNormalError,
    NotBipartiteError,
    PatternViolationError,
)
from .incidence import (
    DEFAULT_FLAG_CAP,
    REASON_ATOMS_COATOMS,
    REASON_DIAMOND,
    REASON_FLAG_CONNECTIVITY,
    REASON_NOT_GRADED,
    REASON_RANK,
    IncidenceRelation,
    _cycle_table,
    _flag_classes,
    lattice_gate,
)
from .numkernel import (
    DEFAULT_RANK_TOL,
    BilinearForm,
    as_matrix,
    factor_against_form,
    numeric_rank,
    sqrt_psd,
)
from .realize import FilledIncidenceMatrix

DEFAULT_DET_ZERO_TOL = 1e-8
DIAG_TOL = 1e-7
_DET_CHUNK = 4096


@dataclass(frozen=True, eq=False)
class GramianCandidate:
    """A symmetric matrix proposed as the Gramian of a type-R cone."""

    G: np.ndarray
    form: BilinearForm
    relation: IncidenceRelation
    d: int

    def __post_init__(self):
        if self.form.size != self.d + 1:
            raise DimensionMismatchError(
                f"form size {self.form.size} does not match d + 1 = {self.d + 1}")
        G = _facet_gramian(self.G, self.relation)
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
    REASON_ATOMS_COATOMS: "a vertex is not an atom or a facet not a coatom of its own",
}


def _minor_dets(G, rows, cols) -> tuple:
    """Determinants and Hadamard-style scales of minors of G.

    ``rows`` and ``cols`` are (P, s) arrays of 0-based facet indices;
    minor k is G restricted to rows ``rows[k]`` and columns ``cols[k]``.
    Returns (dets, scales), one entry per minor; the scale is the product
    of the minor's row norms, at least 1, for zero tests.  Minors are
    gathered and factored _DET_CHUNK at a time.
    """
    dets = np.empty(len(rows))
    scales = np.empty(len(rows))
    for start in range(0, len(rows), _DET_CHUNK):
        at = slice(start, start + _DET_CHUNK)
        minors = G[rows[at][:, :, None], cols[at][:, None, :]]
        dets[at] = np.linalg.det(minors)
        norms = np.linalg.norm(minors, axis=2)
        scales[at] = np.maximum(np.prod(np.maximum(norms, 1e-30), axis=1), 1.0)
    return dets, scales


def _facet_gramian(G, rel) -> np.ndarray:
    """G as a matrix, which must be symmetric with one row per facet."""
    G = as_matrix(G, "gramian")
    if G.shape != (rel.n_facets, rel.n_facets):
        raise DimensionMismatchError(
            f"gramian shape {G.shape} does not match {rel.n_facets} facets")
    if np.abs(G - G.T).max() > DIAG_TOL:
        raise ValueError("gramian is not symmetric")
    return G


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
        r = numeric_rank(G[rows][:, rows], rank_tol)
        expected = d - 1 if j in ideal else d
        if r != expected:
            failures.append(f"vertex {j}: rank {r}, expected {expected}")
    return ConditionCheck(
        "vertex-minor-rank",
        not failures,
        "; ".join(failures[:5]),
    )


def _signature_check(w, thr, expected) -> ConditionCheck:
    """Counts of eigenvalues w above thr, below -thr and within, against expected."""
    p, q = int(np.count_nonzero(w > thr)), int(np.count_nonzero(w < -thr))
    sig = (p, q, len(w) - p - q)
    return ConditionCheck("signature", sig == expected, f"signature {sig}, expected {expected}")


def _pair_detail(count, failures) -> str:
    return f"exhaustive, {count} pairs" + ("; " + "; ".join(failures) if failures else "")


def _named(sequence) -> tuple:
    """A row of 0-based facet indices as the 1-based tuple reports print."""
    return tuple((sequence + 1).tolist())


def _super_cycle_condition(G, sequences, orientation, det_factor, ztol) -> ConditionCheck:
    """det G[a, b] * det_factor > 0 over same-orientation super-cycle pairs.

    Super cycles are rows of 0-based facet indices, with their classes.
    G has rank d+1, so G = H* Phi' H with H of d+1 rows and Phi' = +-1
    diagonal, and det G[a, b] = det H_a * det Phi' * det H_b.  Every pair
    of a class (a = b included) passes exactly when det G[a, a0] *
    det_factor > ztol * scale for each a, with a0 the class's cycle of
    largest |det G[a, a]| / scale.  The detail counts all 2K determinants.
    """
    refs = np.empty(len(sequences), dtype=int)
    for c in np.unique(orientation):
        members = np.flatnonzero(orientation == c)
        dets, scales = _minor_dets(G, sequences[members], sequences[members])
        refs[members] = members[np.argmax(np.abs(dets) / scales)]
    dets, scales = _minor_dets(G, sequences, sequences[refs])
    values = det_factor * dets
    failures = [
        f"cycles {_named(sequences[k])} x {_named(sequences[refs[k]])}: "
        f"det*sign = {values[k]:.3g}"
        for k in np.flatnonzero(values <= ztol * scales)[:5]
    ]
    return ConditionCheck("super-cycle-pairs", not failures,
                          _pair_detail(2 * len(sequences), failures))


def _verify(rel, G, d, form_checks, det_factor, *, rank_tol, det_zero_tol, flag_cap,
            ideal=frozenset()):
    """The check sequence every Gramian verifier shares.

    Runs the lattice gate, the flag classes, ``form_checks(w, thr)``
    (the checks particular to the form, given G's eigenvalues w and zero
    threshold thr), vertex minor ranks, then the super-cycle condition,
    left undecided and failed unless G has rank d+1.  A flag graph that
    is not bipartite fails the lattice check.  Returns (checks, cycles):
    cycles is (lattice, cycle table) for a caller adding checks of its
    own, or None when the lattice check failed.
    """
    lat, d, reason = lattice_gate(rel, d)
    if reason is not None:
        if reason == REASON_RANK:
            detail = f"lattice rank {lat.rank}, expected {d + 1}"
        else:
            detail = _LATTICE_DETAILS[reason]
        return [ConditionCheck("lattice", False, detail)], None
    try:
        flag_class = _flag_classes(lat, flag_cap)
    except NotBipartiteError:
        return [ConditionCheck("lattice", False, "flag graph is not bipartite")], None
    w = np.linalg.eigvalsh(0.5 * (G + G.T))
    thr = rank_tol * max(np.abs(w).max(), 1e-300)
    checks = [ConditionCheck("lattice", True), *form_checks(w, thr)]
    checks.append(_vertex_rank_condition(G, rel, d, rank_tol, ideal))
    table = _cycle_table(lat, flag_class)
    rank = int(np.count_nonzero(np.abs(w) > thr))
    if rank == d + 1:
        rows, extras = table.super_cycles(rel)
        sequences = np.column_stack([table.facets[rows] - 1, extras])
        checks.append(_super_cycle_condition(
            G, sequences, table.orientation[rows], det_factor, det_zero_tol))
    else:
        checks.append(ConditionCheck(
            "super-cycle-pairs", False, f"not decided: rank {rank}, expected {d + 1}"))
    return checks, (lat, table)


def _report(checks) -> ConditionReport:
    return ConditionReport(all(c.passed for c in checks), tuple(checks))


def verify_gramian_conditions(
    cand: GramianCandidate,
    *,
    rank_tol: float = DEFAULT_RANK_TOL,
    det_zero_tol: float = DEFAULT_DET_ZERO_TOL,
    flag_cap: int = DEFAULT_FLAG_CAP,
) -> ConditionReport:
    """Check whether the candidate can be the Gramian of a type-R cone.

    Conditions: the lattice preamble, signature of G matching the form
    (with n - d - 1 zeros), diagonals +-1, every vertex's principal
    minor of rank d, and positivity of det(minor) * sign(det Phi) for
    every same-orientation super-cycle pair, decided through one reference
    minor per super cycle; det_zero_tol bounds det H_a * det H_a0.
    """
    G = cand.G
    rel = cand.relation
    expected = (*cand.form.signature, rel.n_facets - cand.form.size)

    def form_checks(w, thr):
        return [
            _signature_check(w, thr, expected),
            ConditionCheck("diagonal", bool(np.abs(np.abs(np.diag(G)) - 1.0).max() <= DIAG_TOL)),
        ]

    checks, _ = _verify(rel, G, cand.d, form_checks, cand.form.det_sign(), rank_tol=rank_tol,
                        det_zero_tol=det_zero_tol, flag_cap=flag_cap)
    return _report(checks)


def realize_cone_from_gramian(
    cand: GramianCandidate,
    *,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> ConeRealization:
    """Construct a cone whose Gramian is the candidate.

    Factors G = H* Phi H and sets the generator w_j to the last right
    singular vector of (Phi H)[:, F_j]*, F_j the facets at vertex j: on
    a valid candidate their normals span d dimensions, so w_j spans the
    line phi-orthogonal to all of them and N = (Phi H)* W vanishes
    exactly on incident pairs.  Each w_j is signed so that column j of N
    sums negative.  A final fill-0 pattern and rank check guards against
    an unverified candidate; its failure raises PatternViolationError
    rather than returning a wrong cone.
    """
    rel = cand.relation
    H = factor_against_form(cand.G, cand.form, rank_tol)
    PH = cand.form.phi @ H
    W = np.column_stack([np.linalg.svd(PH[:, at].T)[2][-1] for at in rel.mask.T])
    N = PH.T @ W
    signs = np.where(N.sum(axis=0) > 0, -1.0, 1.0)
    W, N = W * signs, N * signs
    try:
        fim = FilledIncidenceMatrix(N, rel, 0.0, 1e-9 * max(np.abs(N).max(), 1.0), 1e-9)
    except PatternViolationError as exc:
        raise PatternViolationError(
            f"constructed matrix violates the fill-0 pattern at "
            f"{len(exc.violations)} entries; the candidate is not a valid Gramian",
            exc.violations,
        ) from None
    rank = numeric_rank(N, rank_tol)
    if rank != cand.d + 1:
        raise PatternViolationError(
            f"constructed matrix has rank {rank}, expected {cand.d + 1}"
        )
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
    flag_cap: int = DEFAULT_FLAG_CAP,
) -> ConditionReport:
    """Conditions for G to be the Gramian of a spherical d-polytope.

    G must be positive semi-definite of rank d+1 with unit diagonals,
    vertex minors of rank d, and positive determinants on every pair of
    same-orientation super cycles, decided as in verify_gramian_conditions.
    """
    G = _facet_gramian(G, rel)

    def form_checks(w, thr):
        r = int(np.count_nonzero(w > thr))
        return [
            ConditionCheck("psd", bool(w.min() >= -thr), f"min eigenvalue {w.min():.3g}"),
            ConditionCheck("rank", r == d + 1, f"rank {r}, expected {d + 1}"),
            _unit_diagonal(G),
        ]

    checks, _ = _verify(rel, G, d, form_checks, 1.0, rank_tol=rank_tol,
                        det_zero_tol=det_zero_tol, flag_cap=flag_cap)
    return _report(checks)


def _distinct_vertex_pairs(orientation, vertex):
    """(rows, cols) index arrays of the pairs a <= b of one orientation class
    at distinct vertices, in row-major order, in blocks of at most _DET_CHUNK."""
    for c in np.unique(orientation):
        members = np.flatnonzero(orientation == c)
        starts = np.concatenate([[0], np.cumsum(np.arange(len(members), 0, -1))])
        for first in range(0, starts[-1], _DET_CHUNK):
            t = np.arange(first, min(first + _DET_CHUNK, starts[-1]))
            row = np.searchsorted(starts, t, side="right") - 1
            a, b = members[row], members[row + t - starts[row]]
            keep = vertex[a] != vertex[b]
            yield a[keep], b[keep]


def verify_hyperbolic_conditions(
    rel: IncidenceRelation,
    ideal_vertices,
    G,
    d: int,
    *,
    rank_tol: float = DEFAULT_RANK_TOL,
    det_zero_tol: float = DEFAULT_DET_ZERO_TOL,
    flag_cap: int = DEFAULT_FLAG_CAP,
) -> ConditionReport:
    """Conditions for G to be the Gramian of a finite-volume hyperbolic polytope.

    Against the Lorentzian form diag(1, ..., 1, -1): signature (d, 1,
    n - d - 1); unit diagonals; vertex minors of rank d; same-orientation
    super-cycle pair determinants negative, decided as in
    verify_gramian_conditions; truncated-cycle principal minors zero at
    ideal vertices, positive at finite vertices and at all higher faces;
    and cross determinants of same-orientation cycles at different
    vertices positive.  The last condition uses the d x d minors over
    the cycle parts, which carry the pairwise form values of the
    generators; the full super-cycle minors already appear (negated) in
    the super-cycle condition.
    """
    G = _facet_gramian(G, rel)
    ideal = frozenset(int(v) for v in ideal_vertices)
    if not ideal <= set(range(1, rel.n_vertices + 1)):
        raise ValueError(f"ideal vertices {sorted(ideal)} out of range")
    expected = (d, 1, rel.n_facets - d - 1)
    checks, cycles = _verify(
        rel, G, d, lambda w, thr: [_signature_check(w, thr, expected), _unit_diagonal(G)],
        -1.0, rank_tol=rank_tol, det_zero_tol=det_zero_tol, flag_cap=flag_cap, ideal=ideal,
    )
    if cycles is None:
        return _report(checks)
    lat, table = cycles
    sequences = table.facets - 1

    # principal minors over the truncated cycles: the facet sets of the
    # cycle prefixes of length s = 2..d, each with its meet, failures in
    # the order the walk first reaches the set
    found = []
    for s in range(2, d + 1):
        facets, first = np.unique(np.sort(sequences[:, :s], axis=1), axis=0,
                                  return_index=True)
        dets, scales = _minor_dets(G, facets, facets)
        for k, row, det, ztol in zip(first.tolist(), facets, dets, det_zero_tol * scales):
            vset = lat.elements[table.meets[k, s - 1]].vertex_set
            if len(vset) == 1 and vset[0] in ideal:
                if abs(det) > ztol:
                    found.append((k, s, f"facets {_named(row)} at ideal vertex {vset[0]}: "
                                        f"det {det:.3g}"))
            elif det <= ztol:
                found.append((k, s, f"facets {_named(row)}: det {det:.3g}"))
    failures = [text for _, _, text in sorted(found)[:5]]
    checks.append(ConditionCheck("truncated-cycles", not failures, "; ".join(failures)))

    count, failures = 0, []
    for rows, cols in _distinct_vertex_pairs(table.orientation, table.vertex):
        dets, scales = _minor_dets(G, sequences[rows], sequences[cols])
        count += len(rows)
        failures += [
            f"cycles {_named(sequences[rows[k]])} x {_named(sequences[cols[k]])}: "
            f"det {dets[k]:.3g}"
            for k in np.flatnonzero(dets <= det_zero_tol * scales)[:5 - len(failures)]
        ]
    checks.append(ConditionCheck(
        "distinct-vertex-pairs", not failures, _pair_detail(count, failures)))
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
