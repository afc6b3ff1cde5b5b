"""Realizability of cones in metric spaces through their Gramian.

A cone with no lightlike facet hyperplane has a canonical set of unit
outward normals, and the matrix of pairwise form values of those
normals (the Gramian, whose entries are cosines of dihedral angles)
determines the cone up to orthogonal transformations of the form.  This
module verifies the determinant and rank conditions a candidate Gramian
must satisfy for a given relation and constructs a cone from a passing
one; both factor G = H* Phi H and take each generator as the line
phi-orthogonal to the normals at its vertex, and the verifiers read the
pair determinants from that factor, one determinant per cycle.  Spherical
and hyperbolic (Lorentzian, ideal vertices allowed) variants exist.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    FlagCapExceededError,
    LightlikeNormalError,
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
    _chain_classes,
    _count_cycles,
    _cycle_table,
    _is_int,
    lattice_gate,
)
from .numkernel import (
    DEFAULT_RANK_TOL,
    BilinearForm,
    as_matrix,
    factor_against_form,
    numeric_ranks,
    sqrt_psd,
)
from .realize import FilledIncidenceMatrix

DEFAULT_DET_ZERO_TOL = 1e-8
DIAG_TOL = 1e-7
_DET_CHUNK = 4096
_PAIR_BLOCK = 1 << 22


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


def _facets_by_degree(rel):
    """(0-based vertices, one row of 0-based facets each) per vertex degree."""
    degree = rel.mask.sum(axis=0)
    for k in dict.fromkeys(degree.tolist()):
        vertices = np.flatnonzero(degree == k)
        yield vertices, np.nonzero(rel.mask[:, vertices].T)[1].reshape(len(vertices), k)


def _vertex_rank_condition(G, rel, d, rank_tol, ideal=frozenset()):
    """Principal minors over the facets at each vertex must have rank d.

    Ideal vertices of hyperbolic polytopes are the exception: their ray
    is lightlike, the form restricted to its orthogonal complement has a
    one-dimensional radical, and the minor rank drops to exactly d-1.
    The minors of all vertices of one degree are ranked by one stacked SVD.
    """
    rank_of = np.empty(rel.n_vertices, dtype=int)
    for vertices, rows in _facets_by_degree(rel):
        rank_of[vertices] = numeric_ranks(G[rows[:, :, None], rows[:, None, :]], rank_tol)
    failures = [f"vertex {j}: rank {r}, expected {d - (j in ideal)}"
                for j, r in enumerate(rank_of.tolist(), 1) if r != d - (j in ideal)]
    return ConditionCheck("vertex-minor-rank", not failures, "; ".join(failures[:5]))


def _generators(PH, rel) -> tuple:
    """Generators W and N = PH* W, PH = Phi H: w_j is the last right
    singular vector of PH[:, F_j]*, F_j the facets at vertex j (one
    stacked SVD per degree), signed so that column j of N sums negative."""
    W = np.empty((PH.shape[0], rel.n_vertices))
    for vertices, rows in _facets_by_degree(rel):
        W[:, vertices] = np.linalg.svd(PH[:, rows].transpose(1, 2, 0))[2][:, -1].T
    N = PH.T @ W
    signs = np.where(N.sum(axis=0) > 0, -1.0, 1.0)
    return W * signs, N * signs


def _signature_check(w, thr, expected) -> ConditionCheck:
    """Counts of eigenvalues w above thr, below -thr and within, against expected."""
    p, q = int(np.count_nonzero(w > thr)), int(np.count_nonzero(w < -thr))
    sig = (p, q, len(w) - p - q)
    return ConditionCheck("signature", sig == expected, f"signature {sig}, expected {expected}")


def _pair_check(name, count, failures) -> ConditionCheck:
    return ConditionCheck(name, not failures, f"exhaustive, {count} pairs"
                          + ("; " + "; ".join(failures) if failures else ""))


def _named(sequence) -> tuple:
    """A row of 0-based facet indices as the 1-based tuple reports print."""
    return tuple((sequence + 1).tolist())


def _super_cycle_condition(V, off, cycles, orientation, det_sign, ztol) -> ConditionCheck:
    """det G[a, b] * det_factor > 0 over same-orientation super-cycle pairs.

    ``V[k, f]`` is det H_a of super cycle a = cycle k + facet f, f in
    ``off[k]``; det G[a, b] = V_a * det Phi * V_b, det_sign = det_factor
    * det Phi.  A class passes when det_sign * V_a * V_ref > ztol for
    each member a, V_ref its first value within rounding of the largest
    |V|.  The detail counts the 2K determinants of the K super cycles."""
    values, refs = np.zeros_like(V), {}
    for c in np.unique(orientation):
        members = orientation == c
        score = np.where(off & members[:, None], np.abs(V), -1.0)
        k, f = np.unravel_index(np.argmax(score >= score.max() * (1 - 1e-12)), V.shape)
        values[members] = det_sign * V[k, f] * V[members]
        refs[c] = _named(np.append(cycles[k], f))
    failures = [f"cycles {_named(np.append(cycles[k], f))} x {refs[orientation[k]]}: "
                f"det*sign = {values[k, f]:.3g}"
                for k, f in np.argwhere(off & (values <= ztol))[:5]]
    return _pair_check("super-cycle-pairs", 2 * int(off.sum()), failures)


def _verify(rel, G, d, form_checks, det_factor, *, rank_tol, det_zero_tol, flag_cap,
            ideal=frozenset()):
    """The check sequence every Gramian verifier shares.

    Runs the lattice gate (a flag graph that is not bipartite fails it),
    the flag cap on the number of cycles, ``form_checks(w, thr)`` (the
    form's own checks, given G's eigenvalues w and zero threshold thr),
    vertex minor ranks, then the super-cycle condition, undecided and
    failed unless G has rank d+1.  At rank d+1, G = H* Phi H over its d+1 largest |eigenvalues|,
    Phi being G's own signature, and cycle C at vertex v has det[H_C, x]
    = c . x with c = det A * A^-T e_d, A = [H_C, Phi w_v].  Returns
    (checks, cycles): cycles is (lattice, cycle table, cycle classes,
    (c, Phi) or None), or None when the lattice check failed.
    """
    lat, d, reason = lattice_gate(rel, d)
    if reason is not None:
        if reason == REASON_RANK:
            detail = f"lattice rank {lat.rank}, expected {d + 1}"
        else:
            detail = _LATTICE_DETAILS[reason]
        return [ConditionCheck("lattice", False, detail)], None
    if (cycles := _count_cycles(lat)) > flag_cap:
        raise FlagCapExceededError(cycles, flag_cap, "cycles")
    if lat.cover_signs is None:
        return [ConditionCheck("lattice", False, "flag graph is not bipartite")], None
    S = 0.5 * (G + G.T)
    w = np.linalg.eigvalsh(S)
    thr = rank_tol * max(np.abs(w).max(), 1e-300)
    checks = [ConditionCheck("lattice", True), *form_checks(w, thr)]
    checks.append(_vertex_rank_condition(G, rel, d, rank_tol, ideal))
    table = _cycle_table(lat)
    orientation = _chain_classes(lat, table.induced_chains(lat))
    rank = int(np.count_nonzero(np.abs(w) > thr))
    if rank != d + 1:
        checks.append(ConditionCheck(
            "super-cycle-pairs", False, f"not decided: rank {rank}, expected {d + 1}"))
        return checks, (lat, table, orientation, None)
    lam, Q = np.linalg.eigh(S)
    top = np.argsort(-np.abs(lam))[:d + 1]
    H, phi = np.sqrt(np.abs(lam[top]))[:, None] * Q[:, top].T, np.sign(lam[top])
    W, _ = _generators(phi[:, None] * H, rel)
    at = table.vertex - 1
    A = np.concatenate([H[:, table.facets - 1].transpose(1, 0, 2),
                        (phi[:, None] * W)[:, at].T[:, :, None]], axis=2)
    det = np.linalg.det(A)
    A[det == 0] = np.eye(d + 1)  # H_C of rank below d: c = 0
    last = np.broadcast_to(np.eye(d + 1)[:, -1:], (len(A), d + 1, 1))
    cof = det[:, None] * np.linalg.solve(A.transpose(0, 2, 1), last)[:, :, 0]
    checks.append(_super_cycle_condition(cof @ H, ~rel.mask.T[at], table.facets - 1,
                                         orientation, det_factor * np.prod(phi), det_zero_tol))
    return checks, (lat, table, orientation, (cof, phi))


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
    every same-orientation super-cycle pair, decided with one determinant
    per cycle; det_zero_tol bounds det H_a * det H_ref.
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

    Factors G = H* Phi H against the form and takes W and N = (Phi H)* W
    from _generators, as the verifiers do: on a valid candidate w_j spans
    the line phi-orthogonal to the normals at vertex j, so N vanishes
    exactly on incident pairs.  A final fill-0 pattern and rank check
    guards against an unverified candidate; its failure raises
    PatternViolationError rather than returning a wrong cone.
    """
    rel = cand.relation
    H = factor_against_form(cand.G, cand.form, rank_tol)
    W, N = _generators(cand.form.phi @ H, rel)
    try:
        fim = FilledIncidenceMatrix(N, rel, 0.0, 1e-9 * max(np.abs(N).max(), 1.0), 1e-9)
    except PatternViolationError as exc:
        raise PatternViolationError(
            f"constructed matrix violates the fill-0 pattern at "
            f"{len(exc.violations)} entries; the candidate is not a valid Gramian",
            exc.violations,
        ) from None
    rank = fim.rank(rank_tol)
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


def _distinct_vertex_condition(table, orientation, factor, ztol) -> ConditionCheck:
    """det G[C_a, C_b] > ztol over same-orientation cycles at distinct vertices.

    By Cauchy-Binet det G[C_a, C_b] = det Phi * phi(c_a, c_b), c the
    cofactor vectors from _verify; at most _PAIR_BLOCK pairs at a time."""
    cof, phi = factor
    count, failures = 0, []
    for c in np.unique(orientation):
        members = np.flatnonzero(orientation == c)
        step = max(1, _PAIR_BLOCK // len(members))
        for start in range(0, len(members), step):
            rows = members[start:start + step]
            pairs = (table.vertex[rows, None] != table.vertex[members]) & (rows[:, None] < members)
            values = np.prod(phi) * (cof[rows] * phi) @ cof[members].T
            count += int(pairs.sum())
            failures += [f"cycles {tuple(table.facets[rows[k]].tolist())} x "
                         f"{tuple(table.facets[members[b]].tolist())}: det {values[k, b]:.3g}"
                         for k, b in np.argwhere(pairs & (values <= ztol))[:5 - len(failures)]]
    return _pair_check("distinct-vertex-pairs", count, failures)


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
    and the d x d minors over same-orientation cycles at distinct
    vertices positive, decided or left undecided with the super cycles.
    """
    G = _facet_gramian(G, rel)
    ideal_vertices = tuple(ideal_vertices)
    for v in ideal_vertices:
        if not (_is_int(v) or isinstance(v, np.integer)):
            raise ValueError(f"ideal vertex {v!r} is not an integer")
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
    lat, table, orientation, factor = cycles
    distinct = (_distinct_vertex_condition(table, orientation, factor, det_zero_tol) if factor
                else ConditionCheck("distinct-vertex-pairs", False, checks[-1].detail))
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
            vset = (np.flatnonzero(lat.vertex_rows[table.meets[k, s - 1]]) + 1).tolist()
            if len(vset) == 1 and vset[0] in ideal:
                if abs(det) > ztol:
                    found.append((k, s, f"facets {_named(row)} at ideal vertex {vset[0]}: "
                                        f"det {det:.3g}"))
            elif det <= ztol:
                found.append((k, s, f"facets {_named(row)}: det {det:.3g}"))
    failures = [text for _, _, text in sorted(found)[:5]]
    checks += [ConditionCheck("truncated-cycles", not failures, "; ".join(failures)), distinct]
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
