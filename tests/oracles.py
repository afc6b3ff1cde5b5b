"""Independent brute-force oracles used to derive expected test values.

Everything here is written against the definitions only, never through
the library's own algorithms, so the two paths stay independent.
"""

import itertools
from fractions import Fraction

import numpy as np

from polyrealize import Flag, SuperCycle, build_maxbiclique_lattice, enumerate_flags, numkernel
from polyrealize.errors import (
    NoCycleError,
    NoExtraFacetError,
    NotBipartiteError,
    NotGradedError,
)


def brute_force_maxbicliques(rel):
    """All maximal bicliques by closure over every subset of the smaller side.

    Returns a set of (facet_tuple, vertex_tuple) pairs.
    """
    facets = range(1, rel.n_facets + 1)
    vertices = range(1, rel.n_vertices + 1)
    found = set()
    if rel.n_vertices <= rel.n_facets:
        for size in range(rel.n_vertices + 1):
            for subset in itertools.combinations(vertices, size):
                fs = rel.facets_of(subset)
                vs = rel.vertices_of(fs)
                found.add((tuple(sorted(fs)), tuple(sorted(vs))))
    else:
        for size in range(rel.n_facets + 1):
            for subset in itertools.combinations(facets, size):
                vs = rel.vertices_of(subset)
                fs = rel.facets_of(vs)
                found.add((tuple(sorted(fs)), tuple(sorted(vs))))
    return found


def covers_by_definition(rel) -> dict:
    """Cover relation, ranks, bottom and top of the lattice, from the definitions.

    The closed vertex sets are vertices_of(F) over every facet subset F;
    a is covered by b when a is strictly below b and no closed set lies
    strictly between them.  An element's rank is the length of its
    chains of covers down to the bottom, and the lattice is graded (else
    "ranks" is None) when all those chains have one length.  Elements
    are keyed by their sorted vertex tuples.
    """
    closed = set()
    for size in range(rel.n_facets + 1):
        for subset in itertools.combinations(range(1, rel.n_facets + 1), size):
            closed.add(rel.vertices_of(subset))
    lower = {
        b: {a for a in closed if a < b and not any(a < c < b for c in closed)}
        for b in closed
    }
    upper = {a: {b for b in closed if a in lower[b]} for a in closed}
    bottom = frozenset.intersection(*closed)
    longest, shortest = {}, {}
    for b in sorted(closed, key=len):
        longest[b] = max((longest[a] + 1 for a in lower[b]), default=0)
        shortest[b] = min((shortest[a] + 1 for a in lower[b]), default=0)

    def key(s):
        return tuple(sorted(s))

    return {
        "lower": {key(b): sorted(map(key, lower[b])) for b in closed},
        "upper": {key(a): sorted(map(key, upper[a])) for a in closed},
        "ranks": {key(b): longest[b] for b in closed} if longest == shortest else None,
        "bottom": key(bottom),
        "top": tuple(range(1, rel.n_vertices + 1)),
    }


def flag_graph_connected_explicit(flags) -> bool:
    """Connectivity of the flag graph built by pairwise comparison."""
    if not flags:
        return True
    chains = [set(f.chain) for f in flags]
    adj = [[] for _ in flags]
    for a in range(len(flags)):
        for b in range(a + 1, len(flags)):
            if len(chains[a] - chains[b]) == 1:
                adj[a].append(b)
                adj[b].append(a)
    seen = {0}
    stack = [0]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == len(flags)


def _flag_adjacency(flags) -> list:
    """Neighbor lists for the flag graph: flags differing in one element.

    Flags of a graded lattice agree in the bottom and top, so neighbors
    differ in exactly one interior position.
    """
    if not flags:
        return []
    length = len(flags[0].chain)
    neighbors = [set() for _ in flags]
    for pos in range(1, length - 1):
        groups = {}
        for idx, fl in enumerate(flags):
            key = fl.chain[:pos] + fl.chain[pos + 1:]
            groups.setdefault(key, []).append(idx)
        for members in groups.values():
            for s in range(len(members)):
                for t in range(s + 1, len(members)):
                    neighbors[members[s]].add(members[t])
                    neighbors[members[t]].add(members[s])
    return [sorted(ns) for ns in neighbors]


def flag_classes_by_bfs(flags) -> dict:
    """Two-color the flag graph by breadth-first search, in chain order.

    Each connected component is colored from its least flag, which gets
    class 0; raises NotBipartiteError when the flag graph has an odd
    cycle.
    """
    flags = sorted(flags, key=lambda f: f.chain)
    neighbors = _flag_adjacency(flags)
    color = [None] * len(flags)
    for start in range(len(flags)):
        if color[start] is not None:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            x = queue.pop(0)
            for y in neighbors[x]:
                if color[y] is None:
                    color[y] = 1 - color[x]
                    queue.append(y)
                elif color[y] == color[x]:
                    raise NotBipartiteError("flag graph contains an odd cycle")
    return {flags[k]: color[k] for k in range(len(flags))}


def diamond_by_leq_scan(lat) -> bool:
    """Diamond condition of a graded lattice by scanning whole ranks.

    For every b of rank >= 2 and every a of rank rank(b) - 2 below it,
    count the elements c of rank rank(b) - 1 with a <= c <= b, comparing
    vertex sets; the interval [a, b] is a diamond iff there are two.
    """
    below = [frozenset(el.vertex_set) for el in lat.elements]
    by_rank = {}
    for k, r in enumerate(lat.ranks):
        by_rank.setdefault(r, []).append(k)
    for b, rb in enumerate(lat.ranks):
        for a in by_rank.get(rb - 2, ()) if rb >= 2 else ():
            if not below[a] <= below[b]:
                continue
            middles = sum(
                1 for c in by_rank.get(rb - 1, ()) if below[a] <= below[c] <= below[b]
            )
            if middles != 2:
                return False
    return True


def exact_integer_rank(M) -> int:
    """Rank of an integer (or rational) matrix by exact Gaussian elimination."""
    rows = [[Fraction(x) for x in row] for row in np.asarray(M).tolist()]
    rank = 0
    col = 0
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    while rank < n_rows and col < n_cols:
        pivot = next((r for r in range(rank, n_rows) if rows[r][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pr = rows[rank]
        for r in range(n_rows):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col] / pr[col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], pr)]
        rank += 1
        col += 1
    return rank


def _row_objective(Wt, h, on, off, ceiling):
    vals = Wt @ h
    on_err = vals[on] - 1.0
    off_err = np.maximum(vals[off] - ceiling, 0.0)
    return float(on_err @ on_err + off_err @ off_err)


def _best_row(Wt, h0, on, off, ceiling, inner=12):
    """Minimize one row's convex piecewise-quadratic objective.

    Iterates active-set least squares: rows in the current hinge active
    set are pinned to the ceiling, incident rows to 1.  Keeps the best
    iterate seen, so the sweep never increases the row objective.
    """
    best = h0
    best_f = _row_objective(Wt, h0, on, off, ceiling)
    h = h0
    prev_active = None
    for _ in range(inner):
        active = off[Wt[off] @ h > ceiling] if len(off) else off
        rows = np.vstack([Wt[on], Wt[active]]) if (len(on) + len(active)) else None
        if rows is None:
            candidate = np.zeros_like(h0)
        else:
            targets = np.concatenate([np.ones(len(on)), np.full(len(active), ceiling)])
            candidate, *_ = np.linalg.lstsq(rows, targets, rcond=None)
        f = _row_objective(Wt, candidate, on, off, ceiling)
        if f < best_f:
            best, best_f = candidate, f
        if prev_active is not None and np.array_equal(active, prev_active):
            break
        prev_active = active
        h = candidate
    return best


def best_rows_one_at_a_time(X, G, mask, ceiling):
    """One ALS half-sweep row by row: each row of X solved by its own
    active-set least squares against the rows of G (lstsq per pass)."""
    return np.array([
        _best_row(G, X[i], np.flatnonzero(mask[i]), np.flatnonzero(~mask[i]), ceiling)
        for i in range(len(X))
    ])


def grunbaum_oracle_by_subsets(W, lat) -> bool:
    """The exhaustive face check, one LP per proper vertex subset.

    For every proper subset F of the vertex indices, a supporting vector
    h with <h, w_j> = 1 on F and < 1 off F must exist exactly when F is
    the vertex set of some lattice element.  The LP is the library's
    ``numkernel.lp_strict_feasibility``, the one ``grunbaum_oracle``
    runs per coatom; 2^m calls for m vertices.
    """
    W = np.asarray(W, dtype=float)
    m = W.shape[1]
    face_sets = {frozenset(el.vertex_set) for el in lat.elements}
    all_vertices = range(1, m + 1)
    for size in range(m):
        for subset in itertools.combinations(all_vertices, size):
            eqs = [(W[:, j - 1], 1.0) for j in subset]
            ups = [(W[:, j - 1], 1.0) for j in all_vertices if j not in subset]
            res = numkernel.lp_strict_feasibility(eqs, ups, dim=W.shape[0])
            if res.feasible != (frozenset(subset) in face_sets):
                return False
    return True


def top_star(form_matrix, columns) -> float:
    """Top-degree star: sqrt(|det phi|) times the determinant of the columns."""
    return float(
        np.sqrt(abs(np.linalg.det(form_matrix))) * np.linalg.det(np.column_stack(columns))
    )


def random_form_matrix(rng, size, negatives):
    """Random symmetric matrix with the given count of negative eigenvalues."""
    Q, _ = np.linalg.qr(rng.standard_normal((size, size)))
    eigs = rng.uniform(0.5, 2.0, size)
    eigs[:negatives] *= -1.0
    return (Q * eigs) @ Q.T


def super_cycle_pairs_by_definition(G, super_cycles, det_factor, det_zero_tol) -> bool:
    """The pairwise super-cycle condition, one determinant per pair.

    Every pair (a, b), a <= b, of super cycles in one orientation class
    needs det G[a, b] * det_factor above det_zero_tol times the product
    of the minor's row norms (at least 1), where G[a, b] takes the rows
    of a's facet sequence and the columns of b's.
    """
    for a, b in itertools.combinations_with_replacement(super_cycles, 2):
        if a.orientation != b.orientation:
            continue
        minor = G[np.ix_(np.array(a.facet_sequence) - 1, np.array(b.facet_sequence) - 1)]
        scale = max(float(np.prod(np.maximum(np.linalg.norm(minor, axis=1), 1e-30))), 1.0)
        if np.linalg.det(minor) * det_factor <= det_zero_tol * scale:
            return False
    return True


def _cycles_at_vertex(lat, vertex):
    """Facet sequences through the vertex whose partial meets descend one
    rank per step to its atom, in lexicographic order, depth first."""
    if not lat.is_graded:
        raise NotGradedError("cycle search needs a graded lattice")
    d = lat.rank - 1
    rel = lat.relation
    atom = lat.index_of_vertex_set(rel.closure({vertex}))
    if lat.ranks[atom] != 1:
        raise NoCycleError(f"vertex {vertex} does not generate a rank-1 element")
    candidates = sorted(rel.facets_of_vertex(vertex))
    felem = {i: lat.index_of_vertex_set(rel.vertices_of_facet(i)) for i in candidates}
    seq = []

    def extend(current):
        t = len(seq)
        if t == d:
            if current == atom:
                yield tuple(seq)
            return
        for i in candidates:
            if i in seq:
                continue
            nxt = felem[i] if t == 0 else lat.meet(current, felem[i])
            if lat.ranks[nxt] != d - t:
                continue
            seq.append(i)
            yield from extend(nxt)
            seq.pop()

    yield from extend(None)


def _induced_flag_by_meets(lat, cycle):
    """Bottom, the partial meets of the cycle from the last, then top."""
    meets, current = [], None
    for t, i in enumerate(cycle):
        el = lat.index_of_vertex_set(lat.relation.vertices_of_facet(i))
        current = el if t == 0 else lat.meet(current, el)
        meets.append(current)
    return Flag((lat.bottom, *reversed(meets), lat.top))


def super_cycles_by_walk(lat, coloring, orientation=None):
    """Super cycles built one object at a time, vertex by vertex.

    With no orientation: every super cycle, each cycle followed by every
    facet avoiding its vertex in ascending order, as a tuple.  With one:
    a dict from each vertex to its lexicographically first cycle of that
    orientation followed by its smallest avoiding facet, raising
    NoExtraFacetError or NoCycleError at the first vertex without one.
    """
    rel = lat.relation
    found = [] if orientation is None else {}
    for j in range(1, rel.n_vertices + 1):
        others = sorted(set(range(1, rel.n_facets + 1)) - rel.facets_of_vertex(j))
        if orientation is None:
            for cycle in _cycles_at_vertex(lat, j):
                flag = _induced_flag_by_meets(lat, cycle)
                found += [SuperCycle(cycle + (extra,), j, flag, coloring[flag])
                          for extra in others]
            continue
        if not others:
            raise NoExtraFacetError(f"every facet is incident to vertex {j}")
        for cycle in _cycles_at_vertex(lat, j):
            flag = _induced_flag_by_meets(lat, cycle)
            if coloring[flag] == orientation:
                found[j] = SuperCycle(cycle + (others[0],), j, flag, orientation)
                break
        else:
            raise NoCycleError(f"no cycle of orientation {orientation} exists at vertex {j}")
    return tuple(found) if orientation is None else found


def distinct_vertex_pairs_by_definition(G, super_cycles, det_zero_tol) -> bool:
    """The hyperbolic cross condition over super cycles, one minor per pair.

    Every pair (a, b), a before b, of one orientation class at distinct
    vertices needs the d x d minor of G over the cycle parts (rows from
    a, columns from b) above det_zero_tol times its row-norm scale.
    """
    for a, b in itertools.combinations(super_cycles, 2):
        if a.orientation != b.orientation or a.vertex == b.vertex:
            continue
        minor = G[np.ix_(np.array(a.facet_sequence[:-1]) - 1,
                         np.array(b.facet_sequence[:-1]) - 1)]
        scale = max(float(np.prod(np.maximum(np.linalg.norm(minor, axis=1), 1e-30))), 1.0)
        if np.linalg.det(minor) <= det_zero_tol * scale:
            return False
    return True


def cone_by_hodge_star(cand):
    """(H, N) of the cone built along cycles, for a Gramian candidate.

    H factors the candidate's G against its form.  Generator j is the
    Hodge star of the normals along vertex j's first cycle of
    orientation 0, with orientations from the breadth-first flag
    coloring.  One sign for all of W then makes the first nonzero entry
    of N = (Phi H)* W negative.
    """
    lat = build_maxbiclique_lattice(cand.relation)
    cycles = super_cycles_by_walk(lat, flag_classes_by_bfs(enumerate_flags(lat)), orientation=0)
    H = numkernel.factor_against_form(cand.G, cand.form)
    W = np.column_stack([
        numkernel.hodge_star([H[:, i - 1] for i in cycles[j].facet_sequence[:-1]], cand.form)
        for j in sorted(cycles)
    ])
    N = H.T @ cand.form.phi @ W
    flat = N.ravel()
    first = flat[np.abs(flat) > 1e-12 * max(np.abs(flat).max(), 1e-300)][0]
    return H, -N if first > 0 else N


def column_cosines(A, B) -> np.ndarray:
    """Cosine of the angle between each column of A and the same column of B."""
    return np.einsum("ij,ij->j", A, B) / (np.linalg.norm(A, axis=0) * np.linalg.norm(B, axis=0))
