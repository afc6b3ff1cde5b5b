"""Independent brute-force oracles used to derive expected test values.

Everything here is written against the definitions only, never through
the library's own algorithms, so the two paths stay independent.
"""

import bisect
import itertools
import math
import weakref
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from polyrealize import (
    BilinearForm,
    Flag,
    SuperCycle,
    build_maxbiclique_lattice,
    enumerate_flags,
    numkernel,
)
from polyrealize.errors import (
    DegenerateFormError,
    DimensionMismatchError,
    NoCycleError,
    NotBipartiteError,
    NotGradedError,
    PolyrealizeError,
)
from polyrealize.incidence import REASON_DIAMOND, REASON_FLAG_CONNECTIVITY
from polyrealize.numkernel import LP_TOL


class NoExtraFacetError(PolyrealizeError):
    """No facet avoids the given vertex, so no super cycle exists."""


@dataclass(frozen=True)
class Maxbiclique:
    """A maximal induced biclique: every facet of the pair contains every vertex."""

    facet_set: tuple
    vertex_set: tuple


_VIEWS = weakref.WeakKeyDictionary()


def _views(lat) -> SimpleNamespace:
    """The lattice's elements and cover tuples, read off its arrays once per lattice."""
    views = _VIEWS.get(lat)
    if views is None:
        def row_tuples(rows):
            flat = (np.nonzero(rows)[1] + 1).tolist()
            ends = np.cumsum(np.count_nonzero(rows, axis=1)).tolist()
            return [tuple(flat[a:b]) for a, b in zip([0] + ends, ends)]

        flat, ends = lat.lower_indices.tolist(), lat.lower_indptr.tolist()
        lower = tuple(tuple(flat[a:b]) for a, b in zip(ends, ends[1:]))
        upper = [[] for _ in lower]
        for b, below in enumerate(lower):
            for a in below:
                upper[a].append(b)
        views = _VIEWS[lat] = SimpleNamespace(
            elements=tuple(map(Maxbiclique, row_tuples(lat.facet_rows),
                               row_tuples(lat.vertex_rows))),
            lower_covers=lower,
            upper_covers=tuple(map(tuple, upper)),
        )
    return views


def elements(lat) -> tuple:
    """One ``Maxbiclique`` per element, its facets and vertices as ascending tuples."""
    return _views(lat).elements


def lower_covers(lat) -> tuple:
    """Each element's lower covers as an ascending tuple."""
    return _views(lat).lower_covers


def upper_covers(lat) -> tuple:
    """Each element's upper covers as an ascending tuple."""
    return _views(lat).upper_covers


def flags_by_upper_covers(lat) -> tuple:
    """All flags of a graded lattice, lexicographic by element index, each
    chain extended from the bottom by one upper cover at a time."""
    chains = [(lat.bottom,)]
    for _ in range(lat.rank):
        chains = [chain + (b,) for chain in chains for b in upper_covers(lat)[chain[-1]]]
    return tuple(Flag(chain) for chain in chains)


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


LATTICE_FIELDS = ("elements", "upper_covers", "lower_covers", "ranks", "bottom", "top")


def lattice_by_maximal_cuts(rel):
    """The maxbiclique lattice with each element's lower covers as its maximal cuts.

    Closed sets are the intersections of the facet-row bitmasks.  The
    lower covers of b are the sets maximal among its cuts
    ``b & row != b``, found by comparing every pair of cuts, and each
    element's facet set comes from a scan over all rows.  Returns a
    record of the lattice's fields and views (``LATTICE_FIELDS``),
    every one built this way.
    """
    m = rel.n_vertices
    rows = [sum(1 << (j - 1) for j in rel.vertices_of_facet(i))
            for i in range(1, rel.n_facets + 1)]
    distinct = set(rows)
    full = (1 << m) - 1
    closed = {full}
    for r in distinct:
        closed |= {c & r for c in closed}

    by_vertex_set = sorted(
        (tuple(j for j in range(1, m + 1) if c >> (j - 1) & 1), c) for c in closed
    )
    elements = tuple(
        Maxbiclique(tuple(i for i, r in enumerate(rows, start=1) if c & r == c), vs)
        for vs, c in by_vertex_set
    )
    vbits = tuple(c for _, c in by_vertex_set)
    index = {bits: k for k, bits in enumerate(vbits)}
    size = len(elements)

    order = sorted(range(size), key=lambda k: (len(elements[k].vertex_set), k))
    lower = []
    upper = [[] for _ in range(size)]
    for b, bits in enumerate(vbits):
        cuts = {bits & r for r in distinct} - {bits}
        below = sorted(
            index[a] for a in cuts if not any(a != c and a & c == a for c in cuts)
        )
        lower.append(tuple(below))
        for a in below:
            upper[a].append(b)

    ranks = [0] * size
    for k in order[1:]:
        ranks[k] = 1 + max(ranks[a] for a in lower[k])
    graded = all(ranks[b] == ranks[a] + 1 for b in range(size) for a in lower[b])
    return SimpleNamespace(
        elements=elements,
        upper_covers=tuple(tuple(u) for u in upper),
        lower_covers=tuple(lower),
        ranks=tuple(ranks) if graded else None,
        bottom=order[0],
        top=index[full],
    )


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
    below = [frozenset(el.vertex_set) for el in elements(lat)]
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


def _rank2_groups(lower, b) -> dict:
    """{a: the covers c of b above a} over the lower covers a of b's lower covers."""
    groups = {}
    for c in lower[b]:
        for a in lower[c]:
            groups.setdefault(a, []).append(c)
    return groups


def rank2_failure_by_groups(lat):
    """REASON_DIAMOND, REASON_FLAG_CONNECTIVITY or None, element by element.

    For each element b of rank k >= 2, the lower covers a of b's lower
    covers are grouped by the covers of b above them: the interval [a, b]
    is a diamond iff a's group has exactly two members.  Those pairs are
    the edges of b's local flag graph, whose nodes are b's lower covers,
    joined by a union-find.  A diamond failure anywhere outranks a
    disconnected local graph.
    """
    lower = lower_covers(lat)
    connected = True
    for b in range(len(lat)):
        if lat.ranks[b] < 2:
            continue
        groups = _rank2_groups(lower, b)
        if any(len(g) != 2 for g in groups.values()):
            return REASON_DIAMOND
        if connected:
            component = {x: x for x in lower[b]}

            def root(x):
                while component[x] != x:
                    x = component[x]
                return x

            for x, y in groups.values():
                component[root(x)] = root(y)
            connected = len({root(x) for x in lower[b]}) == 1
    return None if connected else REASON_FLAG_CONNECTIVITY


def cover_signs_by_groups(lat):
    """``lat.cover_signs`` as {(a, b): s(a, b)}, each element's intervals regrouped from its covers.

    The same parity union-find, in rank order, over ``_rank2_groups``;
    expects a lattice that passes the rank-2 walk.
    """
    lower, signs = lower_covers(lat), {}
    for b in sorted(range(len(lat)), key=lat.ranks.__getitem__):
        parent = {c: (c, 1) for c in lower[b]}

        def root(x):
            sign = 1
            while parent[x][0] != x:
                x, step = parent[x]
                sign *= step
            return x, sign

        for a, (c, c2) in _rank2_groups(lower, b).items():
            (r, s), (r2, s2) = root(c), root(c2)
            want = -signs[a, c] * signs[a, c2]
            if r != r2:
                parent[r] = (r2, s * s2 * want)
            elif s * s2 != want:
                return None
        signs.update(((c, b), root(c)[1]) for c in lower[b])
    first = [lat.bottom]
    while first[-1] != lat.top:
        first.append(upper_covers(lat)[first[-1]][0])
    if math.prod(signs[cover] for cover in zip(first, first[1:])) < 0:
        signs.update(((c, lat.top), -signs[c, lat.top]) for c in lower[lat.top])
    return signs


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


LP_MAX_PIVOTS = 20000


@dataclass(frozen=True, eq=False)
class LpResult:
    feasible: bool
    witness: object
    margin: float


def simplex_strict_feasibility(equalities, strict_upper, *, dim: int = None,
                               margin_cap: float = 1e6) -> LpResult:
    """Maximize the slack t of a system of equalities and strict inequalities.

    Finds h maximizing t <= margin_cap subject to <a, h> = b for (a, b)
    in equalities and <a, h> <= b - t for (a, b) in strict_upper.  The
    equalities are solved once by SVD: inconsistent ones give margin
    -inf, otherwise h = h0 + Z z with h0 the minimum-norm solution and Z
    an orthonormal null-space basis.  The remaining LP over (z, t) starts
    from the slack basis, made feasible by one pivot of t (down to the
    least right-hand side), and runs Bland's rule.  When the equalities
    fix h, Z has no columns and that pivot is the whole solve.  The
    system is feasible when the optimal t exceeds LP_TOL; the witness h
    is returned then.  This general tableau simplex is the reference for
    ``numkernel.lp_strict_feasibility``, the same LP of one facet solved
    in closed form.
    """
    eqs = [(np.asarray(a, dtype=float).ravel(), float(b)) for a, b in equalities]
    ups = [(np.asarray(a, dtype=float).ravel(), float(b)) for a, b in strict_upper]
    if dim is None:
        dim = len((eqs + ups)[0][0]) if eqs or ups else 0
    for a, _ in eqs + ups:
        if len(a) != dim:
            raise DimensionMismatchError("constraint vectors have inconsistent length")

    h0, Z = np.zeros(dim), np.eye(dim)
    if eqs:
        A = np.array([a for a, _ in eqs])
        b = np.array([rhs for _, rhs in eqs])
        U, s, Vt = np.linalg.svd(A)
        r = int(np.count_nonzero(s > LP_TOL * s[0])) if s.size else 0
        h0 = Vt[:r].T @ (U[:, :r].T @ b / s[:r])
        if np.abs(A @ h0 - b).sum() > LP_TOL * max(1.0, np.abs(b).sum()):
            return LpResult(False, None, float("-inf"))
        Z = Vt[r:].T

    # Rows G z + t + s_i = c_i, then t + s = margin_cap; columns z+, z-,
    # t+, t-, one slack per row, the right-hand side; last, the reduced
    # costs of minimizing -t.
    P = np.array([a for a, _ in ups]).reshape(len(ups), dim)
    G = P @ Z
    m, k = len(ups) + 1, Z.shape[1]
    tp = 2 * k
    T = np.zeros((m + 1, tp + 3 + m))
    T[: m - 1, :tp] = np.hstack([G, -G])
    T[:m, tp : tp + 2] = 1.0, -1.0
    T[:m, tp + 2 : -1] = np.eye(m)
    T[: m - 1, -1] = [rhs for _, rhs in ups] - P @ h0
    T[m - 1, -1] = margin_cap
    T[m, tp : tp + 2] = -1.0, 1.0
    basis = np.arange(tp + 2, tp + 2 + m)
    low = int(np.argmin(T[:m, -1]))
    if T[low, -1] < 0:
        _pivot(T, basis, low, tp + 1)

    for _ in range(LP_MAX_PIVOTS):
        improving = np.flatnonzero(T[m, :-1] < -LP_TOL)
        if not improving.size:
            break
        col = improving[0]
        rows = np.flatnonzero(T[:m, col] > LP_TOL)
        if not rows.size:
            raise ArithmeticError("simplex found an unbounded ray of a capped LP")
        ratios = T[rows, -1] / T[rows, col]
        ties = rows[ratios <= ratios.min() + LP_TOL]
        _pivot(T, basis, ties[np.argmin(basis[ties])], col)
    else:
        raise ArithmeticError("simplex did not terminate within the pivot budget")

    x = np.zeros(T.shape[1] - 1)
    x[basis] = T[:m, -1]
    # The cap row reads t + s = margin_cap: t is the cap when its slack is 0.
    t = float(margin_cap if x[-1] == 0.0 else x[tp] - x[tp + 1])
    if t > LP_TOL:
        return LpResult(True, h0 + Z @ (x[:k] - x[k:tp]), t)
    return LpResult(False, None, t)


def _pivot(T, basis, row, col):
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row])
    basis[row] = col


def grunbaum_oracle_by_subsets(W, lat) -> bool:
    """The exhaustive face check, one LP per proper vertex subset.

    For every proper subset F of the vertex indices, a supporting vector
    h with <h, w_j> = 1 on F and < 1 off F must exist exactly when F is
    the vertex set of some lattice element.  The LP is the reference
    simplex ``simplex_strict_feasibility``, not the closed form that
    ``grunbaum_oracle`` solves per coatom; 2^m calls for m vertices.
    """
    W = np.asarray(W, dtype=float)
    m = W.shape[1]
    face_sets = {frozenset(el.vertex_set) for el in elements(lat)}
    all_vertices = range(1, m + 1)
    for size in range(m):
        for subset in itertools.combinations(all_vertices, size):
            eqs = [(W[:, j - 1], 1.0) for j in subset]
            ups = [(W[:, j - 1], 1.0) for j in all_vertices if j not in subset]
            res = simplex_strict_feasibility(eqs, ups, dim=W.shape[0])
            if res.feasible != (frozenset(subset) in face_sets):
                return False
    return True


def exact_edge_margin(W, i, j):
    """1 - max <h, w_k> over the other columns of a 2-row W, for the h
    with <h, w_i> = <h, w_j> = 1 (w_i and w_j independent), in rational
    arithmetic: the optimal margin of an edge's facet LP."""
    (a, b), (c, d) = ([Fraction(x) for x in W[:, k]] for k in (i, j))
    det = a * d - b * c
    h = ((d - b) / det, (a - c) / det)
    return min(1 - h[0] * Fraction(W[0, k]) - h[1] * Fraction(W[1, k])
               for k in range(W.shape[1]) if k not in (i, j))


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


def vertex_minor_failures_one_at_a_time(G, rel, d, rank_tol, ideal=frozenset()) -> list:
    """The vertex-minor-rank failures, one principal minor's rank per vertex."""
    failures = []
    for j in range(1, rel.n_vertices + 1):
        rows = sorted(i - 1 for i in rel.facets_of_vertex(j))
        r = numkernel.numeric_rank(G[np.ix_(rows, rows)], rank_tol)
        expected = d - 1 if j in ideal else d
        if r != expected:
            failures.append(f"vertex {j}: rank {r}, expected {expected}")
    return failures


def _pair_minors_positive(G, rows, cols, sign, det_zero_tol) -> bool:
    """Whether sign * det G[rows, cols[l]] clears det_zero_tol times the
    product of that minor's row norms (at least 1), for every row l of
    cols; one determinant per pair, the pairs of one row stacked."""
    minors = G[rows[:, None], cols[:, None, :]]
    scale = np.maximum(np.prod(np.maximum(np.linalg.norm(minors, axis=2), 1e-30), axis=1), 1.0)
    return not np.any(np.linalg.det(minors) * sign <= det_zero_tol * scale)


def _by_orientation(super_cycles) -> list:
    """The super cycles of each orientation class, in their given order."""
    classes = {}
    for c in super_cycles:
        classes.setdefault(c.orientation, []).append(c)
    return list(classes.values())


def super_cycle_pairs_by_definition(G, super_cycles, det_factor, det_zero_tol) -> bool:
    """The pairwise super-cycle condition, one determinant per pair.

    Every pair (a, b), a <= b, of super cycles in one orientation class
    needs det G[a, b] * det_factor above det_zero_tol times the product
    of the minor's row norms (at least 1), where G[a, b] takes the rows
    of a's facet sequence and the columns of b's.
    """
    for members in _by_orientation(super_cycles):
        sequences = np.array([c.facet_sequence for c in members]) - 1
        for k, rows in enumerate(sequences):
            if not _pair_minors_positive(G, rows, sequences[k:], det_factor, det_zero_tol):
                return False
    return True


def index_of_vertex_set(lat, vertices) -> int:
    """Position of the element with exactly these vertices; KeyError if none.

    A binary search of the elements, which are sorted by vertex set.
    """
    vertices = sorted(vertices)
    k = bisect.bisect_left(elements(lat), tuple(vertices), key=lambda el: el.vertex_set)
    if k == len(lat) or list(elements(lat)[k].vertex_set) != vertices:
        raise KeyError(f"no lattice element with vertex set {vertices}")
    return k


def meet(lat, a, b) -> int:
    """Greatest lower bound: the element whose vertex set is the intersection of a's and b's."""
    return index_of_vertex_set(
        lat, set(elements(lat)[a].vertex_set) & set(elements(lat)[b].vertex_set))


def _cycles_at_vertex(lat, vertex):
    """Facet sequences through the vertex whose partial meets descend one
    rank per step to its atom, in lexicographic order, depth first."""
    if not lat.is_graded:
        raise NotGradedError("cycle search needs a graded lattice")
    d = lat.rank - 1
    rel = lat.relation
    atom = index_of_vertex_set(lat, rel.closure({vertex}))
    if lat.ranks[atom] != 1:
        raise NoCycleError(f"vertex {vertex} does not generate a rank-1 element")
    candidates = sorted(rel.facets_of_vertex(vertex))
    felem = {i: index_of_vertex_set(lat, rel.vertices_of_facet(i)) for i in candidates}
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
            nxt = felem[i] if t == 0 else meet(lat, current, felem[i])
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
        el = index_of_vertex_set(lat, lat.relation.vertices_of_facet(i))
        current = el if t == 0 else meet(lat, current, el)
        meets.append(current)
    return Flag((lat.bottom, *reversed(meets), lat.top))


def _class_of(coloring, flag):
    if flag not in coloring:
        raise PolyrealizeError(f"the coloring has no class for the induced flag {flag.chain}")
    return coloring[flag]


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
                found += [SuperCycle(cycle + (extra,), j, flag, _class_of(coloring, flag))
                          for extra in others]
            continue
        if not others:
            raise NoExtraFacetError(f"every facet is incident to vertex {j}")
        for cycle in _cycles_at_vertex(lat, j):
            flag = _induced_flag_by_meets(lat, cycle)
            if _class_of(coloring, flag) == orientation:
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
    for members in _by_orientation(super_cycles):
        cycles = np.array([c.facet_sequence[:-1] for c in members]) - 1
        vertex = np.array([c.vertex for c in members])
        for k, rows in enumerate(cycles):
            later = cycles[k + 1:][vertex[k + 1:] != vertex[k]]
            if not _pair_minors_positive(G, rows, later, 1.0, det_zero_tol):
                return False
    return True


def hodge_star(vectors, form: BilinearForm) -> np.ndarray:
    """Metric cross product of d vectors in R^(d+1).

    Returns the unique v with phi(v, x_k) = 0 for every input and
    phi(v, y) equal to the top-degree star of the inputs wedged with y,
    where a positively oriented phi-orthonormal basis has top star 1.
    Computed from the cofactor vector c (c_k the signed minor deleting
    coordinate k): v = sqrt(|det phi|) * phi^-1 c.  The result is zero
    exactly when the inputs are linearly dependent.
    """
    X = np.column_stack([np.asarray(v, dtype=float) for v in vectors])
    r = form.size
    if X.shape != (r, r - 1):
        raise DimensionMismatchError(
            f"hodge star needs {r - 1} vectors of length {r}, got shape {X.shape}"
        )
    work = np.empty((r, r))
    work[:, : r - 1] = X
    c = np.empty(r)
    for k in range(r):
        work[:, r - 1] = 0.0
        work[k, r - 1] = 1.0
        c[k] = np.linalg.det(work)
    sign, logdet = np.linalg.slogdet(form.phi)
    if sign == 0:
        raise DegenerateFormError("hodge star needs a nondegenerate form")
    scale = np.exp(0.5 * logdet)
    return scale * np.linalg.solve(form.phi, c)


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
        hodge_star([H[:, i - 1] for i in cycles[j].facet_sequence[:-1]], cand.form)
        for j in sorted(cycles)
    ])
    N = H.T @ cand.form.phi @ W
    flat = N.ravel()
    first = flat[np.abs(flat) > 1e-12 * max(np.abs(flat).max(), 1e-300)][0]
    return H, -N if first > 0 else N


def column_cosines(A, B) -> np.ndarray:
    """Cosine of the angle between each column of A and the same column of B."""
    return np.einsum("ij,ij->j", A, B) / (np.linalg.norm(A, axis=0) * np.linalg.norm(B, axis=0))
