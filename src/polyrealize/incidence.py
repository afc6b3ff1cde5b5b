"""Incidence relations and their maxbiclique lattice.

The facet-vertex incidence of a polytope determines its whole face
lattice: faces correspond to the maximal induced bicliques of the
relation, ordered by containment of their vertex parts.  This is the
Dedekind-MacNeille completion of the bipartite order between facets and
vertices.  The module builds that lattice and decides the combinatorial
conditions used by the realization pipeline: gradedness and rank, the
diamond property, local flag connectivity (together the lattice gate),
bipartiteness of the flag graph, and the cycle / super cycle machinery
that fixes orientations.  It also checks a matrix against the relation's
filled incidence pattern.

Facet and vertex indices are 1-based throughout, matching the relation
file format.  Lattice elements are referred to by their position in
``MaxbicliqueLattice.elements``, which is sorted lexicographically by
vertex set so that all derived enumerations are deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import (
    DegenerateRelationError,
    DimensionMismatchError,
    EmptyRelationError,
    FlagCapExceededError,
    NoCycleError,
    NoExtraFacetError,
    NotBipartiteError,
    NotDiamondError,
    NotGradedError,
    RelationFormatError,
)
from .numkernel import as_matrix

DEFAULT_FLAG_CAP = 10**6
DEFAULT_EQ_TOL = 1e-7
DEFAULT_SLACK_TOL = 1e-7

REASON_NOT_GRADED = "not-graded"
REASON_RANK = "lattice-rank"
REASON_DIAMOND = "diamond"
REASON_FLAG_CONNECTIVITY = "flag-connectivity"


@dataclass(frozen=True)
class IncidenceRelation:
    """A relation between facet indices 1..n_facets and vertex indices 1..n_vertices."""

    n_facets: int
    n_vertices: int
    incident: frozenset

    def __post_init__(self):
        if self.n_facets < 1 or self.n_vertices < 1:
            raise EmptyRelationError(
                f"relation needs at least one facet and one vertex, "
                f"got {self.n_facets} facets and {self.n_vertices} vertices"
            )
        for pair in self.incident:
            if not (isinstance(pair, tuple) and len(pair) == 2):
                raise RelationFormatError(f"incidence pair {pair!r} is not a pair")
            i, j = pair
            if not (isinstance(i, int) and isinstance(j, int)):
                raise RelationFormatError(f"incidence pair {pair!r} is not integer")
            if not (1 <= i <= self.n_facets and 1 <= j <= self.n_vertices):
                raise RelationFormatError(
                    f"incidence pair ({i}, {j}) is out of bounds for a "
                    f"{self.n_facets} x {self.n_vertices} relation"
                )

    @classmethod
    def from_pairs(cls, n_facets: int, n_vertices: int, pairs: Iterable) -> "IncidenceRelation":
        return cls(n_facets, n_vertices, frozenset((int(i), int(j)) for i, j in pairs))

    @cached_property
    def _facet_rows(self) -> tuple:
        rows = [set() for _ in range(self.n_facets)]
        for i, j in self.incident:
            rows[i - 1].add(j)
        return tuple(frozenset(r) for r in rows)

    @cached_property
    def _vertex_cols(self) -> tuple:
        cols = [set() for _ in range(self.n_vertices)]
        for i, j in self.incident:
            cols[j - 1].add(i)
        return tuple(frozenset(c) for c in cols)

    @cached_property
    def mask(self) -> np.ndarray:
        """Read-only boolean n x m array, True on the incident pairs."""
        mask = np.zeros((self.n_facets, self.n_vertices), dtype=bool)
        for i, j in self.incident:
            mask[i - 1, j - 1] = True
        mask.setflags(write=False)
        return mask

    def vertices_of_facet(self, i: int) -> frozenset:
        return self._facet_rows[i - 1]

    def facets_of_vertex(self, j: int) -> frozenset:
        return self._vertex_cols[j - 1]

    def facets_of(self, vertices: Iterable[int]) -> frozenset:
        """All facets incident to every vertex of the given set."""
        result = set(range(1, self.n_facets + 1))
        for j in vertices:
            result &= self._vertex_cols[j - 1]
        return frozenset(result)

    def vertices_of(self, facets: Iterable[int]) -> frozenset:
        """All vertices incident to every facet of the given set."""
        result = set(range(1, self.n_vertices + 1))
        for i in facets:
            result &= self._facet_rows[i - 1]
        return frozenset(result)

    def closure(self, vertices: Iterable[int]) -> frozenset:
        """Galois closure of a vertex set: vertices_of(facets_of(S))."""
        return self.vertices_of(self.facets_of(vertices))

    def transpose(self) -> "IncidenceRelation":
        """Swap the facet and vertex roles."""
        return IncidenceRelation(
            self.n_vertices, self.n_facets, frozenset((j, i) for i, j in self.incident)
        )

    def degeneracy_reason(self):
        """Why the relation cannot pass the realizability gate, or None.

        Empty or singleton relations, and relations where some facet
        contains every vertex or some vertex lies on every facet, have a
        collapsed lattice for which the diamond and cycle arguments are
        meaningless.
        """
        if not self.incident:
            return "relation has no incident pairs"
        if len(self.incident) == 1:
            return "relation is a single incident pair"
        for i in range(1, self.n_facets + 1):
            if len(self._facet_rows[i - 1]) == self.n_vertices:
                return f"facet {i} is incident to every vertex"
        for j in range(1, self.n_vertices + 1):
            if len(self._vertex_cols[j - 1]) == self.n_facets:
                return f"vertex {j} is incident to every facet"
        return None

    def require_nondegenerate(self):
        reason = self.degeneracy_reason()
        if reason is not None:
            raise DegenerateRelationError(reason)


@dataclass(frozen=True)
class PatternViolation:
    """One entry breaking the filled incidence pattern (1-based indices)."""

    facet: int
    vertex: int
    value: float
    kind: str  # "fill" for wrong incident entry, "slack" for weak off entry


@dataclass(frozen=True)
class PatternReport:
    ok: bool
    violations: tuple

    def __bool__(self):
        return self.ok


def check_filled_incidence(
    M,
    rel: IncidenceRelation,
    fill: float,
    eq_tol: float = DEFAULT_EQ_TOL,
    slack_tol: float = DEFAULT_SLACK_TOL,
) -> PatternReport:
    """Check that M equals fill on incident pairs and stays below fill elsewhere.

    Incident entries must satisfy |M[i,j] - fill| <= eq_tol, all other
    entries M[i,j] < fill - slack_tol.  The report lists every violating
    entry in row-major order.
    """
    M = as_matrix(M)
    if M.shape != (rel.n_facets, rel.n_vertices):
        raise DimensionMismatchError(
            f"matrix shape {M.shape} does not match the "
            f"{rel.n_facets} x {rel.n_vertices} relation"
        )
    mask = rel.mask
    bad = np.where(mask, np.abs(M - fill) > eq_tol, ~(M < fill - slack_tol))
    violations = tuple(
        PatternViolation(int(i) + 1, int(j) + 1, float(M[i, j]),
                         "fill" if mask[i, j] else "slack")
        for i, j in np.argwhere(bad)
    )
    return PatternReport(not violations, violations)


def relation_to_json_dict(rel: IncidenceRelation) -> dict:
    """Canonical JSON payload; pairs sorted lexicographically."""
    return {
        "facets": rel.n_facets,
        "vertices": rel.n_vertices,
        "incident": [list(p) for p in sorted(rel.incident)],
    }


def relation_from_json_dict(payload) -> IncidenceRelation:
    if not isinstance(payload, dict):
        raise RelationFormatError("relation payload is not a JSON object")
    try:
        n = payload["facets"]
        m = payload["vertices"]
        pairs = payload["incident"]
    except (KeyError, TypeError) as exc:
        raise RelationFormatError(f"missing relation field: {exc}") from exc
    if not isinstance(n, int) or not isinstance(m, int):
        raise RelationFormatError("facet and vertex counts must be integers")
    if not isinstance(pairs, list):
        raise RelationFormatError("incident must be a list of pairs")
    seen = set()
    for p in pairs:
        if not (isinstance(p, list) and len(p) == 2 and all(isinstance(x, int) for x in p)):
            raise RelationFormatError(f"bad incidence pair {p!r}")
        t = (p[0], p[1])
        if t in seen:
            raise RelationFormatError(f"duplicate incidence pair {p!r}")
        seen.add(t)
    try:
        return IncidenceRelation.from_pairs(n, m, seen)
    except EmptyRelationError as exc:
        raise RelationFormatError(str(exc)) from exc


def dump_relation(rel: IncidenceRelation, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(relation_to_json_dict(rel), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_relation(path) -> IncidenceRelation:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise RelationFormatError(f"cannot read relation file {path}: {exc}") from exc
    return relation_from_json_dict(payload)


@dataclass(frozen=True)
class Maxbiclique:
    """A maximal induced biclique: every facet of the pair contains every vertex."""

    facet_set: tuple
    vertex_set: tuple


@dataclass(frozen=True)
class Flag:
    """A maximal chain of lattice elements, bottom to top, as element indices."""

    chain: tuple


@dataclass(frozen=True)
class SuperCycle:
    """d facets meeting in a vertex plus one facet pushing the meet to bottom.

    The first d entries of ``facet_sequence`` form the cycle; partial
    meets descend one rank per step and end at the vertex.  The final
    entry is the extra facet, not incident to the vertex.  ``orientation``
    is the bipartition class of the flag induced by the cycle.
    """

    facet_sequence: tuple
    vertex: int
    induced_flag: Flag
    orientation: int


@dataclass(frozen=True, eq=False)
class MaxbicliqueLattice:
    """All maxbicliques of a relation ordered by vertex-set containment.

    ``elements`` is sorted lexicographically by vertex set.  ``ranks`` is
    None when the lattice is not graded.  Cover lists index into
    ``elements``.  Instances are immutable; all methods are pure.
    """

    relation: IncidenceRelation
    elements: tuple
    upper_covers: tuple = field(repr=False)
    lower_covers: tuple = field(repr=False)
    ranks: object = field(repr=False)
    bottom: int
    top: int
    _vbits: tuple = field(repr=False)
    _index: Mapping = field(repr=False)

    def __len__(self):
        return len(self.elements)

    def leq(self, a: int, b: int) -> bool:
        """Order test: vertex set of a contained in vertex set of b."""
        return (self._vbits[a] & self._vbits[b]) == self._vbits[a]

    def meet(self, a: int, b: int) -> int:
        """Greatest lower bound; closed vertex sets are intersection-closed."""
        return self._index[self._vbits[a] & self._vbits[b]]

    def join(self, a: int, b: int) -> int:
        """Least upper bound: closure of the union of the vertex sets."""
        union = set(self.elements[a].vertex_set) | set(self.elements[b].vertex_set)
        closed = self.relation.closure(union)
        return self._index[_bits_of(closed)]

    @property
    def is_graded(self) -> bool:
        return self.ranks is not None

    def rank_of(self, a: int) -> int:
        if self.ranks is None:
            raise NotGradedError("lattice is not graded")
        return self.ranks[a]

    @property
    def rank(self) -> int:
        if self.ranks is None:
            raise NotGradedError("lattice is not graded")
        return self.ranks[self.top]

    def rank_profile(self) -> tuple:
        """Element counts per rank, bottom to top."""
        counts = [0] * (self.rank + 1)
        for r in self.ranks:
            counts[r] += 1
        return tuple(counts)

    def index_of_vertex_set(self, vertices: Iterable[int]) -> int:
        bits = _bits_of(vertices)
        if bits not in self._index:
            raise KeyError(f"no lattice element with vertex set {sorted(vertices)}")
        return self._index[bits]

    def chain_elements(self, flag: Flag) -> tuple:
        return tuple(self.elements[i] for i in flag.chain)

    def vertex_sets(self) -> frozenset:
        """The family of vertex sets of all elements, as frozensets."""
        return frozenset(frozenset(el.vertex_set) for el in self.elements)


def _bits_of(vertices: Iterable[int]) -> int:
    bits = 0
    for j in vertices:
        bits |= 1 << (j - 1)
    return bits


def _next_closed_set(rel: IncidenceRelation, current: frozenset, m: int):
    """Next Galois-closed vertex set in lectic order, or None when done."""
    for i in range(m, 0, -1):
        if i in current:
            continue
        candidate = frozenset(v for v in current if v < i) | {i}
        closed = rel.closure(candidate)
        if all(v in current for v in closed if v < i):
            return closed
    return None


def build_maxbiclique_lattice(rel: IncidenceRelation) -> MaxbicliqueLattice:
    """Enumerate all maxbicliques of the relation, ordered by vertex set.

    Uses the NextClosure iteration over Galois-closed vertex sets, so the
    closure property ``J = vertices_of(facets_of(J))`` holds for every
    element by construction.  The result is always a complete lattice;
    whether it is graded, diamond, and so on is decided separately.
    """
    m = rel.n_vertices
    closed_sets = []
    current = rel.closure(frozenset())
    while current is not None:
        closed_sets.append(current)
        current = _next_closed_set(rel, current, m)

    elements = []
    for vs in closed_sets:
        fs = rel.facets_of(vs)
        elements.append(Maxbiclique(tuple(sorted(fs)), tuple(sorted(vs))))
    elements.sort(key=lambda el: el.vertex_set)
    elements = tuple(elements)

    vbits = tuple(_bits_of(el.vertex_set) for el in elements)
    index = {bits: k for k, bits in enumerate(vbits)}
    size = len(elements)

    order = sorted(range(size), key=lambda k: (len(elements[k].vertex_set), k))
    bottom = order[0]
    top = index[_bits_of(range(1, m + 1))]

    lower = [[] for _ in range(size)]
    upper = [[] for _ in range(size)]
    for b in range(size):
        below = [a for a in range(size) if a != b and (vbits[a] & vbits[b]) == vbits[a]]
        for a in below:
            if any(
                c != a and (vbits[a] & vbits[c]) == vbits[a] and (vbits[c] & vbits[b]) == vbits[c]
                for c in below
            ):
                continue
            lower[b].append(a)
            upper[a].append(b)
    lower_covers = tuple(tuple(sorted(l)) for l in lower)
    upper_covers = tuple(tuple(sorted(u)) for u in upper)

    ranks = [0] * size
    for k in order:
        if k == bottom:
            continue
        ranks[k] = 1 + max(ranks[a] for a in lower_covers[k])
    graded = all(
        ranks[b] == ranks[a] + 1 for b in range(size) for a in lower_covers[b]
    )

    return MaxbicliqueLattice(
        relation=rel,
        elements=elements,
        upper_covers=upper_covers,
        lower_covers=lower_covers,
        ranks=tuple(ranks) if graded else None,
        bottom=bottom,
        top=top,
        _vbits=vbits,
        _index=index,
    )


def lattice_rank(lat: MaxbicliqueLattice):
    """Rank of a graded lattice (flags have rank+1 elements), else None."""
    if not lat.is_graded:
        return None
    return lat.rank


def check_diamond(lat: MaxbicliqueLattice) -> bool:
    """True iff every rank-2 interval has exactly 4 elements."""
    if not lat.is_graded:
        raise NotGradedError("diamond condition is only defined for graded lattices")
    size = len(lat)
    by_rank = {}
    for k in range(size):
        by_rank.setdefault(lat.ranks[k], []).append(k)
    for b in range(size):
        rb = lat.ranks[b]
        if rb < 2:
            continue
        for a in by_rank.get(rb - 2, ()):
            if not lat.leq(a, b):
                continue
            middles = sum(
                1 for c in by_rank.get(rb - 1, ()) if lat.leq(a, c) and lat.leq(c, b)
            )
            if middles != 2:
                return False
    return True


def check_flag_connected_local(lat: MaxbicliqueLattice) -> bool:
    """Local flag-connectivity test, face by face.

    For every element of rank k >= 2, consider the graph whose nodes are
    the rank k-1 elements below it, with an edge wherever two of them
    meet in rank k-2.  All of these graphs must be connected; this is
    equivalent to connectivity of the full flag graph but avoids
    enumerating flags.
    """
    if not lat.is_graded:
        raise NotGradedError("flag connectivity needs a graded lattice")
    if not check_diamond(lat):
        raise NotDiamondError("flag connectivity needs the diamond condition")
    for a in range(len(lat)):
        k = lat.ranks[a]
        if k < 2:
            continue
        nodes = list(lat.lower_covers[a])
        if len(nodes) <= 1:
            continue
        adj = {x: [] for x in nodes}
        for s in range(len(nodes)):
            for t in range(s + 1, len(nodes)):
                x, y = nodes[s], nodes[t]
                if lat.ranks[lat.meet(x, y)] == k - 2:
                    adj[x].append(y)
                    adj[y].append(x)
        seen = {nodes[0]}
        stack = [nodes[0]]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        if len(seen) != len(nodes):
            return False
    return True


def lattice_gate(rel: IncidenceRelation, d: int = None) -> tuple:
    """Run the lattice conditions; returns (lattice, d, failed reason).

    The reason is None when the relation passes gradedness, rank d+1,
    diamond, and local flag connectivity, else the REASON_* string of
    the first condition that fails.  When d is not supplied it is
    inferred from the lattice rank.  Raises DegenerateRelationError
    for a degenerate relation.
    """
    rel.require_nondegenerate()
    lat = build_maxbiclique_lattice(rel)
    if not lat.is_graded:
        return lat, d, REASON_NOT_GRADED
    if d is None:
        d = lat.rank - 1
    if lat.rank != d + 1:
        return lat, d, REASON_RANK
    if not check_diamond(lat):
        return lat, d, REASON_DIAMOND
    if not check_flag_connected_local(lat):
        return lat, d, REASON_FLAG_CONNECTIVITY
    return lat, d, None


def count_flags(lat: MaxbicliqueLattice) -> int:
    """Number of maximal chains, by path counting over the Hasse diagram."""
    if not lat.is_graded:
        raise NotGradedError("flag counting needs a graded lattice")
    paths = [0] * len(lat)
    paths[lat.bottom] = 1
    order = sorted(range(len(lat)), key=lambda k: lat.ranks[k])
    for k in order:
        if k == lat.bottom:
            continue
        paths[k] = sum(paths[a] for a in lat.lower_covers[k])
    return paths[lat.top]


def enumerate_flags(lat: MaxbicliqueLattice, cap: int = DEFAULT_FLAG_CAP) -> tuple:
    """All flags in a deterministic order (lexicographic by element index)."""
    if not lat.is_graded:
        raise NotGradedError("flag enumeration needs a graded lattice")
    total = count_flags(lat)
    if total > cap:
        raise FlagCapExceededError(total, cap)
    flags = []
    chain = [lat.bottom]

    def descend():
        head = chain[-1]
        if head == lat.top:
            flags.append(Flag(tuple(chain)))
            return
        for nxt in lat.upper_covers[head]:
            chain.append(nxt)
            descend()
            chain.pop()

    descend()
    return tuple(flags)


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


def flag_graph_bipartition(lat: MaxbicliqueLattice, cap: int = DEFAULT_FLAG_CAP) -> dict:
    """Two-color the flag graph; the lexicographically first flag gets class 0.

    Raises NotBipartiteError when the flag graph has an odd cycle.  Each
    connected component is colored starting from its least flag, so the
    result is deterministic even for disconnected flag graphs.
    """
    flags = sorted(enumerate_flags(lat, cap), key=lambda f: f.chain)
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


def _facet_element_index(lat: MaxbicliqueLattice, facet: int) -> int:
    """Lattice element generated by a facet: the closure of its vertex set."""
    closed = lat.relation.closure(lat.relation.vertices_of_facet(facet))
    return lat.index_of_vertex_set(closed)


def cycles_at_vertex(lat: MaxbicliqueLattice, vertex: int) -> Iterator:
    """All facet sequences whose partial meets descend one rank per step to the vertex.

    Sequences are yielded in lexicographic order.  Every facet of a
    cycle contains the vertex; the t-th partial meet has rank d+1-t,
    ending at the vertex atom (rank 1) after d steps.
    """
    if not lat.is_graded:
        raise NotGradedError("cycle search needs a graded lattice")
    d = lat.rank - 1
    rel = lat.relation
    atom = lat.index_of_vertex_set(rel.closure({vertex}))
    if lat.ranks[atom] != 1:
        raise NoCycleError(f"vertex {vertex} does not generate a rank-1 element")
    candidates = sorted(rel.facets_of_vertex(vertex))
    felem = {i: _facet_element_index(lat, i) for i in candidates}

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


def induced_flag(lat: MaxbicliqueLattice, cycle) -> Flag:
    """Flag induced by a cycle: bottom, the partial meets, then top."""
    meets = []
    current = None
    for t, i in enumerate(cycle):
        el = _facet_element_index(lat, i)
        current = el if t == 0 else lat.meet(current, el)
        meets.append(current)
    chain = (lat.bottom, *reversed(meets), lat.top)
    return Flag(chain)


def _facets_avoiding(rel: IncidenceRelation, vertex: int) -> list:
    """Facets not incident to the vertex, ascending: the super-cycle extras."""
    return sorted(set(range(1, rel.n_facets + 1)) - rel.facets_of_vertex(vertex))


def enumerate_super_cycles(
    lat: MaxbicliqueLattice,
    coloring: Mapping,
) -> tuple:
    """Every super cycle of the lattice with its orientation class.

    A super cycle is a cycle at some vertex followed by one facet not
    incident to that vertex (which pushes the total meet to bottom).
    ``coloring`` maps flags to bipartition classes, as produced by
    flag_graph_bipartition.
    """
    rel = lat.relation
    result = []
    for j in range(1, rel.n_vertices + 1):
        others = _facets_avoiding(rel, j)
        for cycle in cycles_at_vertex(lat, j):
            flag = induced_flag(lat, cycle)
            orient = coloring[flag]
            for extra in others:
                result.append(
                    SuperCycle(cycle + (extra,), j, flag, orient)
                )
    return tuple(result)


def enumerate_super_cycles_per_vertex(
    lat: MaxbicliqueLattice,
    rel: IncidenceRelation = None,
    orientation: int = 0,
    cap: int = DEFAULT_FLAG_CAP,
) -> dict:
    """One canonical super cycle per vertex, all of the same orientation.

    For each vertex the lexicographically smallest cycle whose induced
    flag lies in the requested bipartition class is chosen, and the
    smallest facet avoiding the vertex is appended.  Requires a graded
    lattice with a bipartite flag graph.
    """
    if rel is None:
        rel = lat.relation
    coloring = flag_graph_bipartition(lat, cap)
    chosen = {}
    for j in range(1, rel.n_vertices + 1):
        others = _facets_avoiding(rel, j)
        if not others:
            raise NoExtraFacetError(f"every facet is incident to vertex {j}")
        picked = None
        for cycle in cycles_at_vertex(lat, j):
            flag = induced_flag(lat, cycle)
            if coloring[flag] == orientation:
                picked = SuperCycle(cycle + (others[0],), j, flag, orientation)
                break
        if picked is None:
            raise NoCycleError(
                f"no cycle of orientation {orientation} exists at vertex {j}"
            )
        chosen[j] = picked
    return chosen
