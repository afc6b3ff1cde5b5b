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
from typing import Iterable, Mapping

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
REASON_ATOMS_COATOMS = "atoms-coatoms"


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
        meaningless.  A facet with no vertex or a vertex on no facet
        leaves the lattice unchanged, so it would pass the gate unseen.
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
        for i in range(1, self.n_facets + 1):
            if not self._facet_rows[i - 1]:
                return f"facet {i} is incident to no vertex"
        for j in range(1, self.n_vertices + 1):
            if not self._vertex_cols[j - 1]:
                return f"vertex {j} is incident to no facet"
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


def build_maxbiclique_lattice(rel: IncidenceRelation) -> MaxbicliqueLattice:
    """Enumerate all maxbicliques of the relation, ordered by vertex set.

    With each facet row as a vertex bitmask, the Galois-closed vertex
    sets ``J = vertices_of(facets_of(J))`` are exactly the intersections
    of rows, the empty intersection being the full vertex set; they are
    collected by cutting every set found so far with each row in turn.
    The lower covers of b are the maximal sets among its cuts
    ``b & row != b``: each cut is closed, and every closed set strictly
    below b lies in one.  The result is always a complete lattice;
    whether it is graded, diamond, and so on is decided separately.
    """
    m = rel.n_vertices
    rows = [_bits_of(rel.vertices_of_facet(i)) for i in range(1, rel.n_facets + 1)]
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
    bottom = order[0]
    top = index[full]

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
    lower_covers = tuple(lower)
    upper_covers = tuple(tuple(u) for u in upper)

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


def _rank2_failure(lat: MaxbicliqueLattice):
    """REASON_DIAMOND, REASON_FLAG_CONNECTIVITY or None for a graded lattice.

    One walk over the cover lists.  For each element b of rank k >= 2,
    the lower covers a of b's lower covers are grouped by the covers of
    b above them: the interval [a, b] is a diamond iff a's group has
    exactly two members.  Those pairs are the edges of b's local flag
    graph, whose nodes are b's lower covers (two of them meet in rank
    k-2 iff they share a lower cover).  A diamond failure anywhere
    outranks a disconnected local graph.
    """
    lower = lat.lower_covers
    connected = True
    for b in range(len(lat)):
        if lat.ranks[b] < 2:
            continue
        groups = {}
        for c in lower[b]:
            for a in lower[c]:
                groups.setdefault(a, []).append(c)
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


def check_diamond(lat: MaxbicliqueLattice) -> bool:
    """True iff every rank-2 interval has exactly 4 elements."""
    if not lat.is_graded:
        raise NotGradedError("diamond condition is only defined for graded lattices")
    return _rank2_failure(lat) != REASON_DIAMOND


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
    reason = _rank2_failure(lat)
    if reason == REASON_DIAMOND:
        raise NotDiamondError("flag connectivity needs the diamond condition")
    return reason is None


def _atoms_and_coatoms(lat: MaxbicliqueLattice) -> bool:
    """True iff each vertex is an atom and each facet a coatom, of its own.

    Vertex j is an atom of its own iff {j} is closed, and facet i a
    coatom of its own iff no other facet contains i's vertices: the
    elements with one vertex, and those with one facet, are then one
    per vertex and one per facet.  Otherwise a vertex sits inside a
    face or two facets share one face, which no polytope has.
    """
    rel = lat.relation
    return (sum(len(el.vertex_set) == 1 for el in lat.elements) == rel.n_vertices
            and sum(len(el.facet_set) == 1 for el in lat.elements) == rel.n_facets)


def lattice_gate(rel: IncidenceRelation, d: int = None) -> tuple:
    """Run the lattice conditions; returns (lattice, d, failed reason).

    The reason is None when the relation passes gradedness, rank d+1,
    diamond, local flag connectivity, and atoms and coatoms of their
    own, else the REASON_* string of the first condition that fails.
    When d is not supplied it is inferred from the lattice rank.  Raises DegenerateRelationError
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
    reason = _rank2_failure(lat)
    if reason is None and not _atoms_and_coatoms(lat):
        reason = REASON_ATOMS_COATOMS
    return lat, d, reason


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


@dataclass(frozen=True, eq=False)
class _CycleTable:
    """Every cycle of a graded lattice, one row per cycle, vertex-major.

    ``facets`` (C x d) holds the facet sequences, ``vertex`` (C) the
    vertex each meets in, ``meets`` (C x d) the partial meets (column t
    has rank d - t; reversed between bottom and top they are the induced
    flag) and ``orientation`` (C) that flag's bipartition class.  ``stop``
    is the first vertex whose closure is not of rank 1, or None.
    """

    facets: np.ndarray
    vertex: np.ndarray
    meets: np.ndarray
    orientation: np.ndarray
    stop: object


def _cycle_table(lat: MaxbicliqueLattice, coloring: Mapping) -> _CycleTable:
    """One walk per vertex, in order, up to ``stop``, over its cycles.

    A cycle at a vertex is a sequence of d facets through it whose
    partial meets descend one rank per step to the vertex atom; each
    vertex's cycles come in lexicographic order.  ``coloring`` maps flags
    to bipartition classes, as produced by flag_graph_bipartition.
    """
    if not lat.is_graded:
        raise NotGradedError("cycle search needs a graded lattice")
    d = lat.rank - 1
    rel = lat.relation
    ranks, vbits, index = lat.ranks, lat._vbits, lat._index
    felem = [None] + [lat.index_of_vertex_set(rel.vertices_of_facet(i))
                      for i in range(1, rel.n_facets + 1)]
    facets, meets, vertex = [], [], []
    seq, chain = [], []

    def extend(current):  # runs in the vertex loop below, reading its j, atom, candidates
        t = len(seq)
        if t == d:
            if current == atom:
                facets.append(tuple(seq))
                meets.append(tuple(chain))
                vertex.append(j)
            return
        for i in candidates:
            if i in seq:
                continue
            nxt = felem[i] if t == 0 else index[vbits[current] & vbits[felem[i]]]
            if ranks[nxt] == d - t:
                seq.append(i)
                chain.append(nxt)
                extend(nxt)
                seq.pop()
                chain.pop()

    stop = None
    for j in range(1, rel.n_vertices + 1):
        atom = lat.index_of_vertex_set(rel.closure({j}))
        if ranks[atom] != 1:
            stop = j
            break
        candidates = sorted(rel.facets_of_vertex(j))
        extend(None)
    orientation = np.array([coloring[_induced_flag(lat, m)] for m in meets], dtype=int)
    facets, meets = (np.array(a, dtype=int).reshape(len(a), max(d, 0)) for a in (facets, meets))
    return _CycleTable(facets, np.array(vertex, dtype=int), meets, orientation, stop)


def _induced_flag(lat: MaxbicliqueLattice, meets) -> Flag:
    """Flag induced by a cycle: bottom, its partial meets reversed, then top."""
    return Flag((lat.bottom, *reversed(meets), lat.top))


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
    table = _cycle_table(lat, coloring)
    if table.stop is not None:
        raise NoCycleError(f"vertex {table.stop} does not generate a rank-1 element")
    flags = [_induced_flag(lat, m) for m in table.meets.tolist()]
    facets, vertex, orientation = (a.tolist() for a in (table.facets, table.vertex,
                                                         table.orientation))
    rows, extras = np.nonzero(~lat.relation.mask[:, table.vertex - 1].T)
    return tuple(
        SuperCycle((*facets[k], extra + 1), vertex[k], flags[k], orientation[k])
        for k, extra in zip(rows.tolist(), extras.tolist())
    )


def _cycle_per_vertex(lat: MaxbicliqueLattice, orientation: int, cap: int) -> tuple:
    """(cycle table, rows): rows[j - 1] is vertex j's first cycle of the orientation.

    Raises, for the first vertex that has one, NoExtraFacetError when
    every facet contains it and NoCycleError when it has no such cycle.
    """
    rel = lat.relation
    table = _cycle_table(lat, flag_graph_bipartition(lat, cap))
    hits = np.flatnonzero(table.orientation == orientation)
    found, at = np.unique(table.vertex[hits], return_index=True)
    first = dict(zip(found.tolist(), hits[at].tolist()))
    for j in range(1, rel.n_vertices + 1):
        if rel.mask[:, j - 1].all():
            raise NoExtraFacetError(f"every facet is incident to vertex {j}")
        if j == table.stop:
            raise NoCycleError(f"vertex {j} does not generate a rank-1 element")
        if j not in first:
            raise NoCycleError(f"no cycle of orientation {orientation} exists at vertex {j}")
    return table, np.array([first[j] for j in range(1, rel.n_vertices + 1)])


def enumerate_super_cycles_per_vertex(
    lat: MaxbicliqueLattice,
    orientation: int = 0,
    cap: int = DEFAULT_FLAG_CAP,
) -> dict:
    """One canonical super cycle per vertex, all of the same orientation.

    For each vertex the lexicographically smallest cycle whose induced
    flag lies in the requested bipartition class is chosen, and the
    smallest facet avoiding the vertex is appended.  Requires a graded
    lattice with a bipartite flag graph.
    """
    table, rows = _cycle_per_vertex(lat, orientation, cap)
    extras = np.argmin(lat.relation.mask, axis=0) + 1
    return {
        j: SuperCycle((*table.facets[k].tolist(), int(extras[j - 1])), j,
                      _induced_flag(lat, table.meets[k].tolist()), orientation)
        for j, k in enumerate(rows.tolist(), start=1)
    }
