"""Incidence relations and their maxbiclique lattice.

The facet-vertex incidence of a polytope determines its whole face
lattice: faces correspond to the maximal induced bicliques of the
relation, ordered by containment of their vertex parts.  This is the
Dedekind-MacNeille completion of the bipartite order between facets and
vertices.  The module builds that lattice and decides the combinatorial
conditions used by the realization pipeline: gradedness and rank, the
diamond property, local flag connectivity (together the lattice gate),
one sign per cover that 2-colors the flags, and the cycle / super cycle
machinery that fixes orientations.  It also checks a matrix against the
relation's filled incidence pattern.

Facet and vertex indices are 1-based throughout, matching the relation
file format.  Lattice elements are referred to by their position in
``MaxbicliqueLattice.elements``, which is sorted lexicographically by
vertex set so that all derived enumerations are deterministic.
"""

from __future__ import annotations

import json
import math
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


def _is_int(x) -> bool:
    """A JSON integer; bool is an int subclass in Python, so it is excluded."""
    return isinstance(x, int) and not isinstance(x, bool)


def relation_from_json_dict(payload) -> IncidenceRelation:
    if not isinstance(payload, dict):
        raise RelationFormatError("relation payload is not a JSON object")
    try:
        n = payload["facets"]
        m = payload["vertices"]
        pairs = payload["incident"]
    except (KeyError, TypeError) as exc:
        raise RelationFormatError(f"missing relation field: {exc}") from exc
    if not _is_int(n) or not _is_int(m):
        raise RelationFormatError("facet and vertex counts must be integers")
    if not isinstance(pairs, list):
        raise RelationFormatError("incident must be a list of pairs")
    seen = set()
    for p in pairs:
        if not (isinstance(p, list) and len(p) == 2 and all(_is_int(x) for x in p)):
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

    @property
    def is_graded(self) -> bool:
        return self.ranks is not None

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

    @cached_property
    def rank2_failure(self):
        """``_rank2_failure``, walked once per lattice: every check reads this.

        Raises NotGradedError for a lattice that is not graded.
        """
        if self.ranks is None:
            raise NotGradedError("diamond and flag conditions need a graded lattice")
        return _rank2_failure(self)

    @cached_property
    def cover_signs(self):
        """{(a, b): +-1} over the covers, or None when the flag graph has an odd cycle.

        In rank order, a parity union-find over the rank-2 walk's groups
        makes s(a,c) s(c,b) = -s(a,c') s(c',b) on every interval [a, b]
        with middles c, c', so adjacent flags' sign products differ.  The
        walk connects each interval's flags, so this fails only where no
        2-coloring exists.  The lexicographically first flag gets product
        +1.  Raises NotDiamondError when the walk fails.
        """
        reason = self.rank2_failure
        if reason is not None:
            raise NotDiamondError(f"flag classes need the rank-2 walk to pass: {reason}")
        lower, signs = self.lower_covers, {}
        for b in sorted(range(len(self)), key=self.ranks.__getitem__):
            parent = {c: (c, 1) for c in lower[b]}  # c: (parent, s(c,b) s(parent,b))

            def root(x):
                sign = 1
                while parent[x][0] != x:
                    x, step = parent[x]
                    sign *= step
                return x, sign

            for a, (c, c2) in _rank2_groups(lower, b).items():
                (r, s), (r2, s2) = root(c), root(c2)
                want = -signs[a, c] * signs[a, c2]  # s(c,b) s(c2,b)
                if r != r2:
                    parent[r] = (r2, s * s2 * want)
                elif s * s2 != want:
                    return None
            signs.update(((c, b), root(c)[1]) for c in lower[b])
        first = [self.bottom]
        while first[-1] != self.top:
            first.append(self.upper_covers[first[-1]][0])
        if _sign_product(signs, first) < 0:
            signs.update(((c, self.top), -signs[c, self.top]) for c in lower[self.top])
        return signs


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


def _sign_product(signs, chain) -> int:
    return math.prod(signs[cover] for cover in zip(chain, chain[1:]))


def _rank2_groups(lower, b) -> dict:
    """{a: the covers c of b above a} over the lower covers a of b's lower covers."""
    groups = {}
    for c in lower[b]:
        for a in lower[c]:
            groups.setdefault(a, []).append(c)
    return groups


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


def check_diamond(lat: MaxbicliqueLattice) -> bool:
    """True iff every rank-2 interval has exactly 4 elements (graded lattices only)."""
    return lat.rank2_failure != REASON_DIAMOND


def check_flag_connected_local(lat: MaxbicliqueLattice) -> bool:
    """Local flag-connectivity test, face by face.

    For every element of rank k >= 2, consider the graph whose nodes are
    the rank k-1 elements below it, with an edge wherever two of them
    meet in rank k-2.  All of these graphs must be connected; this is
    equivalent to connectivity of the full flag graph but avoids
    enumerating flags.
    """
    reason = lat.rank2_failure
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
    reason = lat.rank2_failure
    if reason is None and not _atoms_and_coatoms(lat):
        reason = REASON_ATOMS_COATOMS
    return lat, d, reason


def count_flags(lat: MaxbicliqueLattice) -> int:
    """Number of maximal chains, by path counting over the Hasse diagram."""
    if not lat.is_graded:
        raise NotGradedError("flag counting needs a graded lattice")
    paths = [0] * len(lat)
    paths[lat.bottom] = 1
    for k in sorted(range(len(lat)), key=lat.ranks.__getitem__)[1:]:  # the bottom first
        paths[k] = sum(paths[a] for a in lat.lower_covers[k])
    return paths[lat.top]


def _check_flag_cap(lat: MaxbicliqueLattice, cap: int) -> None:
    if not lat.is_graded:
        raise NotGradedError("flag enumeration needs a graded lattice")
    total = count_flags(lat)
    if total > cap:
        raise FlagCapExceededError(total, cap)


def enumerate_flags(lat: MaxbicliqueLattice, cap: int = DEFAULT_FLAG_CAP) -> tuple:
    """All flags in a deterministic order (lexicographic by element index)."""
    _check_flag_cap(lat, cap)
    chains = [(lat.bottom,)]
    for _ in range(lat.rank):  # graded: every chain reaches the top in rank steps
        chains = [chain + (b,) for chain in chains for b in lat.upper_covers[chain[-1]]]
    return tuple(Flag(chain) for chain in chains)


def _flag_classes(lat: MaxbicliqueLattice, cap: int):
    """flag -> class, 0 when its cover-sign product is +1; errors as flag_graph_bipartition."""
    _check_flag_cap(lat, cap)
    signs = lat.cover_signs
    if signs is None:
        raise NotBipartiteError("flag graph contains an odd cycle")
    return lambda flag: int(_sign_product(signs, flag.chain) < 0)


def flag_graph_bipartition(lat: MaxbicliqueLattice, cap: int = DEFAULT_FLAG_CAP) -> dict:
    """Two-color the flag graph; the lexicographically first flag gets class 0.

    Every flag, in enumerate_flags order, with its class from the cover
    signs.  Raises NotBipartiteError on an odd cycle and NotDiamondError
    when the rank-2 walk fails.
    """
    flag_class = _flag_classes(lat, cap)
    return {flag: flag_class(flag) for flag in enumerate_flags(lat, cap)}


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

    def super_cycles(self, rel: IncidenceRelation) -> tuple:
        """(rows, 0-based extras): each cycle then every facet avoiding its vertex."""
        return np.nonzero(~rel.mask[:, self.vertex - 1].T)


def _cycle_table(lat: MaxbicliqueLattice, flag_class) -> _CycleTable:
    """One walk per vertex, in order, up to ``stop``, over its cycles.

    A cycle at a vertex is a sequence of d facets through it whose
    partial meets descend one rank per step to the vertex atom; each
    vertex's cycles come in lexicographic order.  ``flag_class`` maps
    each induced flag to its bipartition class.
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
    orientation = np.array([flag_class(_induced_flag(lat, m)) for m in meets], dtype=int)
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
    table = _cycle_table(lat, coloring.__getitem__)
    if table.stop is not None:
        raise NoCycleError(f"vertex {table.stop} does not generate a rank-1 element")
    flags = [_induced_flag(lat, m) for m in table.meets.tolist()]
    facets, vertex, orientation = (a.tolist() for a in (table.facets, table.vertex,
                                                         table.orientation))
    rows, extras = table.super_cycles(lat.relation)
    return tuple(
        SuperCycle((*facets[k], extra + 1), vertex[k], flags[k], orientation[k])
        for k, extra in zip(rows.tolist(), extras.tolist())
    )


def enumerate_super_cycles_per_vertex(
    lat: MaxbicliqueLattice,
    orientation: int = 0,
    cap: int = DEFAULT_FLAG_CAP,
) -> dict:
    """One canonical super cycle per vertex, all of the same orientation.

    For each vertex the lexicographically smallest cycle whose induced
    flag lies in the requested bipartition class is chosen, and the
    smallest facet avoiding the vertex is appended.  Requires a graded
    lattice that passes the rank-2 walk, with a bipartite flag graph.
    Raises, for the first vertex that has one, NoExtraFacetError when
    every facet contains it and NoCycleError when it has no such cycle.
    """
    rel = lat.relation
    table = _cycle_table(lat, _flag_classes(lat, cap))
    hits = np.flatnonzero(table.orientation == orientation)
    found, at = np.unique(table.vertex[hits], return_index=True)
    first = dict(zip(found.tolist(), hits[at].tolist()))
    extras = np.argmin(rel.mask, axis=0) + 1
    for j in range(1, rel.n_vertices + 1):
        if rel.mask[:, j - 1].all():
            raise NoExtraFacetError(f"every facet is incident to vertex {j}")
        if j == table.stop:
            raise NoCycleError(f"vertex {j} does not generate a rank-1 element")
        if j not in first:
            raise NoCycleError(f"no cycle of orientation {orientation} exists at vertex {j}")
    return {
        j: SuperCycle((*table.facets[k].tolist(), int(extras[j - 1])), j,
                      _induced_flag(lat, table.meets[k].tolist()), orientation)
        for j, k in first.items()
    }
