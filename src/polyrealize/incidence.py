"""Incidence relations and their maxbiclique lattice.

The facet-vertex incidence of a polytope determines its whole face
lattice: faces correspond to the maximal induced bicliques of the
relation, ordered by containment of their vertex parts.  This is the
Dedekind-MacNeille completion of the bipartite order between facets and
vertices.  The module builds that lattice and decides the combinatorial
conditions used by the realization pipeline: gradedness and rank, the
diamond property, local flag connectivity (together the lattice gate),
one sign per cover, whose product along a chain 2-colors the flags, and
the cycle / super cycle walk whose chain classes fix orientations.  It
also checks a matrix against the relation's filled incidence pattern.

Facet and vertex indices are 1-based throughout, matching the relation
file format.  Lattice elements are referred to by their row in the
arrays of ``MaxbicliqueLattice``, sorted lexicographically by vertex set
so that all derived enumerations are deterministic.  The lattice holds
element sets as boolean rows and covers as compressed sparse rows, and
every layer above it, flags and cycles included, reads only those
arrays.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
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
    NotBipartiteError,
    NotDiamondError,
    NotGradedError,
    PolyrealizeError,
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
        if not (_is_int(self.n_facets) and _is_int(self.n_vertices)):
            raise RelationFormatError(
                f"facet and vertex counts must be integers, got "
                f"{self.n_facets!r} and {self.n_vertices!r}"
            )
        if self.n_facets < 1 or self.n_vertices < 1:
            raise EmptyRelationError(
                f"relation needs at least one facet and one vertex, "
                f"got {self.n_facets} facets and {self.n_vertices} vertices"
            )
        for pair in self.incident:
            if not (isinstance(pair, tuple) and len(pair) == 2):
                raise RelationFormatError(f"incidence pair {pair!r} is not a pair")
            i, j = pair
            if not (_is_int(i) and _is_int(j)):
                raise RelationFormatError(f"incidence pair {pair!r} is not integer")
            if not (1 <= i <= self.n_facets and 1 <= j <= self.n_vertices):
                raise RelationFormatError(
                    f"incidence pair ({i}, {j}) is out of bounds for a "
                    f"{self.n_facets} x {self.n_vertices} relation"
                )

    @classmethod
    def from_pairs(cls, n_facets: int, n_vertices: int, pairs: Iterable) -> "IncidenceRelation":
        """The relation of the given (facet, vertex) pairs; numpy integers become ints.

        Raises RelationFormatError for any other non-integer index, bool included.
        """
        def index(pair):
            pair = tuple(pair)
            if len(pair) != 2 or not all(_is_int(x) or isinstance(x, np.integer) for x in pair):
                raise RelationFormatError(f"incidence pair {pair!r} is not a pair of integers")
            return int(pair[0]), int(pair[1])

        return cls(n_facets, n_vertices, frozenset(map(index, pairs)))

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

    The lattice is held as arrays with one row per element, the elements
    sorted lexicographically by vertex set.  ``vertex_rows`` (|L| x m) and
    ``facet_rows`` (|L| x n) are read-only boolean masks of each element's
    vertices and facets.  The lower covers of element b are
    ``lower_indices[lower_indptr[b]:lower_indptr[b + 1]]``, ascending
    (compressed sparse rows).  ``ranks`` is a tuple, or None when the
    lattice is not graded.  ``cover_signs`` is aligned with
    ``lower_indices``.  Instances are immutable; all methods are pure.
    """

    relation: IncidenceRelation
    vertex_rows: np.ndarray = field(repr=False)
    facet_rows: np.ndarray = field(repr=False)
    lower_indptr: np.ndarray = field(repr=False)
    lower_indices: np.ndarray = field(repr=False)
    ranks: object = field(repr=False)
    bottom: int
    top: int

    def __len__(self):
        return len(self.vertex_rows)

    @cached_property
    def _rank_order(self) -> list:
        """The elements of a graded lattice by ascending rank, ties by index."""
        return np.argsort(self.ranks, kind="stable").tolist()

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

    @cached_property
    def _rank2(self) -> tuple:
        """``_rank2_walk`` of the lower covers, walked once per lattice.

        Raises NotGradedError for a lattice that is not graded.
        """
        if self.ranks is None:
            raise NotGradedError("diamond and flag conditions need a graded lattice")
        return _rank2_walk(self.lower_indptr, self.lower_indices)

    @property
    def rank2_failure(self):
        """REASON_DIAMOND, REASON_FLAG_CONNECTIVITY or None: every check reads this."""
        return self._rank2[0]

    @cached_property
    def cover_signs(self):
        """One sign +-1 per cover, int8 and aligned with ``lower_indices``, or
        None when the flag graph has an odd cycle.

        In rank order, a parity union-find over the rank-2 walk's groups,
        with the covers as nodes, makes s(a,c) s(c,b) = -s(a,c') s(c',b)
        on every interval [a, b] with middles c, c', so adjacent flags'
        sign products differ.  The walk connects each interval's flags, so
        this fails only where no 2-coloring exists.  The lexicographically
        first flag gets product +1.  Raises NotDiamondError when the walk
        fails.
        """
        reason, groups = self._rank2
        if reason is not None:
            raise NotDiamondError(f"flag classes need the rank-2 walk to pass: {reason}")
        indptr = self.lower_indptr
        # b's groups have their covers (b, c) in b's row, so they split where the rows do
        ends, starts = np.searchsorted(groups[0], indptr).tolist(), indptr.tolist()
        bc, bc2, ca, c2a = (g.tolist() for g in groups)
        signs = [1] * len(self.lower_indices)
        parent, step = list(range(len(signs))), [1] * len(signs)  # s(c,b) s(parent,b)

        def root(x):
            sign = 1
            while parent[x] != x:
                sign *= step[x]
                x = parent[x]
            return x, sign

        for b in self._rank_order:
            for k in range(ends[b], ends[b + 1]):
                (r, s), (r2, s2) = root(bc[k]), root(bc2[k])
                want = -signs[ca[k]] * signs[c2a[k]]  # s(c,b) s(c',b)
                if r != r2:
                    parent[r], step[r] = r2, s * s2 * want
                elif s * s2 != want:
                    return None
            for p in range(starts[b], starts[b + 1]):
                signs[p] = root(p)[1]
        signs = np.array(signs, dtype=np.int8)
        uptr, upper = _csr_transpose(indptr, self.lower_indices)
        first = [self.bottom]
        while first[-1] != self.top:
            first.append(int(upper[uptr[first[-1]]]))
        if np.count_nonzero(signs[_cover_positions(self, np.array([first]))] < 0) % 2:
            signs[starts[self.top]:starts[self.top + 1]] *= -1
        return signs


def _high_bits_of(indices: Iterable[int], count: int) -> int:
    """The mask with bit count - k set for each index k: index 1 is the highest bit."""
    bits = 0
    for k in indices:
        bits |= 1 << (count - k)
    return bits


def _bit_rows(masks, width: int) -> np.ndarray:
    """Each mask's bits, highest first, as a boolean row, all unpacked by one ``np.unpackbits``.

    The rows have ``width`` rounded up to bytes columns; bit b is in
    column -1 - b.
    """
    size = -(-width // 8) or 1
    raw = b"".join(x.to_bytes(size, "big") for x in masks)
    return np.unpackbits(np.frombuffer(raw, np.uint8)).view(bool).reshape(len(masks), 8 * size)


def _csr_gather(indptr: np.ndarray, rows: np.ndarray) -> tuple:
    """(k, p): the entries of the listed rows, row after row, at positions
    p of the compressed sparse rows, each from row ``rows[k]``."""
    start = indptr[rows]
    degree = indptr[rows + 1] - start
    k = np.repeat(np.arange(len(rows)), degree)
    return k, np.arange(k.size) + np.repeat(start + degree - np.cumsum(degree), degree)


def _csr_transpose(indptr: np.ndarray, indices: np.ndarray) -> tuple:
    """(indptr, indices) of the converse: row a lists each b whose row holds a, ascending."""
    size = len(indptr) - 1
    owner = np.repeat(np.arange(size), np.diff(indptr))
    counts = np.bincount(indices, minlength=size)
    return (np.concatenate(([0], np.cumsum(counts))),
            owner[np.argsort(indices, kind="stable")])


def _discover(cutters: list, members: list) -> tuple:
    """(sets, dual, covers): the closed member sets from the top down, numbered
    by discovery, each with the cutters above it and its lower covers as
    discovery numbers (see ``build_maxbiclique_lattice``)."""
    every = (1 << len(cutters)) - 1
    member_of = {1 << j: r for j, r in enumerate(members)}  # keyed by lowest set bit
    cutter_of = {1 << i: r for i, r in enumerate(cutters)}
    sets, dual, duals, cutting, found = [], [], [], [], {}

    def enter(bits):
        """Number a closed set by discovery, with the cutters above it and those cutting it."""
        above, touching, rest = every, 0, bits
        while rest:
            low = rest & -rest
            member = member_of[low]
            above &= member
            touching |= member
            rest ^= low
        found[bits] = len(sets)
        sets.append(bits)
        dual.append(above)
        duals.append(above.bit_count())
        cutting.append(touching & ~above)
        return found[bits]

    enter((1 << len(members)) - 1)
    covers = []  # each member set's lower covers, by discovery index
    for b, bits in enumerate(sets):  # the sets entered below join this loop
        if rest := cutting[b]:
            counts = {}
            while rest:
                low = rest & -rest
                cut = bits & cutter_of[low]
                counts[cut] = counts.get(cut, 0) + 1
                rest ^= low
            base = duals[b]
            below = []
            for cut, k in counts.items():
                c = found.get(cut)
                if c is None:
                    c = enter(cut)
                if k == duals[c] - base:
                    below.append(c)
        else:
            below = [found[0] if 0 in found else enter(0)] if dual[b] != every else []
        covers.append(below)
    return sets, dual, covers


def build_maxbiclique_lattice(rel: IncidenceRelation) -> MaxbicliqueLattice:
    """Enumerate all maxbicliques of the relation, ordered by vertex set.

    With each facet row as a vertex bitmask, the Galois-closed vertex
    sets ``J = vertices_of(facets_of(J))`` are exactly the intersections
    of rows, the empty intersection being the full vertex set.  They are
    discovered from the top down (Lindig's neighbour-based construction):
    each set b, numbered when first found, gets its facet bitmask F_b, the
    facets above b, and the facets T_b that touch b.  Every closed set
    strictly below b lies in a cut ``b & row_i`` by a facet i in T_b but
    not in F_b, or in the empty set when there is no such facet, and each
    cut, itself a closed set, is numbered when first seen.  A cut c is a
    lower cover of b exactly when it is counted |F_c| - |F_b| times, once
    for each facet above c but not above b: each of them cuts b down to
    c, so no cut strictly contains c.  Every closed set but the top is a
    lower cover of another, so the walk from the full set reaches them
    all, and each set costs work in proportion to its own size.  Ranks
    are longest paths up the covers, taken in order of size; the lattice
    is graded exactly when each element's lower covers all have one rank.

    The relation and its transpose have one lattice, with the order
    reversed, so the same steps run on whichever side has fewer members:
    with more facets than vertices, facet sets are cut by vertex columns,
    which yields each element's upper covers and its distance from the
    top, and the lower covers are their converse.  The result is always a
    complete lattice; whether it is graded, diamond, and so on is
    decided separately.

    Index k of n is bit n - k of a mask, so the vertex sets sort
    lexicographically by one integer each: ``2^m + |S| - x - (x & -x)``
    for the mask x of a nonempty set S counts the vertex sets before S,
    and one sort by it turns discovery numbers into element indices.
    The sets stay Python ints while they are cut; the lattice holds
    them as boolean rows and the lower covers as compressed sparse rows
    (see ``MaxbicliqueLattice``), and no per-element object is built.
    """
    n, m = rel.n_facets, rel.n_vertices
    rows = [_high_bits_of(rel.vertices_of_facet(i), m) for i in range(n, 0, -1)]
    cols = [_high_bits_of(rel.facets_of_vertex(j), n) for j in range(m, 0, -1)]
    by_facets = n > m
    cutters, members = (cols, rows) if by_facets else (rows, cols)
    sets, dual, covers = _discover(cutters, members)
    size, full = len(sets), 1 << m
    before = [full + x.bit_count() - x - (x & -x) if x else 0
              for x in (dual if by_facets else sets)]
    order = sorted(range(size), key=before.__getitem__)
    position = [0] * size
    for k, d in enumerate(order):
        position[d] = k
    sets, dual = [sets[d] for d in order], [dual[d] for d in order]
    covers = [covers[d] for d in order]
    for below in covers:  # in place, so that no second copy of the covers is held
        below[:] = sorted(map(position.__getitem__, below))
    unpacked = _bit_rows(dual + sets if by_facets else sets + dual, max(n, m))
    vertex_rows, facet_rows = unpacked[:size, -m:], unpacked[size:, -n:]
    vertex_rows.setflags(write=False)
    facet_rows.setflags(write=False)
    least = sets.index(functools.reduce(operator.and_, cutters))
    most = position[0]

    sizes = [x.bit_count() for x in sets]
    height, graded = [0] * size, True
    for k in sorted(range(size), key=sizes.__getitem__)[1:]:  # after the least member set
        levels = {height[a] for a in covers[k]}
        height[k] = 1 + max(levels)
        graded = graded and len(levels) == 1
    indptr = np.fromiter(itertools.accumulate(map(len, covers), initial=0),
                         dtype=np.intp, count=size + 1)
    indices = np.fromiter(itertools.chain.from_iterable(covers), dtype=np.intp,
                          count=int(indptr[-1]))
    if by_facets:
        indptr, indices = _csr_transpose(indptr, indices)
        height = [height[most] - h for h in height]

    return MaxbicliqueLattice(
        relation=rel,
        vertex_rows=vertex_rows,
        facet_rows=facet_rows,
        lower_indptr=indptr,
        lower_indices=indices,
        ranks=tuple(height) if graded else None,
        bottom=most if by_facets else least,
        top=least if by_facets else most,
    )


def lattice_rank(lat: MaxbicliqueLattice):
    """Rank of a graded lattice (flags have rank+1 elements), else None."""
    if not lat.is_graded:
        return None
    return lat.rank


def _rank2_walk(indptr: np.ndarray, indices: np.ndarray) -> tuple:
    """(reason, groups) of a graded lattice's lower covers, as compressed sparse rows.

    The reason is REASON_DIAMOND, REASON_FLAG_CONNECTIVITY or None.

    One pass of array operations over the covers, read as edges (b, c),
    one per cover.  Every triple (b, c, a) with a a lower cover of c is
    keyed by (b, a); such triples exist only for b of rank at least 2.
    The interval [a, b] is a diamond iff its key occurs exactly twice.
    The two covers c, c' of b above a are then an edge of b's local flag
    graph, whose nodes are b's lower covers (two of them meet two ranks
    below b iff they share a lower cover).  Min-label hooking with
    pointer jumping labels the components of every local graph at
    once, with the covers as nodes, so each local graph is connected iff
    there is one component per element other than the bottom.  A diamond
    failure anywhere outranks a disconnected local graph.

    ``groups`` holds four arrays of cover positions in the compressed
    sparse rows, (b, c), (b, c'), (c, a) and (c', a), one entry per
    interval [a, b], grouped by b and, within b, in the order in which a
    is first reached; it is None on a diamond failure.
    """
    size = len(indptr) - 1
    # the covers (b, c), b ascending and each cover list in order
    b_of = np.repeat(np.arange(size), np.diff(indptr))
    c_of = indices
    # the triples (b, c, a): cover (b, c) once for each cover (c, a) at position below
    cover, below = _csr_gather(indptr, c_of)
    a = c_of[below]
    key = b_of[cover] * size + a
    order = np.argsort(key, kind="stable")
    key = key[order]
    if key.size % 2 or (key[0::2] != key[1::2]).any() or (key[1:-1:2] == key[2::2]).any():
        return REASON_DIAMOND, None
    # each interval's two triples, the intervals in the order their first triple comes
    first = np.argsort(order[0::2])
    one, two = order[0::2][first], order[1::2][first]
    c1, c2 = cover[one], cover[two]
    label = np.arange(c_of.size)
    while True:
        l1, l2 = label[c1], label[c2]
        if (l1 == l2).all():
            break
        # hook the larger root of every split pair below the least root it meets
        np.minimum.at(label, np.maximum(l1, l2), np.minimum(l1, l2))
        while not ((jumped := label[label]) == label).all():
            label = jumped
    roots = np.count_nonzero(label == np.arange(c_of.size))
    reason = None if roots == size - 1 else REASON_FLAG_CONNECTIVITY
    return reason, (c1, c2, below[one], below[two])


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
    face or two facets share one face, which no polytope has.  The
    elements are counted over the lattice's rows.
    """
    rel = lat.relation
    return (np.count_nonzero(lat.vertex_rows.sum(axis=1) == 1) == rel.n_vertices
            and np.count_nonzero(lat.facet_rows.sum(axis=1) == 1) == rel.n_facets)


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


def _paths_down(lat: MaxbicliqueLattice, weights: list) -> list:
    """Entry c sums, over the chains of covers from the top of a graded lattice
    down to c, the product of their covers' ``weights`` (aligned with
    ``lower_indices``), in Python ints, which do not overflow."""
    below, ends = lat.lower_indices.tolist(), lat.lower_indptr.tolist()
    paths = [0] * len(lat)
    paths[lat.top] = 1
    for b in reversed(lat._rank_order):  # the top first
        for p in range(ends[b], ends[b + 1]):
            paths[below[p]] += paths[b] * weights[p]
    return paths


def count_flags(lat: MaxbicliqueLattice) -> int:
    """Number of maximal chains, by path counting over the Hasse diagram."""
    if not lat.is_graded:
        raise NotGradedError("flag counting needs a graded lattice")
    return _paths_down(lat, [1] * len(lat.lower_indices))[lat.bottom]


def _flag_chains(lat: MaxbicliqueLattice, cap: int) -> np.ndarray:
    """Every flag as a row of element indices, bottom to top, rows in lexicographic order.

    The chains are extended from the bottom together, rank by rank,
    through the upper covers, the converse of the lower covers, as
    ``_cycle_table`` extends its chains from the top.  Raises
    FlagCapExceededError when there are more than cap of them.
    """
    total = count_flags(lat)
    if total > cap:
        raise FlagCapExceededError(total, cap)
    uptr, upper = _csr_transpose(lat.lower_indptr, lat.lower_indices)
    chains = np.array([[lat.bottom]])
    for _ in range(lat.rank):  # graded: every chain reaches the top in rank steps
        k, p = _csr_gather(uptr, chains[:, -1])
        chains = np.column_stack([chains[k], upper[p]])
    return chains


def enumerate_flags(lat: MaxbicliqueLattice, cap: int = DEFAULT_FLAG_CAP) -> tuple:
    """All flags in a deterministic order (lexicographic by element index)."""
    return tuple(map(Flag, map(tuple, _flag_chains(lat, cap).tolist())))


def _chain_classes(lat: MaxbicliqueLattice, chains) -> np.ndarray:
    """Class of each chain: 0 when the product of its cover signs is +1, else 1.

    ``chains`` holds element indices, one chain per row from bottom to
    top, each step a cover; all covers are found by one sorted lookup in
    ``lat.cover_signs``.  Raises NotDiamondError when the rank-2 walk
    fails and NotBipartiteError on an odd cycle.
    """
    signs = lat.cover_signs
    if signs is None:
        raise NotBipartiteError("flag graph contains an odd cycle")
    return np.count_nonzero(signs[_cover_positions(lat, chains)] < 0, axis=1) % 2


def _cover_positions(lat: MaxbicliqueLattice, chains) -> np.ndarray:
    """Position in ``lower_indices`` of each cover (a, b) of each chain (a row of
    elements, bottom to top), by one lookup into the keys b * |L| + a, which are sorted."""
    size = len(lat)
    keys = np.repeat(np.arange(size), np.diff(lat.lower_indptr)) * size + lat.lower_indices
    return np.searchsorted(keys, chains[:, 1:] * size + chains[:, :-1])


def flag_graph_bipartition(lat: MaxbicliqueLattice, cap: int = DEFAULT_FLAG_CAP) -> dict:
    """Two-color the flag graph; the lexicographically first flag gets class 0.

    Every flag, in enumerate_flags order, with its class from the cover
    signs.  Raises FlagCapExceededError when the lattice has more than
    cap flags, then NotDiamondError when the rank-2 walk fails and
    NotBipartiteError on an odd cycle.
    """
    chains = _flag_chains(lat, cap)
    classes = _chain_classes(lat, chains)
    return dict(zip(map(Flag, map(tuple, chains.tolist())), classes.tolist()))


@dataclass(frozen=True, eq=False)
class _CycleTable:
    """Every cycle of a graded lattice, one row per cycle, vertex-major.

    ``facets`` (C x d) holds the facet sequences, ``vertex`` (C) the
    vertex each meets in and ``meets`` (C x d) the partial meets (column
    t has rank d - t; reversed between bottom and top they are the
    induced flag).  ``stop`` is the first vertex whose least element is
    not of rank 1, or None.  ``_count_cycles`` gives C without the walk.
    """

    facets: np.ndarray
    vertex: np.ndarray
    meets: np.ndarray
    stop: object

    def super_cycles(self, rel: IncidenceRelation) -> tuple:
        """(rows, 0-based extras): each cycle then every facet avoiding its vertex."""
        return np.nonzero(~rel.mask[:, self.vertex - 1].T)

    def induced_chains(self, lat: MaxbicliqueLattice) -> np.ndarray:
        """The (C x d+2) induced flags as chains: bottom, the meets reversed, top."""
        ends = np.ones((len(self.meets), 1), dtype=int)
        return np.hstack([lat.bottom * ends, self.meets[:, ::-1], lat.top * ends])


def _walked_vertices(lat: MaxbicliqueLattice) -> tuple:
    """(count, stop): the first vertex whose least element is not of rank 1,
    or None, and the count of vertices before it.  A vertex off the bottom
    lies in at most one rank-1 element, and then that is its least.
    Raises NotGradedError on a lattice that is not graded."""
    if not lat.is_graded:
        raise NotGradedError("cycle search needs a graded lattice")
    on_atom = lat.vertex_rows[np.asarray(lat.ranks) == 1].any(axis=0)
    walked = on_atom & ~lat.vertex_rows[lat.bottom]
    if walked.all():
        return len(walked), None
    count = int(np.argmin(walked))
    return count, count + 1


def _cycle_table(lat: MaxbicliqueLattice) -> _CycleTable:
    """Every cycle at the vertices before ``stop``, as labelled chains of covers.

    A cycle at a vertex is a sequence of d facets through it whose
    partial meets descend one rank per step to the vertex atom.  The
    meet of an element x and facet i is x's lower cover c exactly when
    i contains c but not x, so the cycles at vertex j are the chains of
    covers from the top down through elements that contain j, one for
    each choice of a label i in F_c - F_x at every step.  The chains of
    all vertices are extended together, rank by rank; one lexsort puts
    the rows vertex-major, each vertex's cycles in lexicographic order.
    The walk itself has no cap: ``_count_cycles`` gives its size first.
    """
    d = lat.rank - 1
    walked, stop = _walked_vertices(lat)
    vertex = np.arange(walked if d >= 1 else 0)  # 0-based
    current = np.full(len(vertex), lat.top)
    facets, meets = [], []
    for _ in range(d):
        k, p = _csr_gather(lat.lower_indptr, current)
        c = lat.lower_indices[p]
        keep = lat.vertex_rows[c, vertex[k]]
        k, c = k[keep], c[keep]
        step, label = np.nonzero(lat.facet_rows[c] & ~lat.facet_rows[current[k]])
        k, current = k[step], c[step]
        vertex = vertex[k]
        facets, meets = [f[k] for f in facets] + [label + 1], [m[k] for m in meets] + [current]
    order = np.lexsort((*facets[::-1], vertex))
    facets, meets = (np.array(a, dtype=int).T[order].reshape(len(order), max(d, 0))
                     for a in (facets, meets))
    return _CycleTable(facets, vertex[order] + 1, meets, stop)


def _count_cycles(lat: MaxbicliqueLattice, weights=None) -> int:
    """Number of rows of the cycle table of a graded lattice, by one path count,
    each cycle at vertex j counted weights[j - 1] times (once by default).

    A chain of covers from the top down to a rank-1 element gives one
    cycle at each vertex before ``stop`` that the element holds, for
    every choice of labels: |F_c| - |F_x| of them at cover (x, c).
    """
    walked, _ = _walked_vertices(lat)
    if lat.rank < 2:
        return 0
    size = np.count_nonzero(lat.facet_rows, axis=1)
    labels = size[lat.lower_indices] - np.repeat(size, np.diff(lat.lower_indptr))
    paths = _paths_down(lat, labels.tolist())
    atoms = np.flatnonzero(np.asarray(lat.ranks) == 1)
    held = lat.vertex_rows[atoms, :walked]
    held = held.sum(axis=1) if weights is None else held @ np.asarray(weights[:walked])
    return sum(paths[a] * k for a, k in zip(atoms.tolist(), held.tolist()))


def _count_super_cycles(lat: MaxbicliqueLattice) -> int:
    """Number of super cycles the cycle table gives: each cycle at vertex j
    once for every facet that avoids j."""
    rel = lat.relation
    return _count_cycles(lat, rel.n_facets - np.count_nonzero(rel.mask, axis=0))


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
    flag_graph_bipartition; PolyrealizeError names the chain of the
    first induced flag that it lacks.  Raises FlagCapExceededError,
    before any cycle is built, when there are more than DEFAULT_FLAG_CAP
    super cycles.
    """
    if (count := _count_super_cycles(lat)) > DEFAULT_FLAG_CAP:
        raise FlagCapExceededError(count, DEFAULT_FLAG_CAP, "super cycles")
    table = _cycle_table(lat)
    flags = [_induced_flag(lat, m) for m in table.meets.tolist()]
    try:
        orientation = [int(coloring[flag]) for flag in flags]
    except KeyError:
        missing = next(flag for flag in flags if flag not in coloring)
        raise PolyrealizeError(
            f"the coloring has no class for the induced flag {missing.chain}") from None
    if table.stop is not None:
        raise NoCycleError(f"vertex {table.stop} does not generate a rank-1 element")
    facets, vertex = table.facets.tolist(), table.vertex.tolist()
    rows, extras = table.super_cycles(lat.relation)
    return tuple(
        SuperCycle((*facets[k], extra + 1), vertex[k], flags[k], orientation[k])
        for k, extra in zip(rows.tolist(), extras.tolist())
    )

