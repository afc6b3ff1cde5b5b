"""Lattice construction, grading, diamond, flags, and cycles."""

import json
import os
import re
import sys
from math import comb

import numpy as np
import pytest

from polyrealize import (
    IncidenceRelation,
    build_maxbiclique_lattice,
    check_diamond,
    check_flag_connected_local,
    enumerate_flags,
    enumerate_super_cycles,
    flag_graph_bipartition,
    lattice_rank,
)
from polyrealize.errors import (
    DegenerateRelationError,
    EmptyRelationError,
    FlagCapExceededError,
    NoCycleError,
    NotBipartiteError,
    NotDiamondError,
    NotGradedError,
    PolyrealizeError,
    RelationFormatError,
)
from polyrealize.incidence import (
    count_flags,
    dump_relation,
    load_relation,
    relation_from_json_dict,
    relation_to_json_dict,
)

from conftest import (
    cross_polytope,
    cube,
    disjoint_squares,
    disjoint_union,
    hemi_dodecahedron,
    ngon,
    octant_relation,
    pyramid_missing_incidence,
    pyramid_relation,
    random_relation,
    simplex,
    sphere_hull,
    torus7,
    triangular_prism,
)
from oracles import (
    LATTICE_FIELDS,
    _cycles_at_vertex,
    _induced_flag_by_meets,
    brute_force_maxbicliques,
    cover_signs_by_groups,
    covers_by_definition,
    NoExtraFacetError,
    diamond_by_leq_scan,
    elements,
    flag_classes_by_bfs,
    flag_graph_connected_explicit,
    flags_by_upper_covers,
    index_of_vertex_set,
    lattice_by_maximal_cuts,
    lower_covers,
    meet,
    rank2_failure_by_groups,
    super_cycles_by_walk,
    upper_covers,
)


def elements_as_pairs(lat):
    return {(el.facet_set, el.vertex_set) for el in elements(lat)}


def structure_by_vertex_sets(lat):
    """The lattice's covers, ranks, bottom and top, keyed like covers_by_definition."""
    vs = [el.vertex_set for el in elements(lat)]
    return {
        "lower": {vs[b]: [vs[a] for a in lower_covers(lat)[b]] for b in range(len(lat))},
        "upper": {vs[a]: [vs[b] for b in upper_covers(lat)[a]] for a in range(len(lat))},
        "ranks": None if lat.ranks is None else dict(zip(vs, lat.ranks)),
        "bottom": vs[lat.bottom],
        "top": vs[lat.top],
    }


def assert_matches_definitions(rel):
    lat = build_maxbiclique_lattice(rel)
    assert elements_as_pairs(lat) == brute_force_maxbicliques(rel)
    assert structure_by_vertex_sets(lat) == covers_by_definition(rel)


FAMILIES = [simplex(2), simplex(3), simplex(4), cube(3), cube(4), cross_polytope(3),
            *(ngon(n) for n in range(3, 9)), pyramid_relation(), pyramid_missing_incidence(),
            triangular_prism(), octant_relation(), disjoint_squares()]


class TestRelation:
    def test_empty_sides_rejected(self):
        with pytest.raises(EmptyRelationError):
            IncidenceRelation.from_pairs(0, 3, [])
        with pytest.raises(EmptyRelationError):
            IncidenceRelation.from_pairs(3, 0, [])

    def test_out_of_bounds_pair(self):
        with pytest.raises(RelationFormatError):
            IncidenceRelation.from_pairs(2, 2, [(3, 1)])

    def test_degeneracy_reasons(self, pyramid):
        assert pyramid.degeneracy_reason() is None
        assert "no incident pairs" in IncidenceRelation.from_pairs(2, 2, []).degeneracy_reason()
        assert "single" in IncidenceRelation.from_pairs(2, 2, [(1, 1)]).degeneracy_reason()
        full_facet = IncidenceRelation.from_pairs(2, 2, [(1, 1), (1, 2), (2, 1)])
        assert "facet 1" in full_facet.degeneracy_reason()
        with pytest.raises(DegenerateRelationError):
            full_facet.require_nondegenerate()

    def test_galois_maps(self, pyramid):
        assert pyramid.vertices_of_facet(5) == frozenset({1, 2, 3, 4})
        assert pyramid.facets_of_vertex(5) == frozenset({1, 2, 3, 4})
        assert pyramid.vertices_of([1, 2]) == frozenset({2, 5})
        assert pyramid.closure({1}) == frozenset({1})

    def test_json_round_trip(self, tmp_path, pyramid):
        path = tmp_path / "rel.json"
        dump_relation(pyramid, path)
        assert load_relation(path) == pyramid
        payload = json.loads(path.read_text())
        assert payload["incident"] == sorted(payload["incident"])

    def test_json_rejects_garbage(self):
        with pytest.raises(RelationFormatError):
            relation_from_json_dict({"facets": 2, "vertices": 2})
        with pytest.raises(RelationFormatError):
            relation_from_json_dict({"facets": 2, "vertices": 2, "incident": [[1]]})
        with pytest.raises(RelationFormatError):
            relation_from_json_dict(
                {"facets": 2, "vertices": 2, "incident": [[1, 1], [1, 1]]}
            )

    @pytest.mark.parametrize("payload", [
        {"facets": True, "vertices": 2, "incident": [[1, 1], [1, 2]]},
        {"facets": 2, "vertices": False, "incident": [[1, 1]]},
        {"facets": 2, "vertices": 2, "incident": [[True, 1], [1, 2]]},
        {"facets": 2, "vertices": 2, "incident": [[1, 1], [2, True]]},
    ])
    def test_json_rejects_booleans(self, payload):
        # bool is an int subclass in Python; JSON true/false are not counts
        with pytest.raises(RelationFormatError):
            relation_from_json_dict(payload)

    @pytest.mark.parametrize("n, m, incident", [
        (2, 2, frozenset({(True, 1), (1, 2), (2, 2)})),
        (2, 2, frozenset({(1, 1), (2, False)})),
        (True, 2, frozenset({(1, 1)})),
        (2, 2.0, frozenset({(1, 1)})),
    ])
    def test_constructor_rejects_what_the_loader_rejects(self, n, m, incident):
        with pytest.raises(RelationFormatError):
            IncidenceRelation(n, m, incident)

    def test_from_pairs_round_trips_through_json(self):
        rel = IncidenceRelation.from_pairs(2, 2, [(np.int64(1), 1), (1, np.int32(2)), (2, 2)])
        payload = json.loads(json.dumps(relation_to_json_dict(rel)))
        assert payload["incident"] == [[1, 1], [1, 2], [2, 2]]
        assert relation_from_json_dict(payload) == rel

    def test_from_pairs_takes_numpy_integer_rows(self):
        rel = IncidenceRelation.from_pairs(2, 2, np.argwhere(np.eye(2, dtype=bool)) + 1)
        assert rel.incident == {(1, 1), (2, 2)}
        assert all(type(x) is int for pair in rel.incident for x in pair)

    @pytest.mark.parametrize("pairs", [
        [(1.7, 1), (2, 2.9)],
        [(1.0, 1)],
        [(True, 1), (1, 2)],
        [(1, 1), (2, False)],
        [(1, np.True_)],
        [("1", 1)],
        [(1, 1, 1)],
    ], ids=["fractions", "whole-float", "true", "false", "numpy-bool", "string", "triple"])
    def test_from_pairs_rejects_what_the_loader_rejects(self, pairs):
        with pytest.raises(RelationFormatError, match="is not a pair of integers"):
            IncidenceRelation.from_pairs(2, 2, pairs)


class TestLatticeConstruction:
    def test_square_lattice(self, square):
        lat = build_maxbiclique_lattice(square)
        assert len(lat) == 10
        pairs = elements_as_pairs(lat)
        assert ((1, 2, 3, 4), ()) in pairs  # bottom: all facets, no vertex
        assert ((), (1, 2, 3, 4)) in pairs  # top
        atoms = [el for el in elements(lat) if len(el.vertex_set) == 1]
        coatoms = [el for el in elements(lat) if len(el.facet_set) == 1]
        assert len(atoms) == 4 and len(coatoms) == 4

    def test_pyramid_lattice(self, pyramid):
        lat = build_maxbiclique_lattice(pyramid)
        assert len(lat) == 20
        assert lat.rank_profile() == (1, 5, 8, 5, 1)

    def test_single_incident_pair(self):
        # Degenerate but still a (one-element) concept lattice; the
        # realizability pipeline rejects it before getting here.
        rel = IncidenceRelation.from_pairs(1, 1, [(1, 1)])
        lat = build_maxbiclique_lattice(rel)
        assert elements_as_pairs(lat) == {((1,), (1,))}
        assert lattice_rank(lat) == 0

    def test_closure_property_holds(self, pyramid):
        lat = build_maxbiclique_lattice(pyramid)
        for el in elements(lat):
            assert pyramid.closure(el.vertex_set) == frozenset(el.vertex_set)
            assert pyramid.facets_of(el.vertex_set) == frozenset(el.facet_set)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force_on_random_relations(self, seed):
        rng = np.random.default_rng(seed)
        assert_matches_definitions(random_relation(rng))

    @pytest.mark.parametrize("rel", FAMILIES)
    def test_matches_brute_force_on_families(self, rel):
        assert_matches_definitions(rel)

    @pytest.mark.parametrize(
        "rel",
        [pyramid_relation(), ngon(5), simplex(3), disjoint_squares()],
        ids=["pyramid", "pentagon", "simplex3", "disjoint"],
    )
    def test_transpose_anti_isomorphism(self, rel):
        lat = build_maxbiclique_lattice(rel)
        tlat = build_maxbiclique_lattice(rel.transpose())
        swapped = {(el.vertex_set, el.facet_set) for el in elements(tlat)}
        assert swapped == elements_as_pairs(lat)
        def leq(L, x, y):
            return set(elements(L)[x].vertex_set) <= set(elements(L)[y].vertex_set)

        # order reverses: comparable pairs swap direction under the swap map
        tindex = {
            (el.facet_set, el.vertex_set): k for k, el in enumerate(elements(tlat))
        }
        for a, ela in enumerate(elements(lat)):
            for b, elb in enumerate(elements(lat)):
                ta = tindex[(ela.vertex_set, ela.facet_set)]
                tb = tindex[(elb.vertex_set, elb.facet_set)]
                assert leq(lat, a, b) == leq(tlat, tb, ta)

    def test_irreducible_comparability_regenerates_lattice(self, pyramid):
        # The coatom/atom comparability of the lattice is the original
        # relation again, so rebuilding yields an isomorphic lattice.
        lat = build_maxbiclique_lattice(pyramid)
        atoms = [el for el in elements(lat) if lat.ranks[elements(lat).index(el)] == 1]
        coatoms = [
            el for el in elements(lat) if lat.ranks[elements(lat).index(el)] == lat.rank - 1
        ]
        pairs = []
        for fi, co in enumerate(sorted(coatoms, key=lambda e: e.facet_set), start=1):
            for vj, at in enumerate(sorted(atoms, key=lambda e: e.vertex_set), start=1):
                if set(at.vertex_set) <= set(co.vertex_set):
                    pairs.append((fi, vj))
        regen = IncidenceRelation.from_pairs(len(coatoms), len(atoms), pairs)
        relat = build_maxbiclique_lattice(regen)
        assert len(relat) == len(lat)
        assert relat.rank_profile() == lat.rank_profile()


def assert_same_as_maximal_cuts(rel, lat=None):
    """Every field of the lattice (built here unless given), and the
    oracles' views of it, against the maximal cuts, then the oracles'
    ``meet`` and ``index_of_vertex_set`` against the elements' vertex sets."""
    lat = build_maxbiclique_lattice(rel) if lat is None else lat
    ref = lattice_by_maximal_cuts(rel)
    views = {"elements": elements, "lower_covers": lower_covers, "upper_covers": upper_covers}
    for name in LATTICE_FIELDS:
        field = views[name](lat) if name in views else getattr(lat, name)
        assert field == getattr(ref, name), name
    vertex_sets = [el.vertex_set for el in ref.elements]
    position = {vs: k for k, vs in enumerate(vertex_sets)}
    size = len(vertex_sets)
    assert len(lat) == size
    for a, vs in enumerate(vertex_sets):
        assert index_of_vertex_set(lat, reversed(vs)) == a
        for b in {size - 1 - a, (3 * a + 1) % size}:
            assert meet(lat, a, b) == position[tuple(sorted(set(vs) & set(vertex_sets[b])))]


class TestCountingCovers:
    """The counting cover rule against the maximal cuts, field by field."""

    @pytest.mark.parametrize("rel", [*FAMILIES, hemi_dodecahedron(), torus7(), ngon(64),
                                     cube(5), cube(6), cross_polytope(5)])
    def test_families(self, rel):
        assert_same_as_maximal_cuts(rel)

    @pytest.mark.parametrize("seed", range(3))
    def test_sphere_hulls(self, seed):
        for n in range(20, 61, 10):
            assert_same_as_maximal_cuts(sphere_hull(seed, n))

    @pytest.mark.parametrize("seed", range(2))
    def test_large_sphere_hulls(self, seed):
        """About 600 facets on 300 vertices: facet sets cut by vertex columns,
        and vertex sets by facet rows in the transpose."""
        rel = sphere_hull(seed, 300)
        assert_same_as_maximal_cuts(rel)
        assert_same_as_maximal_cuts(rel.transpose())

    def test_large_polygon(self):
        rel = ngon(512)
        assert_same_as_maximal_cuts(rel)
        assert_same_as_maximal_cuts(rel.transpose())

    def test_random_relations(self):
        rng = np.random.default_rng(19)
        relations = [random_relation(rng, max_side=10) for _ in range(600)]
        for rel in relations:
            assert_same_as_maximal_cuts(rel)
        lattices = [build_maxbiclique_lattice(rel) for rel in relations]
        assert sum(rel.degeneracy_reason() is not None for rel in relations) > 100
        assert sum(not lat.is_graded for lat in lattices) > 100
        assert max(len(lat) for lat in lattices) > 100

    @pytest.mark.parametrize("shape", [(4, 9), (6, 10), (7, 7), (9, 9), (9, 4), (10, 6)],
                             ids="{0[0]}x{0[1]}".format)
    def test_either_side_cuts(self, shape):
        """Facet rows cut vertex sets when n <= m, vertex columns cut facet
        sets when n > m; each relation and its transpose take opposite sides
        unless n = m."""
        rng = np.random.default_rng(shape)
        n, m = shape
        for _ in range(100):
            pairs = np.argwhere(rng.random(shape) < rng.uniform(0.2, 0.8)) + 1
            rel = IncidenceRelation.from_pairs(n, m, pairs)
            assert_same_as_maximal_cuts(rel)
            assert_same_as_maximal_cuts(rel.transpose())

    @pytest.mark.parametrize("rel", [cube(5), cross_polytope(5), triangular_prism(), torus7(),
                                     hemi_dodecahedron(), ngon(64)])
    def test_families_transposed(self, rel):
        assert_same_as_maximal_cuts(rel.transpose())

    def test_index_of_vertex_set_outside_the_vertices(self, octant):
        lat = build_maxbiclique_lattice(octant)
        assert index_of_vertex_set(lat, [1, 2]) == index_of_vertex_set(lat, (2, 1))
        for vertices in ([0], [4], [-1], [1, 4], [2, 1, 0]):
            with pytest.raises(KeyError, match=r"no lattice element with vertex set \["):
                index_of_vertex_set(lat, vertices)
        with pytest.raises(KeyError, match=r"vertex set \[0, 1\]"):
            index_of_vertex_set(lat, iter([1, 0]))


def lower_cover_counts(lat) -> dict:
    """{(vertex count, lower cover count): elements}."""
    counts = {}
    for el, below in zip(elements(lat), lower_covers(lat)):
        key = (len(el.vertex_set), len(below))
        counts[key] = counts.get(key, 0) + 1
    return counts


class TestClosedFormCounts:
    """Lattices too large for the definitions, against their face counts."""

    def test_gon_512(self):
        n = 512
        lat = build_maxbiclique_lattice(ngon(n))
        assert_same_as_maximal_cuts(ngon(n), lat)
        assert len(lat) == 2 * n + 2
        assert lat.rank_profile() == (1, n, n, 1)
        assert lower_cover_counts(lat) == {(0, 0): 1, (1, 1): n, (2, 2): n, (n, n): 1}

    def test_cube_8(self):
        d = 8
        lat = build_maxbiclique_lattice(cube(d))
        assert_same_as_maximal_cuts(cube(d), lat)
        assert len(lat) == 3**d + 1 == 6562
        faces = [comb(d, k) * 2 ** (d - k) for k in range(d + 1)]  # k-faces, k = 0..d
        assert lat.rank_profile() == (1, *faces)
        # a k-face has 2k facets for k >= 1, and a vertex covers the bottom
        expected = {(2**k, max(2 * k, 1)): faces[k] for k in range(d + 1)}
        assert lower_cover_counts(lat) == {(0, 0): 1, **expected}

    def test_cross_7(self):
        d = 7
        lat = build_maxbiclique_lattice(cross_polytope(d))
        assert_same_as_maximal_cuts(cross_polytope(d), lat)
        assert len(lat) == 3**d + 1 == 2188
        faces = [comb(d, k) * 2**k for k in range(1, d + 1)]  # simplices on k vertices
        assert lat.rank_profile() == (1, *faces, 1)
        # a simplex on k >= 2 vertices has k facets; the top has 2^d
        expected = {(k, k): faces[k - 1] for k in range(1, d + 1)}
        assert lower_cover_counts(lat) == {(0, 0): 1, **expected, (2 * d, 2**d): 1}


class TestRankAndDiamond:
    def test_ranks(self, square, pyramid):
        assert lattice_rank(build_maxbiclique_lattice(square)) == 3
        assert lattice_rank(build_maxbiclique_lattice(pyramid)) == 4

    def test_two_element_chain(self):
        rel = IncidenceRelation.from_pairs(1, 1, [])
        lat = build_maxbiclique_lattice(rel)
        assert elements_as_pairs(lat) == {((1,), ()), ((), (1,))}
        assert lattice_rank(lat) == 1

    def test_not_graded_reported(self):
        # closed sets {}, {1}, {1,2}, {3}, {1,2,3}: maximal chains of
        # lengths 4 and 3
        rel = IncidenceRelation.from_pairs(3, 3, [(1, 1), (1, 2), (2, 1), (3, 3)])
        lat = build_maxbiclique_lattice(rel)
        assert lattice_rank(lat) is None
        with pytest.raises(NotGradedError):
            check_diamond(lat)
        with pytest.raises(NotGradedError):
            enumerate_flags(lat)

    def test_diamond_boolean_two_atoms(self):
        rel = IncidenceRelation.from_pairs(2, 2, [(1, 1), (2, 2)])
        lat = build_maxbiclique_lattice(rel)
        assert lattice_rank(lat) == 2
        assert check_diamond(lat)

    def test_diamond_pyramid(self, pyramid):
        assert check_diamond(build_maxbiclique_lattice(pyramid))

    def test_diamond_fails_with_deleted_incidence(self):
        lat = build_maxbiclique_lattice(pyramid_missing_incidence())
        assert lattice_rank(lat) == 4
        assert not check_diamond(lat)


def test_one_rank2_walk_per_lattice(monkeypatch, pyramid):
    from polyrealize import grunbaum_oracle, incidence
    from polyrealize.incidence import lattice_gate

    from conftest import PYRAMID_VERTICES

    walked = []
    walk = incidence._rank2_walk
    monkeypatch.setattr(incidence, "_rank2_walk",
                        lambda *csr: walked.append(csr) or walk(*csr))
    lat, _, reason = lattice_gate(pyramid)
    assert reason is None
    assert check_diamond(lat) and check_flag_connected_local(lat)
    assert grunbaum_oracle(PYRAMID_VERTICES, lat)
    assert len(walked) == 1
    assert walked[0][0] is lat.lower_indptr and walked[0][1] is lat.lower_indices
    assert lat.cover_signs is not None
    assert super_cycles_by_walk(lat, flag_graph_bipartition(lat), 0)
    assert len(walked) == 1
    assert check_diamond(build_maxbiclique_lattice(pyramid))
    assert len(walked) == 2


class TestFlagConnectivity:
    @pytest.mark.parametrize(
        "rel,expected",
        [
            (ngon(4), True),
            (pyramid_relation(), True),
            (disjoint_squares(), False),
        ],
    )
    def test_local_condition(self, rel, expected):
        lat = build_maxbiclique_lattice(rel)
        assert check_flag_connected_local(lat) is expected

    @pytest.mark.parametrize(
        "rel",
        [simplex(2), simplex(3), ngon(5), ngon(8), pyramid_relation(), disjoint_squares()],
    )
    def test_agrees_with_explicit_flag_graph(self, rel):
        lat = build_maxbiclique_lattice(rel)
        flags = enumerate_flags(lat)
        assert check_flag_connected_local(lat) == flag_graph_connected_explicit(flags)


def _random_graded_lattices():
    """Every graded lattice among 60 random relations."""
    rng = np.random.default_rng(0)
    lattices = [build_maxbiclique_lattice(random_relation(rng)) for _ in range(60)]
    return [lat for lat in lattices if lat.is_graded]


class TestRankTwoWalk:
    """check_diamond and check_flag_connected_local against the definitions."""

    random_lattices = _random_graded_lattices()
    lattices = [build_maxbiclique_lattice(rel) for rel in FAMILIES] + random_lattices

    def test_random_draws_cover_both_outcomes(self):
        assert len(self.random_lattices) == 44
        assert sum(not diamond_by_leq_scan(lat) for lat in self.random_lattices) == 22

    def test_diamond_matches_leq_scan(self):
        for lat in self.lattices:
            assert check_diamond(lat) == diamond_by_leq_scan(lat)

    def test_flag_connectivity_matches_explicit_flag_graph(self):
        disconnected = 0
        for lat in self.lattices:
            if not diamond_by_leq_scan(lat):
                with pytest.raises(NotDiamondError):
                    check_flag_connected_local(lat)
                continue
            expected = flag_graph_connected_explicit(enumerate_flags(lat))
            assert check_flag_connected_local(lat) == expected
            disconnected += not expected
        assert disconnected > 0

    def test_flag_check_needs_the_diamond_condition(self):
        lat = build_maxbiclique_lattice(pyramid_missing_incidence())
        with pytest.raises(NotDiamondError):
            check_flag_connected_local(lat)


def signs_by_cover(lat) -> dict:
    """``lat.cover_signs`` read back through the compressed sparse rows as
    {(a, b): s(a, b)}, or None."""
    signs = lat.cover_signs
    if signs is None:
        return None
    assert signs.dtype == np.int8 and signs.shape == lat.lower_indices.shape
    upper = np.repeat(np.arange(len(lat)), np.diff(lat.lower_indptr))
    return dict(zip(zip(lat.lower_indices.tolist(), upper.tolist()), signs.tolist()))


def assert_walk_matches_groups(lat) -> str:
    """The array walk's reason and cover signs against the element-by-element
    reference; returns the reason, or "not-graded"."""
    if not lat.is_graded:
        return "not-graded"
    reason = lat.rank2_failure
    assert reason == rank2_failure_by_groups(lat)
    if reason is None:
        assert signs_by_cover(lat) == cover_signs_by_groups(lat)
    return reason


# pairs of polytopes of one rank: the union's lattice is graded and its
# top's local flag graph falls apart into the two boundaries
POLYTOPES_BY_RANK = {
    3: [ngon(3), ngon(4), ngon(7)],
    4: [simplex(3), cube(3), cross_polytope(3), pyramid_relation(), triangular_prism()],
}


class TestArrayWalk:
    """The rank-2 walk on cover arrays against the reference walk."""

    @pytest.mark.parametrize("rel", [
        *FAMILIES, torus7(), hemi_dodecahedron(), ngon(256), cube(7),
        disjoint_union(ngon(128), ngon(128)),
    ])
    def test_families(self, rel):
        assert_walk_matches_groups(build_maxbiclique_lattice(rel))

    @pytest.mark.parametrize("rel,reason", [
        (disjoint_squares(), "flag-connectivity"),
        (pyramid_missing_incidence(), "diamond"),
        (ngon(256), None),
        (disjoint_union(ngon(128), ngon(128)), "flag-connectivity"),
        (cube(7), None),
        (hemi_dodecahedron(), None),
    ], ids=["squares-disjoint", "pyramid-minus", "gon-256", "gons-128-disjoint", "cube-7",
            "hemi-dodecahedron"])
    def test_reasons(self, rel, reason):
        assert assert_walk_matches_groups(build_maxbiclique_lattice(rel)) == reason

    def test_random_relations(self):
        rng = np.random.default_rng(20)
        reasons = []
        for _ in range(3000):
            rel = random_relation(rng)
            lat = build_maxbiclique_lattice(rel)
            reasons.append(assert_walk_matches_groups(lat))
            assert_same_as_maximal_cuts(rel, lat)
        assert {r: reasons.count(r) for r in set(reasons)} == {
            "not-graded": 737, "diamond": 821, None: 1442}

    def test_disjoint_unions(self):
        reasons = [
            assert_walk_matches_groups(build_maxbiclique_lattice(disjoint_union(a, b)))
            for family in POLYTOPES_BY_RANK.values() for a in family for b in family
        ]
        assert reasons == ["flag-connectivity"] * 34

    def test_lattices_below_rank_two(self):
        for rel in (IncidenceRelation.from_pairs(1, 1, []),
                    IncidenceRelation.from_pairs(2, 2, [(1, 1), (2, 2)])):
            lat = build_maxbiclique_lattice(rel)
            assert lat.rank <= 2 and assert_walk_matches_groups(lat) is None


def assert_flags_match_the_tuple_walk(lat) -> bool:
    """``enumerate_flags`` of a graded lattice, and the keys of
    ``flag_graph_bipartition`` where it colors the flags, against the walk
    over the oracles' upper-cover tuples, repr for repr; True when colored."""
    flags = flags_by_upper_covers(lat)
    assert repr(enumerate_flags(lat)) == repr(flags)
    try:
        coloring = flag_graph_bipartition(lat)
    except (NotDiamondError, NotBipartiteError):
        return False
    assert repr(tuple(coloring)) == repr(flags)
    return True


class TestFlags:
    @pytest.mark.parametrize("rel", [*FAMILIES, *(rel.transpose() for rel in FAMILIES)])
    def test_families_match_the_tuple_walk(self, rel):
        lat = build_maxbiclique_lattice(rel)
        if not lat.is_graded:
            with pytest.raises(NotGradedError):
                enumerate_flags(lat)
            return
        assert_flags_match_the_tuple_walk(lat)

    def test_random_relations_match_the_tuple_walk(self):
        rng = np.random.default_rng(0)
        relations = [random_relation(rng) for _ in range(600)]
        colored = []
        for rel in relations + [rel.transpose() for rel in relations]:
            lat = build_maxbiclique_lattice(rel)
            if lat.is_graded:
                colored.append(assert_flags_match_the_tuple_walk(lat))
        # graded lattices, and those whose flags are colored
        assert (len(colored), sum(colored)) == (880, 544)

    def test_flag_counts(self, square, pyramid):
        slat = build_maxbiclique_lattice(square)
        plat = build_maxbiclique_lattice(pyramid)
        assert count_flags(slat) == 8
        assert len(enumerate_flags(slat)) == 8
        # 8 edges, each with 2 vertices and 2 facets
        assert count_flags(plat) == 32
        assert len(enumerate_flags(plat)) == 32

    def test_single_flag_chain(self):
        rel = IncidenceRelation.from_pairs(1, 1, [])
        lat = build_maxbiclique_lattice(rel)
        flags = enumerate_flags(lat)
        assert len(flags) == 1

    def test_cap_enforced(self, pyramid):
        with pytest.raises(FlagCapExceededError):
            enumerate_flags(build_maxbiclique_lattice(pyramid), cap=10)

    def test_flags_are_maximal_chains(self, pyramid):
        lat = build_maxbiclique_lattice(pyramid)
        for flag in enumerate_flags(lat):
            assert len(flag.chain) == lat.rank + 1
            assert flag.chain[0] == lat.bottom
            assert flag.chain[-1] == lat.top
            for a, b in zip(flag.chain, flag.chain[1:]):
                assert b in upper_covers(lat)[a]

    def test_flag_regularity(self):
        # in a graded diamond lattice of rank r every flag has r-1 neighbors
        for rel in [ngon(4), ngon(7), pyramid_relation(), simplex(3)]:
            lat = build_maxbiclique_lattice(rel)
            assert check_diamond(lat)
            flags = enumerate_flags(lat)
            chains = [set(f.chain) for f in flags]
            for a in range(len(flags)):
                neighbors = sum(
                    1 for b in range(len(flags)) if a != b and len(chains[a] - chains[b]) == 1
                )
                assert neighbors == lat.rank - 1


class TestBipartition:
    def test_square_classes(self, square):
        lat = build_maxbiclique_lattice(square)
        coloring = flag_graph_bipartition(lat)
        values = list(coloring.values())
        assert values.count(0) == 4 and values.count(1) == 4
        first = min(coloring, key=lambda f: f.chain)
        assert coloring[first] == 0

    def test_pyramid_classes(self, pyramid):
        lat = build_maxbiclique_lattice(pyramid)
        coloring = flag_graph_bipartition(lat)
        values = list(coloring.values())
        assert values.count(0) == 16 and values.count(1) == 16

    def test_neighbors_get_opposite_colors(self, pyramid):
        lat = build_maxbiclique_lattice(pyramid)
        coloring = flag_graph_bipartition(lat)
        flags = list(coloring)
        chains = {f: set(f.chain) for f in flags}
        for a in flags:
            for b in flags:
                if a is not b and len(chains[a] - chains[b]) == 1:
                    assert coloring[a] != coloring[b]

    def test_single_flag_trivial(self):
        rel = IncidenceRelation.from_pairs(1, 1, [])
        lat = build_maxbiclique_lattice(rel)
        coloring = flag_graph_bipartition(lat)
        assert list(coloring.values()) == [0]


def _walk_passing_random_relations() -> list:
    """The graded relations among 400 seeded draws that pass the rank-2 walk."""
    rng = np.random.default_rng(0)
    relations = [random_relation(rng) for _ in range(400)]
    return [rel for rel in relations
            if (lat := build_maxbiclique_lattice(rel)).is_graded and lat.rank2_failure is None]


class TestCoverSigns:
    """flag_graph_bipartition from the cover signs against the BFS coloring."""

    families = [rel for rel in FAMILIES
                if build_maxbiclique_lattice(rel).rank2_failure is None]
    random_relations = _walk_passing_random_relations()

    @staticmethod
    def _assert_matches_bfs(rel):
        lat = build_maxbiclique_lattice(rel)
        expected = flag_classes_by_bfs(enumerate_flags(lat))
        assert list(flag_graph_bipartition(lat).items()) == list(expected.items())

    @pytest.mark.parametrize("rel", [*families, simplex(5), cube(5), cross_polytope(4), torus7()])
    def test_families(self, rel):
        self._assert_matches_bfs(rel)

    @pytest.mark.parametrize("seed", range(6))
    def test_sphere_hulls(self, seed):
        for n in range(6, 21, 2):
            self._assert_matches_bfs(sphere_hull(seed, n))

    def test_random_relations(self):
        assert len(self.random_relations) == 170
        for rel in self.random_relations:
            self._assert_matches_bfs(rel)

    def test_hemi_dodecahedron_has_no_signs(self):
        lat = build_maxbiclique_lattice(hemi_dodecahedron())
        assert lat.rank2_failure is None and lat.cover_signs is None
        with pytest.raises(NotBipartiteError):
            flag_classes_by_bfs(enumerate_flags(lat))
        with pytest.raises(NotBipartiteError):
            flag_graph_bipartition(lat)

    def test_gate_and_search_never_compute_the_signs(self, pyramid):
        from polyrealize import realizability_check
        from polyrealize.incidence import lattice_gate

        lat, _, reason = lattice_gate(pyramid)
        verdict = realizability_check(pyramid)
        assert reason is None and verdict.status == "realized"
        assert "cover_signs" not in vars(lat) and "cover_signs" not in vars(verdict.lattice)
        assert lat.cover_signs is not None and "cover_signs" in vars(lat)

    def test_gate_and_check_build_no_objects(self, monkeypatch, pyramid):
        """The lattices of the gate, the search, the check sequence and the
        Gramian path equal the maximal cuts' in every field.  The Gramian
        verifiers' cover signs are one int8 per cover."""
        from polyrealize import (
            BilinearForm,
            FilledIncidenceMatrix,
            GramianCandidate,
            cone_to_polytope_matrix,
            gale_dual_polytope,
            gramian,
            gramian_of_cone,
            grunbaum_oracle,
            polytope_to_cone_matrix,
            realizability_check,
            realize_cone_from_gramian,
            realize_from_matrix,
            verify_gramian_conditions,
            verify_hyperbolic_conditions,
            verify_spherical_conditions,
        )
        from polyrealize.incidence import lattice_gate

        lattices = []
        for rel in (pyramid, cube(3)):
            lat, _, reason = lattice_gate(rel)
            verdict = realizability_check(rel)
            assert reason is None and verdict.status == "realized"
            lattices += [(rel, lat), (rel, verdict.lattice)]
        rel = cube(4)
        lat, d, reason = lattice_gate(rel)
        W = np.array([[1.0 if (v >> k) & 1 else -1.0 for v in range(16)] for k in range(4)])
        H = np.kron(np.eye(4), [1.0, -1.0])  # facets 2k+1 and 2k+2 fix coordinate k at +-1
        fim = FilledIncidenceMatrix(H.T @ W, rel, 1.0)
        real = realize_from_matrix(fim, d)
        cone_to_polytope_matrix(polytope_to_cone_matrix(fim))
        gale_dual_polytope(fim.matrix)
        assert reason is None and grunbaum_oracle(real.W, lat)
        lattices.append((rel, lat))
        verified, gate = [], gramian.lattice_gate

        def captured_gate(rel, d):
            verified.append(gate(rel, d))
            return verified[-1]

        monkeypatch.setattr(gramian, "lattice_gate", captured_gate)
        rel = cube(3)
        # the cone over [-1, 1]^3: facet 2k+1 has normal (e_k, -1), facet 2k+2 (-e_k, -1)
        H = np.vstack([np.kron(np.eye(3), [1.0, -1.0]), -np.ones(6)])
        G = gramian_of_cone(H, BilinearForm.euclidean(4))
        cand = GramianCandidate(G, BilinearForm.euclidean(4), rel, 3)
        assert verify_gramian_conditions(cand).passed
        assert verify_spherical_conditions(rel, G, 3).passed
        assert verify_hyperbolic_conditions(rel, [], G, 3).check("lattice").passed
        assert realize_cone_from_gramian(cand).W.shape == (4, 8)
        assert len(verified) == 3
        for lat, _, _ in verified:
            assert lat.cover_signs.dtype == np.int8
            assert lat.cover_signs.shape == (len(lat.lower_indices),)
            lattices.append((rel, lat))
        monkeypatch.undo()
        for rel, lat in lattices:
            assert_same_as_maximal_cuts(rel, lat)

    @pytest.mark.parametrize("rel,reason", [
        (disjoint_squares(), "flag-connectivity"),
        (pyramid_missing_incidence(), "diamond"),
    ])
    def test_walk_failure_raises(self, rel, reason):
        lat = build_maxbiclique_lattice(rel)
        for call in (flag_graph_bipartition,
                     lambda lat: super_cycles_by_walk(lat, flag_graph_bipartition(lat), 0)):
            with pytest.raises(NotDiamondError, match=reason):
                call(lat)


class TestSuperCycles:
    def test_octant(self, octant):
        lat = build_maxbiclique_lattice(octant)
        cycles = super_cycles_by_walk(lat, flag_graph_bipartition(lat), 0)
        assert set(cycles) == {1, 2, 3}
        for j, sc in cycles.items():
            assert len(sc.facet_sequence) == 3
            assert sc.orientation == 0
            cycle, extra = sc.facet_sequence[:-1], sc.facet_sequence[-1]
            assert set(cycle) == octant.facets_of_vertex(j)
            assert extra == j  # the only facet missing ray j

    def test_coloring_without_an_induced_flag(self, pyramid):
        lat = build_maxbiclique_lattice(pyramid)
        first = enumerate_super_cycles(lat, flag_graph_bipartition(lat))[0].induced_flag
        with pytest.raises(PolyrealizeError, match=re.escape(f"induced flag {first.chain}")):
            enumerate_super_cycles(lat, {})

    def test_pyramid_apex_extra_is_base(self, pyramid):
        lat = build_maxbiclique_lattice(pyramid)
        cycles = super_cycles_by_walk(lat, flag_graph_bipartition(lat), 0)
        apex = cycles[5]
        assert apex.facet_sequence[-1] == 5
        assert set(apex.facet_sequence[:-1]) <= {1, 2, 3, 4}

    def test_square_rank_two_case(self, square):
        lat = build_maxbiclique_lattice(square)
        cycles = super_cycles_by_walk(lat, flag_graph_bipartition(lat), 0)
        for j, sc in cycles.items():
            assert len(sc.facet_sequence) == 3
            assert set(sc.facet_sequence[:-1]) == square.facets_of_vertex(j)
            assert sc.facet_sequence[-1] not in square.facets_of_vertex(j)

    def test_same_orientation_across_vertices(self, pyramid):
        lat = build_maxbiclique_lattice(pyramid)
        for orientation in (0, 1):
            cycles = super_cycles_by_walk(lat, flag_graph_bipartition(lat), orientation)
            assert {sc.orientation for sc in cycles.values()} == {orientation}

    def test_no_extra_facet(self):
        # 2 facets x 2 vertices, all incident except one pair: vertex 1
        # lies on both facets, so no super cycle exists there
        rel = IncidenceRelation.from_pairs(2, 2, [(1, 1), (1, 2), (2, 1)])
        lat = build_maxbiclique_lattice(rel)
        with pytest.raises((NoExtraFacetError, NotGradedError)):
            super_cycles_by_walk(lat, flag_graph_bipartition(lat), 0)


def _gramian_workload_relations() -> dict:
    """The relations of the benchmark's gramian workload at seeds 0 and 8."""
    bench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
    sys.path.insert(0, bench)
    try:
        import workloads
    finally:
        sys.path.remove(bench)
    return {f"{op.name}@{seed}": op.relation
            for seed in (0, 8) for op in workloads.gramian_ops(seed)}


# conftest families, then relations that make the walk or a pick fail:
# not graded, a vertex inside an edge or on no facet, a vertex on every
# facet, duplicate facets, the segment (one flag per vertex), failures at
# two vertices in either order, a broken diamond, disjoint squares and a
# non-bipartite flag graph
WALK_RELATIONS = {
    "simplex-2": simplex(2), "simplex-3": simplex(3), "simplex-4": simplex(4),
    "square": cube(2), "cube-3": cube(3), "cross-3": cross_polytope(3),
    "gon-3": ngon(3), "gon-5": ngon(5), "gon-8": ngon(8), "prism": triangular_prism(),
    "pyramid": pyramid_relation(), "octant": octant_relation(),
    "not-graded": IncidenceRelation.from_pairs(3, 3, [(1, 1), (1, 2), (2, 1), (3, 3)]),
    "vertex-inside-edge": IncidenceRelation.from_pairs(4, 5, [*cube(2).incident, (1, 5)]),
    "vertex-on-no-facet": IncidenceRelation.from_pairs(4, 5, ngon(4).incident),
    "vertex-on-every-facet": IncidenceRelation.from_pairs(2, 2, [(1, 1), (1, 2), (2, 1)]),
    "duplicate-facet": IncidenceRelation.from_pairs(3, 2, [(1, 1), (2, 2), (3, 1)]),
    "segment": IncidenceRelation.from_pairs(2, 2, [(1, 1), (2, 2)]),
    "segment-then-loose-vertex": IncidenceRelation.from_pairs(2, 3, [(1, 1), (2, 2)]),
    "loose-vertex-then-apex": IncidenceRelation.from_pairs(
        2, 4, [(1, 2), (2, 2), (1, 3), (2, 4)]),
    "pyramid-missing-incidence": pyramid_missing_incidence(),
    "disjoint-squares": disjoint_squares(),
    "hemi-dodecahedron": hemi_dodecahedron(),
    **_gramian_workload_relations(),
}


def _outcome(call):
    """repr of the result, or the type and message of what it raised; repr
    also tells a numpy integer from a Python int."""
    try:
        return repr(call())
    except Exception as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("name", list(WALK_RELATIONS))
def test_super_cycles_match_the_walk(name):
    """The enumeration against one object per super cycle built by a
    depth-first walk, errors and their precedence included."""
    lat = build_maxbiclique_lattice(WALK_RELATIONS[name])
    try:
        coloring = flag_graph_bipartition(lat)
    except Exception:
        coloring = {}
    assert _outcome(lambda: enumerate_super_cycles(lat, coloring)) == \
        _outcome(lambda: super_cycles_by_walk(lat, coloring))


def assert_cycle_table_matches_the_walk(lat):
    """The cycle table's rows (facets, vertex, partial meets), their order,
    its stop and the cycle count against the depth-first walk, vertex by
    vertex, of a graded lattice."""
    from polyrealize.incidence import _count_cycles, _cycle_table

    rows, stop = [], None
    for j in range(1, lat.relation.n_vertices + 1):
        try:
            cycles = list(_cycles_at_vertex(lat, j))
        except NoCycleError:
            stop = j
            break
        rows += [(cycle, j, _induced_flag_by_meets(lat, cycle).chain[-2:0:-1])
                 for cycle in cycles]
    table = _cycle_table(lat)
    assert table.stop == stop
    assert table.facets.shape == table.meets.shape == (len(rows), max(lat.rank - 1, 0))
    assert list(zip(map(tuple, table.facets.tolist()), table.vertex.tolist(),
                    map(tuple, table.meets.tolist()))) == rows
    assert _count_cycles(lat) == len(rows)
    return stop, len(rows)


class TestCycleTable:
    """The cycle table from labelled chains of covers against the walk by meets."""

    @pytest.mark.parametrize("rel", [*FAMILIES, *(rel.transpose() for rel in FAMILIES)])
    def test_families(self, rel):
        assert_cycle_table_matches_the_walk(build_maxbiclique_lattice(rel))

    def test_random_relations(self):
        rng = np.random.default_rng(0)
        relations = [random_relation(rng) for _ in range(3000)]
        found = []
        for rel in relations + [rel.transpose() for rel in relations]:
            lat = build_maxbiclique_lattice(rel)
            if lat.is_graded:
                found.append(assert_cycle_table_matches_the_walk(lat))
        # graded lattices, those walked to the last vertex, those with a cycle
        assert (len(found), sum(stop is None for stop, _ in found),
                sum(count > 0 for _, count in found)) == (4446, 1182, 1642)


def _has_cover_signs(rel) -> bool:
    lat = build_maxbiclique_lattice(rel)
    return lat.is_graded and lat.rank2_failure is None and lat.cover_signs is not None


SIGNED_RELATIONS = {name: rel for name, rel in {**WALK_RELATIONS, "cube-5": cube(5)}.items()
                    if _has_cover_signs(rel)}


@pytest.mark.parametrize("name", list(SIGNED_RELATIONS))
def test_cycle_classes_match_the_flag_coloring(name):
    """Each cycle's class on the Gramian path against the class of its
    induced flag among the enumerated flags.  A chain that is not a run
    of covers gets some sign without an error, so only this catches it."""
    from polyrealize.gramian import _verify
    from polyrealize.incidence import _chain_classes, _cycle_table, _induced_flag, lattice_gate

    rel = SIGNED_RELATIONS[name]
    lat = build_maxbiclique_lattice(rel)
    coloring = flag_graph_bipartition(lat)
    table = _cycle_table(lat)
    expected = [coloring[_induced_flag(lat, meets)] for meets in table.meets.tolist()]
    assert _chain_classes(lat, table.induced_chains(lat)).tolist() == expected
    if rel.degeneracy_reason() is None and lattice_gate(rel)[2] is None:
        _, (_, _, orientation, _) = _verify(rel, np.eye(rel.n_facets), None, lambda w, thr: [],
                                         1.0, rank_tol=1e-9, det_zero_tol=1e-8, flag_cap=10**6)
        assert orientation.tolist() == expected
