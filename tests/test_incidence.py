"""Lattice construction, grading, diamond, flags, and cycles."""

import json
import os
import sys

import numpy as np
import pytest

from polyrealize import (
    IncidenceRelation,
    build_maxbiclique_lattice,
    check_diamond,
    check_flag_connected_local,
    enumerate_flags,
    enumerate_super_cycles,
    enumerate_super_cycles_per_vertex,
    flag_graph_bipartition,
    lattice_rank,
)
from polyrealize.errors import (
    DegenerateRelationError,
    EmptyRelationError,
    FlagCapExceededError,
    NoExtraFacetError,
    NotDiamondError,
    NotGradedError,
    RelationFormatError,
)
from polyrealize.incidence import (
    count_flags,
    dump_relation,
    load_relation,
    relation_from_json_dict,
)

from conftest import (
    cross_polytope,
    cube,
    disjoint_squares,
    hemi_dodecahedron,
    ngon,
    octant_relation,
    pyramid_missing_incidence,
    pyramid_relation,
    random_relation,
    simplex,
    triangular_prism,
)
from oracles import (
    brute_force_maxbicliques,
    covers_by_definition,
    diamond_by_leq_scan,
    flag_graph_connected_explicit,
    super_cycles_by_walk,
)


def elements_as_pairs(lat):
    return {(el.facet_set, el.vertex_set) for el in lat.elements}


def structure_by_vertex_sets(lat):
    """The lattice's covers, ranks, bottom and top, keyed like covers_by_definition."""
    vs = [el.vertex_set for el in lat.elements]
    return {
        "lower": {vs[b]: [vs[a] for a in lat.lower_covers[b]] for b in range(len(lat))},
        "upper": {vs[a]: [vs[b] for b in lat.upper_covers[a]] for a in range(len(lat))},
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


class TestLatticeConstruction:
    def test_square_lattice(self, square):
        lat = build_maxbiclique_lattice(square)
        assert len(lat) == 10
        pairs = elements_as_pairs(lat)
        assert ((1, 2, 3, 4), ()) in pairs  # bottom: all facets, no vertex
        assert ((), (1, 2, 3, 4)) in pairs  # top
        atoms = [el for el in lat.elements if len(el.vertex_set) == 1]
        coatoms = [el for el in lat.elements if len(el.facet_set) == 1]
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
        for el in lat.elements:
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
        swapped = {(el.vertex_set, el.facet_set) for el in tlat.elements}
        assert swapped == elements_as_pairs(lat)
        # order reverses: comparable pairs swap direction under the swap map
        tindex = {
            (el.facet_set, el.vertex_set): k for k, el in enumerate(tlat.elements)
        }
        for a, ela in enumerate(lat.elements):
            for b, elb in enumerate(lat.elements):
                ta = tindex[(ela.vertex_set, ela.facet_set)]
                tb = tindex[(elb.vertex_set, elb.facet_set)]
                assert lat.leq(a, b) == tlat.leq(tb, ta)

    def test_irreducible_comparability_regenerates_lattice(self, pyramid):
        # The coatom/atom comparability of the lattice is the original
        # relation again, so rebuilding yields an isomorphic lattice.
        lat = build_maxbiclique_lattice(pyramid)
        atoms = [el for el in lat.elements if lat.ranks[lat.elements.index(el)] == 1]
        coatoms = [
            el for el in lat.elements if lat.ranks[lat.elements.index(el)] == lat.rank - 1
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
    walk = incidence._rank2_failure
    monkeypatch.setattr(incidence, "_rank2_failure", lambda lat: walked.append(lat) or walk(lat))
    lat, _, reason = lattice_gate(pyramid)
    assert reason is None
    assert check_diamond(lat) and check_flag_connected_local(lat)
    assert grunbaum_oracle(PYRAMID_VERTICES, lat)
    assert walked == [lat]
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


class TestFlags:
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
                assert b in lat.upper_covers[a]

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


class TestSuperCycles:
    def test_octant(self, octant):
        lat = build_maxbiclique_lattice(octant)
        cycles = enumerate_super_cycles_per_vertex(lat)
        assert set(cycles) == {1, 2, 3}
        for j, sc in cycles.items():
            assert len(sc.facet_sequence) == 3
            assert sc.orientation == 0
            cycle, extra = sc.facet_sequence[:-1], sc.facet_sequence[-1]
            assert set(cycle) == octant.facets_of_vertex(j)
            assert extra == j  # the only facet missing ray j

    def test_pyramid_apex_extra_is_base(self, pyramid):
        lat = build_maxbiclique_lattice(pyramid)
        cycles = enumerate_super_cycles_per_vertex(lat)
        apex = cycles[5]
        assert apex.facet_sequence[-1] == 5
        assert set(apex.facet_sequence[:-1]) <= {1, 2, 3, 4}

    def test_square_rank_two_case(self, square):
        lat = build_maxbiclique_lattice(square)
        cycles = enumerate_super_cycles_per_vertex(lat)
        for j, sc in cycles.items():
            assert len(sc.facet_sequence) == 3
            assert set(sc.facet_sequence[:-1]) == square.facets_of_vertex(j)
            assert sc.facet_sequence[-1] not in square.facets_of_vertex(j)

    def test_same_orientation_across_vertices(self, pyramid):
        lat = build_maxbiclique_lattice(pyramid)
        for orientation in (0, 1):
            cycles = enumerate_super_cycles_per_vertex(lat, orientation=orientation)
            assert {sc.orientation for sc in cycles.values()} == {orientation}

    def test_no_extra_facet(self):
        # 2 facets x 2 vertices, all incident except one pair: vertex 1
        # lies on both facets, so no super cycle exists there
        rel = IncidenceRelation.from_pairs(2, 2, [(1, 1), (1, 2), (2, 1)])
        lat = build_maxbiclique_lattice(rel)
        with pytest.raises((NoExtraFacetError, NotGradedError)):
            enumerate_super_cycles_per_vertex(lat)


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
    """Both enumerations against one object per super cycle built by a
    depth-first walk, errors and their precedence included."""
    lat = build_maxbiclique_lattice(WALK_RELATIONS[name])
    try:
        coloring = flag_graph_bipartition(lat)
    except Exception:
        coloring = {}
    assert _outcome(lambda: enumerate_super_cycles(lat, coloring)) == \
        _outcome(lambda: super_cycles_by_walk(lat, coloring))
    for orientation in (0, 1):
        assert _outcome(lambda: enumerate_super_cycles_per_vertex(lat, orientation)) == \
            _outcome(lambda: super_cycles_by_walk(lat, flag_graph_bipartition(lat),
                                                  orientation))
