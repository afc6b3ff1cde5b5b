"""The lattice gate as every caller reports it: realizability_check, the
three Gramian verifiers, and the ``check`` command."""

import json

import numpy as np
import pytest

from polyrealize import (
    BilinearForm,
    GramianCandidate,
    IncidenceRelation,
    check_filled_incidence,
    dump_relation,
    realizability_check,
    verify_gramian_conditions,
    verify_hyperbolic_conditions,
    verify_spherical_conditions,
)
from polyrealize.cli import main
from polyrealize.errors import DegenerateRelationError
from polyrealize.incidence import lattice_gate
from polyrealize.numkernel import write_matrix_csv
from polyrealize.realize import (
    REASON_ATOMS_COATOMS,
    REASON_DIAMOND,
    REASON_FLAG_CONNECTIVITY,
    REASON_NOT_GRADED,
    REASON_RANK,
)

from conftest import (
    PYRAMID_MATRIX,
    cube,
    disjoint_squares,
    hemi_dodecahedron,
    ngon,
    pyramid_missing_incidence,
    pyramid_relation,
    random_relation,
)

PYRAMID_REPORT = {
    "conditions": {"atoms_coatoms": True, "diamond": True, "flag_connected": True,
                   "graded": True, "nondegenerate": True},
    "facets": 5, "incidences": 16, "lattice_rank": 4, "lattice_size": 20,
    "rank_profile": [1, 5, 8, 5, 1], "vertices": 5,
}

ATOMS_COATOMS_DETAIL = "a vertex is not an atom or a facet not a coatom of its own"

# name, relation, d, realizability_check reason (None: it raises
# DegenerateRelationError), Gramian "lattice" detail, check exit code and
# JSON report (the check command runs without --d)
CONTROLS = [
    (
        "degenerate",
        IncidenceRelation.from_pairs(2, 2, [(1, 1), (1, 2), (2, 1)]),
        1, None, None,
        1, {"conditions": {"nondegenerate": False}, "facets": 2, "incidences": 3,
            "reason": "facet 1 is incident to every vertex", "vertices": 2},
    ),
    (
        "vertex-on-no-facet",
        IncidenceRelation.from_pairs(4, 5, ngon(4).incident),
        2, None, None,
        1, {"conditions": {"nondegenerate": False}, "facets": 4, "incidences": 8,
            "reason": "vertex 5 is incident to no facet", "vertices": 5},
    ),
    (
        "facet-with-no-vertex",
        IncidenceRelation.from_pairs(5, 4, ngon(4).incident),
        2, None, None,
        1, {"conditions": {"nondegenerate": False}, "facets": 5, "incidences": 8,
            "reason": "facet 5 is incident to no vertex", "vertices": 4},
    ),
    (
        "not-graded",
        IncidenceRelation.from_pairs(3, 3, [(1, 1), (1, 2), (2, 1), (3, 3)]),
        2, REASON_NOT_GRADED, "lattice is not graded",
        1, {"conditions": {"graded": False, "nondegenerate": True}, "facets": 3,
            "incidences": 4, "lattice_size": 5, "reason": "not-graded", "vertices": 3},
    ),
    (
        "pyramid-wrong-d",
        pyramid_relation(),
        2, REASON_RANK, "lattice rank 4, expected 3",
        0, PYRAMID_REPORT,
    ),
    (
        "pyramid-missing-incidence",
        pyramid_missing_incidence(),
        3, REASON_DIAMOND, "diamond condition fails",
        1, {"conditions": {"atoms_coatoms": False, "diamond": False, "flag_connected": False,
                           "graded": True, "nondegenerate": True},
            "facets": 5, "incidences": 15, "lattice_rank": 4, "lattice_size": 17,
            "rank_profile": [1, 4, 6, 5, 1], "reason": "diamond", "vertices": 5},
    ),
    (
        "disjoint-squares",
        disjoint_squares(),
        2, REASON_FLAG_CONNECTIVITY, "flag graph is disconnected",
        1, {"conditions": {"atoms_coatoms": False, "diamond": True, "flag_connected": False,
                           "graded": True, "nondegenerate": True},
            "facets": 8, "incidences": 16, "lattice_rank": 3, "lattice_size": 18,
            "rank_profile": [1, 8, 8, 1], "reason": "flag-connectivity", "vertices": 8},
    ),
    (
        # vertex 5 on facet 1 only: its closure is facet 1's edge
        "vertex-inside-edge",
        IncidenceRelation.from_pairs(4, 5, [*cube(2).incident, (1, 5)]),
        2, REASON_ATOMS_COATOMS, ATOMS_COATOMS_DETAIL,
        1, {"conditions": {"atoms_coatoms": False, "diamond": True, "flag_connected": True,
                           "graded": True, "nondegenerate": True},
            "facets": 4, "incidences": 9, "lattice_rank": 3, "lattice_size": 10,
            "rank_profile": [1, 4, 4, 1], "reason": "atoms-coatoms", "vertices": 5},
    ),
    (
        # facets 1 and 3 have the same vertex set
        "duplicate-facet",
        IncidenceRelation.from_pairs(3, 2, [(1, 1), (2, 2), (3, 1)]),
        1, REASON_ATOMS_COATOMS, ATOMS_COATOMS_DETAIL,
        1, {"conditions": {"atoms_coatoms": False, "diamond": True, "flag_connected": True,
                           "graded": True, "nondegenerate": True},
            "facets": 3, "incidences": 3, "lattice_rank": 2, "lattice_size": 4,
            "rank_profile": [1, 2, 1], "reason": "atoms-coatoms", "vertices": 2},
    ),
]


def _verifiers(rel, d):
    G = np.eye(rel.n_facets)
    return [
        lambda: verify_gramian_conditions(
            GramianCandidate(G, BilinearForm.euclidean(d + 1), rel, d)
        ),
        lambda: verify_spherical_conditions(rel, G, d),
        lambda: verify_hyperbolic_conditions(rel, [], G, d),
    ]


@pytest.mark.parametrize(
    "rel, d, reason, detail, code, report",
    [case[1:] for case in CONTROLS],
    ids=[case[0] for case in CONTROLS],
)
def test_gate_controls(rel, d, reason, detail, code, report, tmp_path, capsys):
    if reason is None:
        with pytest.raises(DegenerateRelationError):
            realizability_check(rel, d)
        for verify in _verifiers(rel, d):
            with pytest.raises(DegenerateRelationError):
                verify()
    else:
        assert realizability_check(rel, d).reason == reason
        for verify in _verifiers(rel, d):
            result = verify()
            assert not result.passed
            assert [c.name for c in result.checks] == ["lattice"]
            assert result.check("lattice").detail == detail

    dump_relation(rel, tmp_path / "rel.json")
    assert main(["check", str(tmp_path / "rel.json"), "--format", "json"]) == code
    assert json.loads(capsys.readouterr().out) == report


@pytest.mark.parametrize("command", ["gramian-verify", "gramian-realize",
                                     "spherical-verify", "hyperbolic-verify"])
@pytest.mark.parametrize(
    "rel, d, reason, detail, report",
    [(case[1], case[2], case[3], case[4], case[6]) for case in CONTROLS],
    ids=[case[0] for case in CONTROLS],
)
def test_gramian_commands_fail_the_lattice_check(command, rel, d, reason, detail, report,
                                                 tmp_path, capsys):
    # a degenerate relation is rejected like any other gate failure (exit
    # 1), with the nondegeneracy reason as the lattice detail, although
    # the library verifiers raise on it
    dump_relation(rel, tmp_path / "rel.json")
    write_matrix_csv(tmp_path / "G.csv", np.eye(rel.n_facets))
    write_matrix_csv(tmp_path / "phi.csv", np.eye(d + 1))
    phi = [str(tmp_path / "phi.csv")] if command.startswith("gramian-") else []
    assert main([command, str(tmp_path / "rel.json"), str(tmp_path / "G.csv"), *phi,
                 "--d", str(d), "--format", "json"]) == 1
    expected = detail if reason is not None else report["reason"]
    assert json.loads(capsys.readouterr().out) == {
        "passed": False, "conditions": {"lattice": False}, "details": {"lattice": expected}}


def _atoms_and_coatoms_by_definition(rel):
    """Every {j} is closed, and no facet but i contains facet i's vertices."""
    return (all(rel.closure({j}) == {j} for j in range(1, rel.n_vertices + 1))
            and all(rel.facets_of(rel.vertices_of_facet(i)) == {i}
                    for i in range(1, rel.n_facets + 1)))


def test_atoms_and_coatoms_on_random_relations():
    """Of the draws passing the other gate conditions, exactly those failing
    the definition are rejected for it."""
    rng = np.random.default_rng(0)
    passing = rejected = 0
    for _ in range(3000):
        rel = random_relation(rng)
        if rel.degeneracy_reason() is not None:
            continue
        _, _, reason = lattice_gate(rel)
        if reason not in (None, REASON_ATOMS_COATOMS):
            continue
        passing += 1
        assert (reason is None) == _atoms_and_coatoms_by_definition(rel)
        if reason is not None:
            rejected += 1
            assert realizability_check(rel).reason == REASON_ATOMS_COATOMS
    assert (passing, rejected) == (35, 29)


def test_non_orientable_relation_fails_the_lattice_check():
    """The hemi-dodecahedron passes the gate; its flag graph is not bipartite."""
    rel = hemi_dodecahedron()
    assert lattice_gate(rel, 3)[2] is None
    for verify in _verifiers(rel, 3):
        result = verify()
        assert not result.passed
        assert [c.name for c in result.checks] == ["lattice"]
        assert result.check("lattice").detail == "flag graph is not bipartite"


def test_pattern_violations_in_row_major_order(pyramid):
    M = PYRAMID_MATRIX.copy()
    M[0, 2] = 1.0   # off entry at the fill: slack
    M[1, 1] = 0.5   # incident entry off the fill: fill
    M[3, 0] = 0.0   # incident entry off the fill: fill
    M[4, 4] = 2.0   # off entry above the fill: slack
    report = check_filled_incidence(M, pyramid, 1.0)
    assert not report.ok
    got = [(v.facet, v.vertex, v.value, v.kind) for v in report.violations]
    assert got == [
        (1, 3, 1.0, "slack"),
        (2, 2, 0.5, "fill"),
        (4, 1, 0.0, "fill"),
        (5, 5, 2.0, "slack"),
    ]
    for v in report.violations:
        assert type(v.facet) is int and type(v.vertex) is int
        assert type(v.value) is float


def _violations_by_loop(M, rel, fill, eq_tol, slack_tol):
    """Entry-by-entry reference for check_filled_incidence."""
    found = []
    for i in range(rel.n_facets):
        for j in range(rel.n_vertices):
            v = M[i, j]
            if (i + 1, j + 1) in rel.incident:
                if abs(v - fill) > eq_tol:
                    found.append((i + 1, j + 1, float(v), "fill"))
            elif not v < fill - slack_tol:
                found.append((i + 1, j + 1, float(v), "slack"))
    return found


@pytest.mark.parametrize("seed", range(20))
def test_pattern_check_matches_loop_reference(seed):
    rng = np.random.default_rng(seed)
    rel = random_relation(rng)
    fill, tol = float(rng.choice([0.0, 1.0])), 1e-7
    # values on, just inside and just outside both tolerance boundaries
    choices = fill + np.array([0.0, 0.5 * tol, 2 * tol, -0.5 * tol, -2 * tol, -0.5, 0.5])
    M = rng.choice(choices, size=(rel.n_facets, rel.n_vertices))
    report = check_filled_incidence(M, rel, fill, tol, tol)
    expected = _violations_by_loop(M, rel, fill, tol, tol)
    assert [(v.facet, v.vertex, v.value, v.kind) for v in report.violations] == expected
    assert report.ok == (not expected)
    with pytest.raises(ValueError):
        rel.mask[0, 0] = not rel.mask[0, 0]
