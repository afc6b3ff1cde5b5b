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
from polyrealize.realize import (
    REASON_DIAMOND,
    REASON_FLAG_CONNECTIVITY,
    REASON_NOT_GRADED,
    REASON_RANK,
)

from conftest import (
    PYRAMID_MATRIX,
    disjoint_squares,
    pyramid_missing_incidence,
    pyramid_relation,
    random_relation,
)

PYRAMID_REPORT = {
    "conditions": {"diamond": True, "flag_connected": True, "graded": True,
                   "nondegenerate": True},
    "facets": 5, "incidences": 16, "lattice_rank": 4, "lattice_size": 20,
    "rank_profile": [1, 5, 8, 5, 1], "vertices": 5,
}

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
        1, {"conditions": {"diamond": False, "flag_connected": False, "graded": True,
                           "nondegenerate": True},
            "facets": 5, "incidences": 15, "lattice_rank": 4, "lattice_size": 17,
            "rank_profile": [1, 4, 6, 5, 1], "reason": "diamond", "vertices": 5},
    ),
    (
        "disjoint-squares",
        disjoint_squares(),
        2, REASON_FLAG_CONNECTIVITY, "flag graph is disconnected",
        1, {"conditions": {"diamond": True, "flag_connected": False, "graded": True,
                           "nondegenerate": True},
            "facets": 8, "incidences": 16, "lattice_rank": 3, "lattice_size": 18,
            "rank_profile": [1, 8, 8, 1], "reason": "flag-connectivity", "vertices": 8},
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
