"""Self-tests of the benchmark's inputs and output.

Run from the repository root:  python -m pytest -q bench
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import corpus
import run
import workloads
from polyrealize import (
    build_maxbiclique_lattice,
    check_filled_incidence,
    enumerate_super_cycles,
    flag_graph_bipartition,
)
from polyrealize.incidence import count_flags

SMALL = (
    [corpus.simplex(d) for d in range(2, 6)]
    + [corpus.cube(d) for d in range(2, 5)]
    + [corpus.cross(d) for d in range(2, 5)]
    + [corpus.ngon(n) for n in (3, 4, 5, 8)]
    + [corpus.prism(), corpus.pyramid()]
    + workloads._hulls(0, (6, 8), 1, 0.1, 0.05, "hull")
)


@pytest.mark.parametrize("d", range(2, 6))
def test_family_lattice_sizes(d):
    def size(p):
        return len(build_maxbiclique_lattice(workloads.relation_of(p)))

    assert size(corpus.cube(d)) == 3**d + 1
    assert size(corpus.cross(d)) == 3**d + 1
    assert size(corpus.simplex(d)) == 2 ** (d + 1)
    assert size(corpus.ngon(d + 1)) == 2 * (d + 1) + 2


@pytest.mark.parametrize("p", SMALL, ids=lambda p: p.name)
def test_manifest_counts_match_the_library(p):
    lat = build_maxbiclique_lattice(workloads.relation_of(p))
    counts = corpus.face_counts(p)
    assert len(lat) == counts["lattice"]
    assert count_flags(lat) == counts["flags"]
    if counts["super_cycles"] is not None:
        cycles = enumerate_super_cycles(lat, flag_graph_bipartition(lat))
        assert len(cycles) == counts["super_cycles"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_explicit_matrices_pass_the_pattern_check(workload):
    polys = {op.name: op for op in workloads.BUILDERS[workload](0)
             if op.expect in (workloads.EXPECT_REALIZE, workloads.EXPECT_PASS) and op.counts}
    assert polys
    for op in polys.values():
        if op.M is not None:
            assert check_filled_incidence(op.M, op.relation, 1.0).ok, op.name
    for p in SMALL:
        assert check_filled_incidence(p.M, workloads.relation_of(p), 1.0).ok, p.name


def test_relations_match_the_test_suite_builders():
    sys.path.insert(0, os.path.join(ROOT, "tests"))
    try:
        import conftest as suite
    finally:
        sys.path.remove(os.path.join(ROOT, "tests"))
    pairs = [
        (corpus.simplex(4), suite.simplex(4)),
        (corpus.cube(3), suite.cube(3)),
        (corpus.cross(4), suite.cross_polytope(4)),
        (corpus.ngon(7), suite.ngon(7)),
        (corpus.prism(), suite.triangular_prism()),
        (corpus.pyramid(), suite.pyramid_relation()),
    ]
    for p, rel in pairs:
        assert workloads.relation_of(p) == rel, p.name


def test_inputs_depend_only_on_the_seed():
    def matrices(seed):
        return [op.M for op in workloads.check_ops(seed) if op.M is not None]

    a, b, c = matrices(5), matrices(5), matrices(6)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not all(np.array_equal(x, z) for x, z in zip(a, c))


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_a_run_emits_every_declared_metric(workload, trace):
    end_to_end, per_layer = _declared()
    ops = workloads.BUILDERS[workload](0)
    small = ops[:2] + [op for op in ops if op.expect not in (
        workloads.EXPECT_REALIZE, workloads.EXPECT_PASS)][:2] + ops[-1:]
    record = run.collect(workload, small, 0.0, trace, 0, setup_s=1.0)
    result = record["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= len(small)
    emitted = {k: m["unit"] for k, m in result["metrics"].items()}
    assert emitted == (per_layer if trace else end_to_end)
