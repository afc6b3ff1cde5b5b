"""Command-line interface: exit codes, files written, report determinism."""

import json

import numpy as np
import pytest

from polyrealize import dump_relation
from polyrealize.cli import main
from polyrealize.numkernel import read_matrix_csv, write_matrix_csv

from conftest import (
    PYRAMID_MATRIX,
    disjoint_squares,
    octant_relation,
    pyramid_missing_incidence,
    pyramid_relation,
)


@pytest.fixture
def workdir(tmp_path):
    dump_relation(pyramid_relation(), tmp_path / "pyramid.json")
    dump_relation(disjoint_squares(), tmp_path / "disjoint.json")
    dump_relation(pyramid_missing_incidence(), tmp_path / "broken_pyramid.json")
    dump_relation(octant_relation(), tmp_path / "octant.json")
    write_matrix_csv(tmp_path / "fig.csv", PYRAMID_MATRIX)
    write_matrix_csv(tmp_path / "gram3.csv", np.eye(3))
    write_matrix_csv(tmp_path / "phi3.csv", np.eye(3))
    (tmp_path / "garbage.json").write_text("{not json")
    (tmp_path / "garbage.csv").write_text("a,b\n1,zzz\n")
    return tmp_path


def run(*argv):
    return main([str(a) for a in argv])


class TestCheck:
    def test_pyramid_passes(self, workdir, capsys):
        assert run("check", workdir / "pyramid.json", "--format", "json") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["lattice_rank"] == 4
        assert report["rank_profile"] == [1, 5, 8, 5, 1]

    def test_disjoint_squares_rejected(self, workdir, capsys):
        assert run("check", workdir / "disjoint.json", "--format", "json") == 1
        report = json.loads(capsys.readouterr().out)
        assert report["reason"] == "flag-connectivity"

    def test_wrong_dimension_rejected(self, workdir, capsys):
        assert run("check", workdir / "pyramid.json", "--d", "2", "--format", "json") == 1
        report = json.loads(capsys.readouterr().out)
        assert report["reason"] == "lattice-rank"
        assert report["conditions"]["lattice_rank"] is False
        assert run("check", workdir / "pyramid.json", "--d", "3", "--format", "json") == 0
        report = json.loads(capsys.readouterr().out)
        assert "reason" not in report
        assert all(report["conditions"].values())

    def test_malformed_input(self, workdir):
        assert run("check", workdir / "garbage.json") == 3

    def test_missing_file(self, workdir):
        assert run("check", workdir / "nope.json") == 3


class TestRealize:
    def test_pyramid_writes_matrices(self, workdir, capsys):
        out = workdir / "out"
        code = run("realize", workdir / "pyramid.json", "--d", "3",
                   "--out", out, "--format", "json")
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "realized"
        assert report["realization_space_dimension"] == 14
        M = read_matrix_csv(out / "M.csv")
        W = read_matrix_csv(out / "W.csv")
        H = read_matrix_csv(out / "H.csv")
        assert np.abs(H.T @ W - M).max() < 1e-9
        assert run("verify", workdir / "pyramid.json", out / "M.csv",
                   "--d", "3", "--fill", "1") == 0

    def test_wrong_dimension_rejected(self, workdir):
        assert run("realize", workdir / "pyramid.json", "--d", "2") == 1

    def test_starved_solver_is_inconclusive(self, workdir, capsys):
        from conftest import ngon

        dump_relation(ngon(10), workdir / "tengon.json")
        code = run("realize", workdir / "tengon.json", "--d", "2",
                   "--restarts", "1", "--iters", "1", "--format", "json")
        assert code == 2
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "inconclusive"
        assert report["best_residual"] > 0

    def test_diamond_failure_rejected(self, workdir):
        assert run("realize", workdir / "broken_pyramid.json", "--d", "3") == 1


class TestVerify:
    def test_golden(self, workdir):
        assert run("verify", workdir / "pyramid.json", workdir / "fig.csv",
                   "--d", "3", "--fill", "1") == 0

    def test_perturbed_entry(self, workdir, capsys):
        M = PYRAMID_MATRIX.copy()
        M[0, 2] = 1.0
        write_matrix_csv(workdir / "bad.csv", M)
        assert run("verify", workdir / "pyramid.json", workdir / "bad.csv",
                   "--d", "3", "--fill", "1", "--format", "json") == 1
        report = json.loads(capsys.readouterr().out)
        assert report["violations"][0]["facet"] == 1
        assert report["violations"][0]["vertex"] == 3

    def test_wrong_rank(self, workdir, capsys):
        assert run("verify", workdir / "pyramid.json", workdir / "fig.csv",
                   "--d", "2", "--fill", "1", "--format", "json") == 1
        report = json.loads(capsys.readouterr().out)
        assert report["pattern_ok"] and not report["rank_ok"]

    def test_garbage_matrix(self, workdir):
        assert run("verify", workdir / "pyramid.json", workdir / "garbage.csv",
                   "--d", "3", "--fill", "1") == 3


class TestConvert:
    def test_round_trip(self, workdir):
        n_out = workdir / "N.csv"
        m_out = workdir / "M2.csv"
        assert run("convert", workdir / "fig.csv", "polytope-to-cone",
                   "--out", n_out) == 0
        assert read_matrix_csv(n_out).max() <= 0.0
        assert run("convert", n_out, "cone-to-polytope", "--out", m_out) == 0
        assert run("verify", workdir / "pyramid.json", m_out,
                   "--d", "3", "--fill", "1") == 0

    def test_not_a_matrix(self, workdir):
        assert run("convert", workdir / "garbage.csv", "polytope-to-cone") == 3


class TestGaleCommand:
    def test_polytope_dual(self, workdir, capsys):
        out = workdir / "gale.csv"
        assert run("gale", workdir / "fig.csv", "polytope",
                   "--out", out, "--format", "json") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["dual_dimension"] == 1
        coords = read_matrix_csv(out)
        assert coords.shape == (5, 1)


class TestGramianCommands:
    def test_verify_and_realize(self, workdir, capsys):
        assert run("gramian-verify", workdir / "octant.json", workdir / "gram3.csv",
                   workdir / "phi3.csv", "--d", "2") == 0
        capsys.readouterr()
        out = workdir / "gout"
        assert run("gramian-realize", workdir / "octant.json", workdir / "gram3.csv",
                   workdir / "phi3.csv", "--d", "2", "--out", out,
                   "--format", "json") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["gramian_residual"] < 1e-8
        N = read_matrix_csv(out / "N.csv")
        np.testing.assert_allclose(N, -np.eye(3), atol=1e-9)

    def test_signature_mismatch_exits_one(self, workdir):
        phi = np.diag([1.0, 1.0, -1.0])
        write_matrix_csv(workdir / "phi_hyp.csv", phi)
        assert run("gramian-verify", workdir / "octant.json", workdir / "gram3.csv",
                   workdir / "phi_hyp.csv", "--d", "2") == 1

    def test_spherical(self, workdir):
        assert run("spherical-verify", workdir / "octant.json", workdir / "gram3.csv",
                   "--d", "2") == 0

    def test_hyperbolic(self, workdir):
        from conftest import ngon

        dump_relation(ngon(3), workdir / "triangle.json")
        G = np.array([[1.0, -1, -1], [-1, 1, -1], [-1, -1, 1]])
        write_matrix_csv(workdir / "ideal.csv", G)
        assert run("hyperbolic-verify", workdir / "triangle.json",
                   workdir / "ideal.csv", "--d", "2", "--ideal", "1,2,3") == 0
        assert run("hyperbolic-verify", workdir / "triangle.json",
                   workdir / "ideal.csv", "--d", "2") == 1


class TestContracts:
    def test_report_determinism(self, workdir, capsys):
        args = ("realize", workdir / "pyramid.json", "--d", "3", "--seed", "7",
                "--out", workdir / "d1", "--format", "json")
        run(*args)
        first = capsys.readouterr().out
        run(*args)
        second = capsys.readouterr().out
        assert first == second

    def test_unknown_flag_is_input_error(self, workdir):
        assert run("check", workdir / "pyramid.json", "--bogus") == 3
