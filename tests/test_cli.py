"""Command-line interface: exit codes, files written, report determinism."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from polyrealize import IncidenceRelation, dump_relation
from polyrealize.cli import build_parser, main
from polyrealize.numkernel import read_matrix_csv, write_matrix_csv

from conftest import (
    PYRAMID_MATRIX,
    SQUARE_MATRIX,
    disjoint_squares,
    ngon,
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

    def test_boolean_counts_are_input_error(self, workdir):
        (workdir / "bools.json").write_text(
            '{"facets": true, "vertices": 2, "incident": [[true, 1], [1, 2]]}')
        assert run("check", workdir / "bools.json") == 3


class TestRealize:
    def test_pyramid_writes_matrices(self, workdir, capsys):
        out = workdir / "out"
        code = run("realize", workdir / "pyramid.json", "--d", "3",
                   "--out", out, "--format", "json")
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "realized"
        assert report["realization_space_dimension"] == 14
        assert set(report["solver"]) == {"iterations", "loss"}
        M = read_matrix_csv(out / "M.csv")
        W = read_matrix_csv(out / "W.csv")
        H = read_matrix_csv(out / "H.csv")
        assert np.abs(H.T @ W - M).max() < 1e-9
        assert run("verify", workdir / "pyramid.json", out / "M.csv",
                   "--d", "3", "--fill", "1") == 0

    def test_wrong_dimension_rejected(self, workdir):
        assert run("realize", workdir / "pyramid.json", "--d", "2") == 1

    def test_starved_solver_is_inconclusive(self, workdir, capsys):
        dump_relation(ngon(20), workdir / "twentygon.json")
        code = run("realize", workdir / "twentygon.json", "--d", "2",
                   "--iters", "1", "--format", "json")
        assert code == 2
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "inconclusive"
        assert report["best_residual"] > 0

    def test_diamond_failure_rejected(self, workdir):
        assert run("realize", workdir / "broken_pyramid.json", "--d", "3") == 1

    @pytest.mark.parametrize("argv, code, keys", [
        (("pyramid.json", "--d", "3"), 0,
         {"lattice", "realization_space_dimension", "solver", "reconstruction_residual",
          "written"}),
        (("twentygon.json", "--d", "2", "--iters", "1"), 2, {"lattice", "best_residual"}),
        (("pyramid.json", "--d", "2"), 1, {"lattice", "reason"}),
        (("degenerate.json",), 1, None),
    ], ids=["realized", "inconclusive", "rejected", "degenerate"])
    def test_report_keys(self, workdir, capsys, argv, code, keys):
        dump_relation(ngon(20), workdir / "twentygon.json")
        dump_relation(IncidenceRelation.from_pairs(2, 2, [(1, 1), (1, 2), (2, 1)]),
                      workdir / "degenerate.json")
        relation, *flags = argv
        assert run("realize", workdir / relation, *flags, "--out", workdir / "out",
                   "--format", "json") == code
        report = json.loads(capsys.readouterr().out)
        if keys is None:
            assert set(report) == {"verdict", "reason"}
        else:
            assert set(report) == {"verdict", "d", "tolerances"} | keys

    def test_negative_iters_is_input_error(self, workdir, capsys):
        assert run("realize", workdir / "pyramid.json", "--d", "3", "--iters", "-5") == 3
        assert "argument --iters: must be a non-negative integer, got -5" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--iters", "-5", "must be a non-negative integer, got -5"),
        ("--margin", "1.5", "must be below 1, got 1.5"),
        ("--margin", "1", "must be below 1, got 1"),
    ])
    def test_bad_search_flag_is_input_error_before_the_gate(self, workdir, capsys,
                                                            flag, value, message):
        # --d 2 fails the gate; the flag is still checked, not a rejected verdict
        assert run("realize", workdir / "pyramid.json", "--d", "2", flag, value) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}: {message}" in captured.err


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

    def test_fill_is_zero_or_one(self, workdir, capsys):
        # fill 1 is a polytope matrix of rank d, fill 0 a cone matrix of rank d+1
        dump_relation(ngon(4), workdir / "square.json")
        write_matrix_csv(workdir / "half.csv", 0.5 * SQUARE_MATRIX)
        assert run("verify", workdir / "square.json", workdir / "half.csv",
                   "--d", "2", "--fill", "0.5") == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --fill: invalid choice: 0.5" in captured.err
        write_matrix_csv(workdir / "cone.csv", SQUARE_MATRIX - 1.0)
        assert run("verify", workdir / "square.json", workdir / "cone.csv",
                   "--d", "2", "--fill", "0", "--format", "json") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["fill"] == 0.0 and report["rank"] == 3


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

    def test_realize_builds_one_lattice(self, workdir, monkeypatch):
        from polyrealize import incidence

        built = []
        build = incidence.build_maxbiclique_lattice
        monkeypatch.setattr(incidence, "build_maxbiclique_lattice",
                            lambda rel: built.append(rel) or build(rel))
        assert run("gramian-realize", workdir / "octant.json", workdir / "gram3.csv",
                   workdir / "phi3.csv", "--d", "2", "--out", workdir / "gout") == 0
        assert len(built) == 1

    @pytest.mark.parametrize("command", ["gramian-verify", "gramian-realize"])
    def test_form_of_the_wrong_size_is_input_error(self, workdir, capsys, command):
        write_matrix_csv(workdir / "phi4.csv", np.eye(4))
        assert run(command, workdir / "octant.json", workdir / "gram3.csv",
                   workdir / "phi4.csv", "--d", "2") == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: form size 4 does not match d + 1 = 3\n"

    def test_signature_mismatch_exits_one(self, workdir):
        phi = np.diag([1.0, 1.0, -1.0])
        write_matrix_csv(workdir / "phi_hyp.csv", phi)
        assert run("gramian-verify", workdir / "octant.json", workdir / "gram3.csv",
                   workdir / "phi_hyp.csv", "--d", "2") == 1

    def test_spherical(self, workdir):
        assert run("spherical-verify", workdir / "octant.json", workdir / "gram3.csv",
                   "--d", "2") == 0

    def test_non_orientable_relation_exits_one(self, workdir, capsys):
        from conftest import hemi_dodecahedron

        dump_relation(hemi_dodecahedron(), workdir / "hemi.json")
        write_matrix_csv(workdir / "gram6.csv", np.eye(6))
        assert run("spherical-verify", workdir / "hemi.json", workdir / "gram6.csv",
                   "--d", "3", "--format", "json") == 1
        report = json.loads(capsys.readouterr().out)
        assert report["details"] == {"lattice": "flag graph is not bipartite"}

    @pytest.mark.parametrize("command", ["spherical-verify", "hyperbolic-verify",
                                         "gramian-verify", "gramian-realize"])
    @pytest.mark.parametrize("size", [3, 5])
    def test_gramian_of_the_wrong_size_is_input_error(self, workdir, capsys, command, size):
        dump_relation(ngon(4), workdir / "square.json")
        write_matrix_csv(workdir / "wrong.csv", np.eye(size))
        phi = [workdir / "phi3.csv"] if command.startswith("gramian-") else []
        assert run(command, workdir / "square.json", workdir / "wrong.csv", *phi,
                   "--d", "2") == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: gramian shape ({size}, {size}) does not match 4 facets\n"

    def test_hyperbolic(self, workdir):
        dump_relation(ngon(3), workdir / "triangle.json")
        G = np.array([[1.0, -1, -1], [-1, 1, -1], [-1, -1, 1]])
        write_matrix_csv(workdir / "ideal.csv", G)
        assert run("hyperbolic-verify", workdir / "triangle.json",
                   workdir / "ideal.csv", "--d", "2", "--ideal", "1,2,3") == 0
        assert run("hyperbolic-verify", workdir / "triangle.json",
                   workdir / "ideal.csv", "--d", "2") == 1


class TestContracts:
    def test_report_determinism(self, workdir, capsys):
        args = ("realize", workdir / "pyramid.json", "--d", "3",
                "--out", workdir / "d1", "--format", "json")
        assert run(*args) == 0
        first = capsys.readouterr().out
        assert run(*args) == 0
        second = capsys.readouterr().out
        assert first == second and json.loads(first)["verdict"] == "realized"

    def test_unknown_flag_is_input_error(self, workdir):
        assert run("check", workdir / "pyramid.json", "--bogus") == 3

    def test_seed_is_unrecognized(self, workdir, capsys):
        # the search draws no random numbers a caller could seed
        assert run("realize", workdir / "pyramid.json", "--d", "3", "--seed", "1") == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: polyrealize")
        assert "error: unrecognized arguments: --seed 1" in captured.err
        assert run("gramian-verify", workdir / "octant.json", workdir / "gram3.csv",
                   workdir / "phi3.csv", "--d", "2", "--seed", "1") == 3
        assert "error: unrecognized arguments: --seed 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("realize", "--rank-tol", "0"),
        ("realize", "--margin", "-1"),
        ("realize", "--eq-tol", "-0.5"),
        ("realize", "--slack-tol", "0"),
        ("gramian-verify", "--det-zero-tol", "0"),
        *(pytest.param(argv, id=f"{argv[1][2:]}-{argv[2]}") for argv in [
            ("realize", "--rank-tol", "nan"),
            ("realize", "--margin", "inf"),
            ("verify", "--eq-tol", "nan"),
            ("verify", "--slack-tol", "inf"),
            ("gramian-verify", "--det-zero-tol", "inf"),
        ]),
    ], ids=lambda argv: argv[1][2:])
    def test_non_positive_tolerance_is_input_error(self, argv, capsys):
        command, flag, value = argv
        assert main([command, *POSITIONALS[command], "--d", "3", flag, value]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}: must be positive and finite, got {value}" in captured.err

    def test_nan_tolerances_do_not_reach_the_pattern_check(self, workdir, capsys):
        # a NaN tolerance would disable the fill test and flag every off entry
        M = PYRAMID_MATRIX.copy()
        M[0] = 5.0
        write_matrix_csv(workdir / "bad.csv", M)
        assert run("verify", workdir / "pyramid.json", workdir / "bad.csv", "--d", "3",
                   "--eq-tol", "nan", "--slack-tol", "nan") == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --eq-tol: must be positive and finite, got nan" in captured.err


# positional arguments of each command; files need not exist to parse
POSITIONALS = {
    "check": ["rel.json"],
    "realize": ["rel.json"],
    "verify": ["rel.json", "M.csv"],
    "convert": ["M.csv", "cone-to-polytope"],
    "gale": ["M.csv", "cone"],
    "gramian-verify": ["rel.json", "G.csv", "phi.csv"],
    "gramian-realize": ["rel.json", "G.csv", "phi.csv"],
    "spherical-verify": ["rel.json", "G.csv"],
    "hyperbolic-verify": ["rel.json", "G.csv"],
}
GRAMIAN_FLAGS = ["d", "rank-tol", "det-zero-tol", "flag-cap", "format"]
# every option a command reads, and only those
KEPT_FLAGS = {
    "check": ["d", "format"],
    "realize": ["d", "rank-tol", "eq-tol", "slack-tol", "out",
                "margin", "iters", "format"],
    "verify": ["d", "fill", "rank-tol", "eq-tol", "slack-tol", "format"],
    "convert": ["rank-tol", "eq-tol", "slack-tol", "out", "format"],
    "gale": ["rank-tol", "out", "format"],
    "gramian-verify": GRAMIAN_FLAGS,
    "gramian-realize": GRAMIAN_FLAGS + ["out"],
    "spherical-verify": GRAMIAN_FLAGS,
    "hyperbolic-verify": GRAMIAN_FLAGS + ["ideal"],
}
DROPPED_FLAGS = {
    "check": ["rank-tol", "eq-tol", "slack-tol", "det-zero-tol", "flag-cap", "out"],
    "realize": ["det-zero-tol", "flag-cap", "restarts", "seed"],
    "verify": ["det-zero-tol", "flag-cap", "out"],
    "convert": ["d", "det-zero-tol", "flag-cap", "seed"],
    "gale": ["d", "eq-tol", "slack-tol", "det-zero-tol", "flag-cap"],
    "gramian-verify": ["eq-tol", "slack-tol", "out"],
    "gramian-realize": ["eq-tol", "slack-tol"],
    "spherical-verify": ["eq-tol", "slack-tol", "out"],
    "hyperbolic-verify": ["eq-tol", "slack-tol", "out"],
}


@pytest.mark.parametrize("command,flag", [
    (c, f) for c, flags in DROPPED_FLAGS.items() for f in flags
])
def test_flag_not_read_is_unrecognized(command, flag, capsys):
    assert main([command, *POSITIONALS[command], f"--{flag}", "1"]) == 3
    assert f"error: unrecognized arguments: --{flag} 1" in capsys.readouterr().err


@pytest.mark.parametrize("command,flag", [
    (c, f) for c, flags in KEPT_FLAGS.items() for f in flags
])
def test_flag_read_still_parses(command, flag):
    value = {"format": "json", "margin": "0.5"}.get(flag, "1")
    args = build_parser().parse_args([command, *POSITIONALS[command], f"--{flag}", value])
    parsed = getattr(args, flag.replace("-", "_"))
    assert parsed == "json" if flag == "format" else float(parsed) == float(value)


def registered_flags():
    """{command: flags it registers, without the leading dashes}."""
    sub = next(a for a in build_parser()._actions if a.choices and "check" in a.choices)
    return {
        command: {o[2:] for a in parser._actions for o in a.option_strings
                  if o.startswith("--") and o != "--help"}
        for command, parser in sub.choices.items()
    }


def readme_flags():
    """{command: flags} from the README's per-command table; every
    command also takes --format."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| command | flags |", 1)[1].split("\n\n", 1)[0]
    table_flags = {}
    for row in table.splitlines()[2:]:
        commands, flags = row.strip("|").split("|")
        named = set(re.findall(r"`--([a-z-]+)`", flags)) | {"format"}
        for command in re.findall(r"`([a-z-]+)`", commands):
            table_flags[command] = named
    return table_flags


def test_registrations_are_exactly_the_kept_flags():
    assert registered_flags() == {c: set(f) for c, f in KEPT_FLAGS.items()}


def test_readme_flag_table_matches_the_parser():
    assert readme_flags() == registered_flags()
