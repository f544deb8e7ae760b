"""Command dispatch, golden outputs, and exit codes."""

import argparse
import contextlib
import hashlib
import io
import os
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

from taures import cli
from taures.cli import COMMANDS, build_arg_parser, main
from taures.parsing import parse_manifest
from taures.skewmat import invert_series_matrix

from conftest import NON_NILPOTENT_C0_MANIFEST, positive_degree_manifest

CARLITZ_Q2 = """\
q: 2
base: perf-rational
dim: 1
rank: 1
phi_t:
row: theta + tau
motive_basis:
row: 1
comotive_basis:
col: 1
"""


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestExamples:
    def test_carlitz_manifest(self, capsys):
        code, out, _ = run(capsys, "examples", "carlitz", "--q", "2")
        assert code == 0
        assert out == CARLITZ_Q2

    def test_carlitz_tensor_manifest(self, capsys):
        code, out, _ = run(capsys, "examples", "carlitz-tensor",
                           "--q", "2", "--d", "3")
        assert code == 0
        assert "row: 0 | theta | 1" in out
        assert "row: tau | 0 | theta" in out

    def test_q4_emits_modulus(self, capsys):
        code, out, _ = run(capsys, "examples", "carlitz", "--q", "4")
        assert code == 0
        assert "modulus: z^2 + z + 1" in out

    def test_drinfeld_seeded_is_stable(self, capsys):
        code, out1, _ = run(capsys, "examples", "drinfeld", "--q", "3",
                            "--r", "3", "--seed", "7")
        code2, out2, _ = run(capsys, "examples", "drinfeld", "--q", "3",
                             "--r", "3", "--seed", "7")
        assert code == code2 == 0
        assert out1 == out2

    def test_registry_byte_stable(self, capsys):
        invocations = [
            ("examples", "carlitz", "--q", "3"),
            ("examples", "carlitz-tensor", "--q", "2", "--d", "5"),
            ("examples", "drinfeld", "--q", "2", "--r", "4", "--seed", "3"),
            ("examples", "maurischat", "--q", "3"),
        ]
        for argv in invocations:
            code1, out1, _ = run(capsys, *argv)
            code2, out2, _ = run(capsys, *argv)
            assert code1 == code2 == 0
            assert out1 == out2

    def test_unknown_example(self, capsys):
        code, _, err = run(capsys, "examples", "nonesuch")
        assert code == 2
        assert "error[parse]" in err


class TestCommands:
    def test_validate(self, capsys, tmp_path):
        path = write(tmp_path, "car.man", CARLITZ_Q2)
        code, out, _ = run(capsys, "validate", path)
        assert code == 0
        assert out.startswith("valid")

    def test_validate_failure_exit_code(self, capsys, tmp_path):
        bad = CARLITZ_Q2.replace("theta + tau", "tau")
        path = write(tmp_path, "bad.man", bad)
        code, out, _ = run(capsys, "validate", path)
        assert code == 3
        assert "invalid" in out

    def test_pair_golden(self, capsys, tmp_path):
        path = write(tmp_path, "car.man", CARLITZ_Q2)
        code, out, _ = run(capsys, "pair", path, "--m", "1", "--n", "1")
        assert code == 0
        assert out == "1 dt\n"

    def test_pair_multi_entry(self, capsys, tmp_path):
        code, manifest_text, _ = run(capsys, "examples", "maurischat",
                                     "--q", "2")
        path = write(tmp_path, "mau.man", manifest_text)
        # e3 = kappa_1 against e2-check = kcheck_1: entry (3,2) = +dt
        code, out, _ = run(capsys, "pair", path,
                           "--m", "1 | 0", "--n", "1 | 0")
        assert code == 0
        assert out == "1 dt\n"
        code, _, err = run(capsys, "pair", path, "--m", "1", "--n", "1")
        assert code == 2
        assert "entries" in err

    def test_gram_golden_and_stable(self, capsys, tmp_path):
        path = write(tmp_path, "car.man", CARLITZ_Q2)
        code, out1, _ = run(capsys, "gram", path)
        assert code == 0
        assert out1.splitlines()[0] == "1 dt"
        assert out1.splitlines()[1] == "K = 2, b = 0, det = 1, perfect = yes"
        assert "note: b is measured" in out1
        _, out2, _ = run(capsys, "gram", path)
        assert out1 == out2

    def test_invert_golden(self, capsys, tmp_path):
        path = write(tmp_path, "car.man", CARLITZ_Q2)
        code, out, _ = run(capsys, "invert", path, "--order", "3")
        assert code == 0
        assert out == ("sigma^3 * theta^6 + sigma^2 * theta^2 + sigma"
                       " + O(sigma^4)\n")

    def test_invert_order_one_maurischat(self, capsys, tmp_path):
        # order 1 inverts in one elimination pass, which agrees with
        # order 2 (test_skewmat pins the matrices that must escalate)
        for q in ("2", "3", "5"):
            _, manifest_text, _ = run(capsys, "examples", "maurischat",
                                      "--q", q)
            path = write(tmp_path, "mau{}.man".format(q), manifest_text)
            code, out, err = run(capsys, "invert", path, "--order", "1")
            assert code == 0, err
            assert out.count("O(sigma^2)") == 4
            code, _, err = run(capsys, "invert", path, "--order", "2")
            assert code == 0, err
            phi = parse_manifest(manifest_text).module.phi_t
            x1 = invert_series_matrix(phi, 1)
            assert out == x1.render() + "\n"
            assert x1.agrees_with(invert_series_matrix(phi, 2))

    def test_perfectness(self, capsys, tmp_path):
        path = write(tmp_path, "car.man", CARLITZ_Q2)
        code, out, _ = run(capsys, "perfectness", path)
        assert code == 0
        assert out == "K = 2, b = 0, det = 1, perfect = yes\n"

    def test_lseries_golden(self, capsys, tmp_path):
        man = ("q: 2\nbase: finite-field\ntheta: 0\ndim: 1\nphi_t:\n"
               "row: theta + tau\nmotive_basis:\nrow: 1\n"
               "comotive_basis:\ncol: 1\n")
        path = write(tmp_path, "car0.man", man)
        code, out, _ = run(capsys, "lseries", path, "--ext-degree", "2")
        assert code == 0
        assert out == ("motive: T^2 + t^2\ncomotive: T^2 + t^2\n"
                       "E(k) fitting: t^2 + 1\nconsistent: yes\n")

    @pytest.mark.parametrize("declared,degree", [
        ("", 1),
        ("ext_degree: 3\n", 3),
        ("ext_modulus: w^3 + w + 1\n", 3),
    ])
    def test_lseries_reads_k_from_the_manifest(self, capsys, tmp_path,
                                               declared, degree):
        """Without --ext-degree, k comes from the manifest (F_q when it
        declares none); --ext-degree overrides a declaration."""
        man = ("q: 2\nbase: finite-field\ntheta: 1\ndim: 1\nphi_t:\n"
               "row: theta + tau + tau^2\nmotive_basis:\nrow: 1\nrow: tau\n"
               "comotive_basis:\ncol: 1\ncol: tau\n")
        bare = write(tmp_path, "bare.man", man)
        path = write(tmp_path, "k.man", man + declared)
        expected = {n: run(capsys, "lseries", bare, "--ext-degree", str(n))
                    for n in (degree, 2)}
        assert run(capsys, "lseries", path) == expected[degree]
        assert run(capsys, "lseries", path, "--ext-degree", "2") == \
            expected[2]
        assert expected[degree][1].endswith("consistent: yes\n")
        assert expected[degree] != expected[2]

    def test_gram_maurischat_golden(self, capsys, tmp_path):
        code, manifest_text, _ = run(capsys, "examples", "maurischat",
                                     "--q", "3")
        path = write(tmp_path, "mau.man", manifest_text)
        code, out, _ = run(capsys, "gram", path)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == \
            "2*t + 2*theta^3 + 2*theta + 2 | 2 | t + theta^3 + theta dt"
        assert lines[3] == "K = 8, b = 0, det = 1, perfect = yes"


# stdout sha256 of `taures gram` on carlitz-tensor examples beyond the
# benchmark's grid, recorded before find_k1 read k1 off C0 and phi(t)
# kept its inverse
TENSOR_GRAM_SHA256 = {
    (2, 12): "46bd1d66f0bb8638e59e77cf0906d786"
             "caa62dee01f26748f32c33f983476c2e",
    (2, 16): "c326570b55d1ee315eb3cf2bf8bc013e"
             "eef122d3b0abdc1b3cdbdba820f235bf",
    (3, 12): "38d1ae9b5683642b4e98ac724292e4da"
             "f4e2837e9ff8919ea6c2b91ecd2cef2c",
    (3, 16): "50662f1ad724ffb077e60f67f35e3711"
             "10f927f565e75c031f18b22018f50109",
}


@pytest.mark.parametrize("q,d", sorted(TENSOR_GRAM_SHA256))
def test_tensor_gram_digest(capsys, tmp_path, q, d):
    _, manifest_text, _ = run(capsys, "examples", "carlitz-tensor",
                              "--q", str(q), "--d", str(d))
    path = write(tmp_path, "ct.man", manifest_text)
    code, out, _ = run(capsys, "gram", path)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        TENSOR_GRAM_SHA256[q, d]


class TestExitCodes:
    def test_parse_error(self, capsys, tmp_path):
        path = write(tmp_path, "bad.man", "q: 2\nwhat: 1\n")
        code, _, err = run(capsys, "validate", path)
        assert code == 2
        assert err.startswith("error[parse] 2:")

    def test_invert_failure_exit_code(self, capsys, tmp_path):
        # the validation report goes to stderr, and nothing to stdout
        path = write(tmp_path, "bad.man",
                     CARLITZ_Q2.replace("theta + tau", "tau"))
        code, report, _ = run(capsys, "validate", path)
        assert code == 3 and report.startswith("invalid")
        assert run(capsys, "invert", path) == (3, "", report)

    def test_declared_rank_must_count_the_bases(self, capsys, tmp_path):
        _, text, _ = run(capsys, "examples", "maurischat", "--q", "2")
        path = write(tmp_path, "mau.man", text.replace("rank: 3", "rank: 7"))
        code, out, err = run(capsys, "perfectness", path)
        assert (code, out) == (2, "")
        assert err == \
            "error[parse] 4:7: rank 7 but the bases have 3 elements\n"

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", "/nonexistent/x.man")
        assert code == 2

    def test_convergence_cap(self, capsys, tmp_path):
        code, manifest_text, _ = run(capsys, "examples", "carlitz-tensor",
                                     "--q", "2", "--d", "4")
        path = write(tmp_path, "ct4.man", manifest_text)
        code, _, err = run(capsys, "gram", path, "--k-cap", "2")
        assert code == 4
        assert "error[convergence]" in err

    @pytest.mark.parametrize("cap,code", [(3, 4), (4, 4), (5, 0)])
    def test_k_cap_against_the_nilpotency_index(self, capsys, tmp_path,
                                                cap, code):
        # carlitz-tensor d = 5 has k1 = 5: a cap below it exits 4
        _, manifest_text, _ = run(capsys, "examples", "carlitz-tensor",
                                  "--q", "2", "--d", "5")
        path = write(tmp_path, "ct5.man", manifest_text)
        got, out, err = run(capsys, "gram", path, "--k-cap", str(cap))
        assert got == code
        if code:
            assert err == "error[convergence]: convergence not certified " \
                "within cap {}\n".format(cap)
        else:
            assert "K = 10, b = 0, det = 1, perfect = yes" in out

    def test_non_nilpotent_c0_names_c0(self, capsys, tmp_path):
        # C0^dim != 0 proves that no k1 exists, whatever the cap
        path = write(tmp_path, "c0.man", NON_NILPOTENT_C0_MANIFEST)
        code, out, err = run(capsys, "gram", path)
        assert (code, out) == (4, "")
        assert err == "error[convergence]: C0 = coeff_0(phi(t)^-1) is not " \
            "nilpotent: C0^2 != 0 at dim 2, so no k1 exists\n"

    def test_precision_cap(self, capsys, tmp_path):
        code, manifest_text, _ = run(capsys, "examples", "maurischat",
                                     "--q", "2")
        path = write(tmp_path, "mau.man", manifest_text)
        code, _, err = run(capsys, "gram", path, "--precision-cap", "1")
        assert code == 5
        assert "error[precision]" in err

    @pytest.mark.parametrize("argv", [
        ("gram",), ("perfectness",),
        ("pair", "--m", "1 | 0", "--n", "1 | 0")])
    def test_positive_degree_inverse(self, capsys, tmp_path, argv):
        path = write(tmp_path, "pos.man", positive_degree_manifest(3))
        code, out, err = run(capsys, argv[0], path, *argv[1:])
        assert (code, out) == (5, "")
        assert "error[precision]" in err
        assert "phi(t)^-1 has tau-degree 1 > 0" in err

    @pytest.mark.parametrize("argv", [
        ("gram",), ("perfectness",),
        ("pair", "--m", "1 | 0", "--n", "1 | 0")])
    def test_positive_degree_refused_before_k1(self, capsys, tmp_path,
                                               argv):
        # the refusal of D > 0 precedes the k1 search and its cap
        path = write(tmp_path, "pos.man", positive_degree_manifest(3))
        code, out, err = run(capsys, argv[0], path, *argv[1:],
                             "--k-cap", "1")
        assert (code, out) == (5, "")
        assert "phi(t)^-1 has tau-degree 1 > 0" in err

    def test_precision_cap_before_k1(self, capsys, tmp_path):
        # carlitz-tensor d = 5 has k1 = 5 > --k-cap 3, but its pairing
        # precision 2 exceeds --precision-cap 1 first
        _, manifest_text, _ = run(capsys, "examples", "carlitz-tensor",
                                  "--q", "2", "--d", "5")
        path = write(tmp_path, "ct5.man", manifest_text)
        code, out, err = run(capsys, "gram", path, "--k-cap", "3",
                             "--precision-cap", "1")
        assert (code, out) == (5, "")
        assert err == "error[precision]: needed sigma-precision 2 " \
            "exceeds cap 1\n"

    def test_singular_phi_not_invertible(self, capsys, tmp_path):
        # tau * [[1, tau], [1, tau]] over a finite base with theta = 0: its
        # constant term is nilpotent, so it validates, and its exact
        # monomial pivot proves the second column zero, not merely zero
        # above a working floor (which would exit 5)
        man = ("q: 3\nbase: finite-field\ntheta: 0\ndim: 2\nphi_t:\n"
               "row: tau | tau^2\nrow: tau | tau^2\nmotive_basis:\n"
               "row: 1 | 0\nrow: 0 | 1\ncomotive_basis:\ncol: 1 | 0\n"
               "col: 0 | 1\n")
        path = write(tmp_path, "sing.man", man)
        code, out, err = run(capsys, "invert", path, "--order", "2")
        assert code == 3
        assert out == ""
        assert "not invertible: column 1 is zero" in err

    @pytest.mark.parametrize("theta,message", [
        # phi(t) = 0 validates at theta = 0 but has no tau-term to read g
        # from; at theta = 1 its constant term minus theta is not nilpotent
        ("0", "error[field]: phi(t) must have a nonzero leading tau term"),
        ("1", "invalid: constant term of phi(t) minus theta*I is not "
              "nilpotent"),
    ])
    def test_lseries_zero_phi(self, capsys, tmp_path, theta, message):
        man = ("q: 2\nbase: finite-field\ntheta: {}\ndim: 1\nphi_t:\n"
               "row: 0\nmotive_basis:\nrow: 1\ncomotive_basis:\ncol: 1\n"
               .format(theta))
        path = write(tmp_path, "zero.man", man)
        code, out, err = run(capsys, "lseries", path)
        assert (code, out) == (3, "")
        assert err.splitlines()[0] == message

    def test_pair_sigma_rejected(self, capsys, tmp_path):
        path = write(tmp_path, "car.man", CARLITZ_Q2)
        code, _, err = run(capsys, "pair", path, "--m", "sigma", "--n", "1")
        assert code == 3
        assert "R[tau]" in err


def outcome(parse, argv):
    """(stdout, stderr, exit code) of one call; argparse exits."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = parse(argv)
        except SystemExit as exc:
            code = exc.code
    return out.getvalue(), err.getvalue(), code


ALL_COMMANDS = "{validate,invert,pair,gram,perfectness,lseries,examples}"

# every call argparse ends itself: help, usage errors and leftovers
PARSER_EXITS = [
    [], ["-h"], ["--help"], ["bogus"], ["gra"],
    *[[name, "-h"] for name, *_ in COMMANDS],
    ["gram"],
    ["pair", "m.man", "--n", "1"],
    ["invert", "m.man", "--order", "two"],
    ["lseries", "m.man", "--ext-degree"],
    ["gram", "m.man", "--bogus"],
    ["--precision-cap", "3", "gram", "m.man"],
]


# for each command: its help, its required arguments missing, an unknown
# option after a complete call
COMMAND_EXITS = [argv for name, *_ in COMMANDS for argv in (
    [name, "-h"], [name],
    [name, "carlitz" if name == "examples" else "m.man", "--bogus"])]


class TestArgumentText:
    """`main` parses on the invoked command's parser alone; what it prints
    must stay what the full tree prints."""

    @pytest.mark.parametrize("argv", COMMAND_EXITS,
                             ids=[" ".join(a) for a in COMMAND_EXITS])
    def test_each_command_matches_full_tree(self, argv, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        full = outcome(lambda a: build_arg_parser().parse_args(a), argv)
        assert isinstance(full[2], int), "the full tree must exit here"
        assert outcome(cli._parse_args, argv) == full

    @pytest.mark.parametrize("argv", PARSER_EXITS,
                             ids=[" ".join(a) or "<none>"
                                  for a in PARSER_EXITS])
    def test_matches_full_tree(self, argv, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        full = outcome(lambda a: build_arg_parser().parse_args(a), argv)
        assert isinstance(full[2], int), "the full tree must exit here"
        assert outcome(main, argv) == full

    def test_top_level_usage_lists_every_command(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        for argv in ([], ["gram", "m.man", "--bogus"],
                     ["--precision-cap", "3", "gram", "m.man"]):
            _, err, code = outcome(main, argv)
            assert code == 2
            assert err.startswith("usage: taures [-h]")
            assert ALL_COMMANDS + " ..." in err

    def test_one_command_builds_one_subparser(self, monkeypatch, capsys,
                                              tmp_path):
        # a plain call builds no parser; one argparse must settle builds
        # the full tree: 8 parsers and 30 add_argument calls (each -h is
        # one)
        counts = {"parsers": 0, "arguments": 0}
        init = argparse.ArgumentParser.__init__
        add = argparse.ArgumentParser.add_argument

        def counted_init(self, *args, **kwargs):
            counts["parsers"] += 1
            init(self, *args, **kwargs)

        def counted_add(self, *args, **kwargs):
            counts["arguments"] += 1
            return add(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            counted_init)
        monkeypatch.setattr(argparse.ArgumentParser, "add_argument",
                            counted_add)
        path = write(tmp_path, "car.man", CARLITZ_Q2)
        assert main(["gram", path]) == 0
        assert counts == {"parsers": 0, "arguments": 0}
        assert main(["gram", path, "--k", "64"]) == 0
        assert counts == {"parsers": 8, "arguments": 30}
        counts.update(parsers=0, arguments=0)
        build_arg_parser()
        assert counts == {"parsers": 8, "arguments": 30}

    def test_argv_defaults_to_sys_argv(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["taures", "examples", "carlitz"])
        assert main() == 0
        assert capsys.readouterr().out == CARLITZ_Q2

    def test_example_with_large_prime_q_is_fast(self, capsys):
        # finding p must not search up to sqrt(q)
        start = time.perf_counter()
        code, out, _ = run(capsys, "examples", "carlitz", "--q",
                           str(2 ** 61 - 1))
        assert time.perf_counter() - start < 2
        assert code == 0
        assert out.startswith("q: 2305843009213693951\nbase:")

    @pytest.mark.parametrize("q", ["-1", "0", "1"])
    def test_example_rejects_q_below_two(self, capsys, q):
        code, out, err = run(capsys, "examples", "carlitz", "--q", q)
        assert (code, out) == (2, "")
        assert err == "error[parse] 0:0: example needs q >= 2\n"

    @pytest.mark.parametrize("argv,message", [
        (("carlitz", "--q", "6"), "q = 6 is not a prime power"),
        (("carlitz", "--q", "10"), "q = 10 is not a prime power"),
        (("carlitz", "--q", "12"), "q = 12 is not a prime power"),
        (("carlitz-tensor", "--d", "0"),
         "carlitz-tensor example needs d >= 1, got 0"),
        (("carlitz-tensor", "--d", "-2"),
         "carlitz-tensor example needs d >= 1, got -2"),
        (("drinfeld", "--r", "0"), "drinfeld example needs r >= 1, got 0"),
        (("drinfeld", "--g", ","),
         "drinfeld example needs g_1 to be a scalar, got ''"),
        (("drinfeld", "--r", "2", "--g", "1,0"),
         "drinfeld example needs g_2 to be a nonzero scalar, got '0'"),
        (("drinfeld", "--r", "1", "--g", "0"),
         "drinfeld example needs g_1 to be a nonzero scalar, got '0'"),
        (("drinfeld", "--g", "tau,1"),
         "drinfeld example needs g_1 to be a scalar, got 'tau'"),
        (("drinfeld", "--g", ""), "drinfeld example needs 2 coefficients"),
        (("drinfeld", "--r", "1", "--g", ""),
         "drinfeld example needs g_1 to be a nonzero scalar, got ''"),
    ])
    def test_example_rejects_bad_arguments(self, capsys, argv, message):
        code, out, err = run(capsys, "examples", *argv)
        assert (code, out) == (2, "")
        assert err == "error[parse] 0:0: {}\n".format(message)

    def test_field_error_in_manifest_has_one_prefix(self, capsys, tmp_path):
        path = write(tmp_path, "q6.man",
                     CARLITZ_Q2.replace("q: 2\n", "q: 6\nmodulus: z + 1\n"))
        code, out, err = run(capsys, "validate", path)
        assert (code, out) == (2, "")
        assert err == "error[parse] 2:10: q = 6 is not a prime power\n"


# (command, flag) for every option of every command
OPTIONS = [(name, flag) for name, _, arguments, _ in COMMANDS
           for flag, _ in arguments if flag.startswith("-")]


class TestOptions:
    @pytest.mark.parametrize("name,flag", OPTIONS,
                             ids=[" ".join(o) for o in OPTIONS])
    def test_double_dash_value_is_refused(self, name, flag, monkeypatch):
        """argparse (3.11) reads `--flag=--` as []; it exits 2 with usage
        instead of reaching a handler."""
        monkeypatch.setenv("COLUMNS", "80")
        arguments = dict(next(c[2] for c in COMMANDS if c[0] == name))
        argv = [name, "carlitz" if name == "examples" else "m.man"]
        for other, opts in arguments.items():
            if opts.get("required") and other != flag:
                argv += [other, "1"]
        out, err, code = outcome(main, argv + [flag + "=--"])
        assert (out, code) == ("", 2)
        assert err.startswith("usage: taures")
        assert err.endswith(
            "error: argument {}: expected one argument\n".format(flag))

    @pytest.mark.parametrize("flag", ["--precision-cap", "--k-cap"])
    @pytest.mark.parametrize("name", ["validate", "invert", "lseries"])
    def test_caps_belong_to_the_pairing_commands(self, name, flag,
                                                  monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        out, err, code = outcome(main, [name, "m.man", flag, "3"])
        assert (out, code) == ("", 2)
        assert err.startswith("usage: taures [-h]")
        assert err.endswith(
            "error: unrecognized arguments: {} 3\n".format(flag))

    def test_every_declared_option_is_read(self, tmp_path, monkeypatch,
                                           capsys):
        """Each handler reads every option its COMMANDS row declares, over
        calls covering every command and every example name."""
        reads = {name: set() for name, *_ in COMMANDS}
        parse = cli._parse_args

        class Recorder(SimpleNamespace):
            def __getattribute__(self, attr):
                reads[object.__getattribute__(self, "command")].add(attr)
                return object.__getattribute__(self, attr)

        monkeypatch.setattr(cli, "_parse_args",
                            lambda argv: Recorder(**vars(parse(argv))))
        car = write(tmp_path, "car.man", CARLITZ_Q2)
        fin = write(tmp_path, "fin.man", CARLITZ_Q2.replace(
            "perf-rational", "finite-field\ntheta: 0"))
        calls = [["validate", car], ["invert", car],
                 ["pair", car, "--m", "1", "--n", "1"], ["gram", car],
                 ["perfectness", car], ["lseries", fin]]
        calls += [["examples", name] for name in cli.EXAMPLES]
        calls.append(["examples", "drinfeld", "--g", "1,theta"])
        for argv in calls:
            assert main(argv) == 0, argv
        for name, _, arguments, _ in COMMANDS:
            declared = {flag.lstrip("-").replace("-", "_")
                        for flag, _ in arguments}
            assert declared <= reads[name], name


GRAM_HELP = """\
usage: taures gram [-h] [--precision-cap PRECISION_CAP] [--k-cap K_CAP]
                   manifest

positional arguments:
  manifest              path to a module manifest

options:
  -h, --help            show this help message and exit
  --precision-cap PRECISION_CAP
                        max sigma-precision of the pairing's phi(t)^-1
  --k-cap K_CAP         search cap for the convergence exponent k1
"""

# what argv may hold: exact flags, values argparse reads in its own ways
# or the types refuse, and tokens that only argparse can settle
READ_FLAGS = ["--order", "--m", "--n", "--q", "--d", "--r", "--seed", "--g",
              "--precision-cap", "--k-cap", "--ext-degree"]
READ_VALUES = ["m.man", "carlitz", "tau", "theta | 1", "-1", "0", "1", "3",
               " 4", "", "1_0", "x", "-", "--", "-h"]
READ_OTHERS = ([name for name, *_ in COMMANDS]
               + ["--prec", "--k", "--k-cap=3", "--m=tau", "--bogus", "-h",
                  "--", "-"])


class TestDirectRead:
    """`_read_args` reads plain calls straight from COMMANDS; whatever it
    reads, argparse reads the same, and whatever it leaves, argparse
    settles as before."""

    def test_agrees_with_argparse(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        parser = build_arg_parser()

        def argvs(name, arguments):
            # the command's own flag-value pairs make plain calls common;
            # validate has none, so it draws any command's flags
            flags = [flag for flag, _ in arguments
                     if flag.startswith("-")] or READ_FLAGS
            pair = st.tuples(st.sampled_from(flags),
                             st.sampled_from(READ_VALUES)).map(list)
            value = st.sampled_from(READ_VALUES).map(lambda t: [t])
            other = st.sampled_from(READ_FLAGS + READ_OTHERS).map(
                lambda t: [t])
            return st.lists(st.one_of(pair, pair, value, other),
                            max_size=5).map(
                lambda ts: [name] + [t for pair in ts for t in pair])

        @hypothesis.settings(max_examples=1000, deadline=None,
                             database=None, derandomize=True)
        @hypothesis.given(argv=st.one_of([argvs(name, arguments) for
                                          name, _, arguments, _ in COMMANDS]))
        @hypothesis.example(argv=["gram", "m.man"])
        @hypothesis.example(argv=["pair", "--n", "1", "m.man", "--k-cap",
                                  " 4", "--m", "theta | 1"])
        @hypothesis.example(argv=["examples", "--q", "1_0", "carlitz", "--g",
                                  ""])
        @hypothesis.example(argv=["examples", "carlitz", "--g", "-h"])
        @hypothesis.example(argv=["pair", "m.man", "--m", "--", "--n", "1"])
        def check(argv):
            read = cli._read_args(argv)
            if read is not None:
                assert vars(read) == vars(parser.parse_args(argv))

        check()

    @pytest.mark.parametrize("q", [2, 3])
    def test_main_output_as_with_argparse(self, q, tmp_path, monkeypatch):
        paths = []
        for name, argv in (
                ("carlitz", ["carlitz"]),
                ("drinfeld", ["drinfeld", "--r", "3", "--seed", "1"]),
                ("tensor", ["carlitz-tensor", "--d", "3"])):
            text, _, code = outcome(main, ["examples", *argv, "--q", str(q)])
            assert code == 0
            paths.append(write(tmp_path, name + ".man", text))
        calls = []
        for value in ("-1", "0", "1", "2", "3", " 4", "1_0"):
            for opt in ("--q", "--d", "--r", "--seed"):
                calls += [["examples", "drinfeld", opt, value],
                          ["examples", opt, value, "carlitz-tensor"]]
            for path in paths:
                dim = 3 if path.endswith("tensor.man") else 1
                m = " | ".join(["tau"] + ["0"] * (dim - 1))
                n = " | ".join(["0"] * (dim - 1) + ["tau"])
                for command, opts, extra in (
                        ("gram", ("--precision-cap", "--k-cap"), []),
                        ("invert", ("--order",), []),
                        ("pair", ("--k-cap",), ["--m", m, "--n", n])):
                    for opt in opts:
                        calls += [[command, path, opt, value] + extra,
                                  [command] + extra + [opt, value, path]]
        direct = [outcome(main, argv) for argv in calls]
        monkeypatch.setattr(cli, "_read_args", lambda argv: None)
        assert [outcome(main, argv) for argv in calls] == direct

    def test_plain_call_never_imports_argparse(self, tmp_path):
        path = write(tmp_path, "car.man", CARLITZ_Q2)
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=src, COLUMNS="80")
        script = ("import sys\n"
                  "from taures.cli import main\n"
                  "code = main(sys.argv[1:])\n"
                  "print('argparse' in sys.modules, code)\n")

        def fresh(*argv):
            return subprocess.run([sys.executable, "-c", script, *argv],
                                  capture_output=True, text=True, env=env,
                                  timeout=60)

        plain = fresh("gram", path)
        assert plain.stdout.endswith("\nFalse 0\n"), plain.stderr
        helped = fresh("gram", "-h")
        assert (helped.stdout, helped.returncode) == (GRAM_HELP, 0)
