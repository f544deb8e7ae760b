"""Expression grammar and manifest parsing, with located diagnostics."""

import pytest

from taures import anderson, cli
from taures.errors import SkewParseError
from taures.anderson import validate
from taures.cli import render_manifest
from taures.fields import SPoly
from taures.parsing import (ext_field_of_degree, manifest_ext_field,
                            manifest_tau_matrix, parse_manifest,
                            parse_skew_expr, parse_skew_row,
                            parse_tpoly_row)


class TestSkewExpr:
    def test_tau_theta_order(self, pf3):
        th = pf3.theta()
        right = parse_skew_expr("tau * theta", pf3)
        assert right.coeff(1) == th
        left = parse_skew_expr("theta * tau", pf3)
        assert left.coeff(1) == th.q_root()
        assert right != left

    def test_square_expansion(self, pf3):
        th = pf3.theta()
        f = parse_skew_expr("(theta + tau)^2", pf3)
        assert f.coeff(0) == th * th
        assert f.coeff(1).q_pow() == th.q_pow() + th
        assert f.coeff(2).is_one()

    def test_sigma(self, pf3):
        f = parse_skew_expr("sigma^2 * theta", pf3)
        assert f.coeff(-2) == pf3.theta()

    def test_integer_literals_reduce(self, pf3):
        f = parse_skew_expr("4", pf3)
        assert f.coeff(0) == pf3.one()

    def test_z_needs_modulus(self, pf3, pf4):
        with pytest.raises(SkewParseError):
            parse_skew_expr("z + 1", pf3)
        f = parse_skew_expr("z^2 + z", pf4)
        z = pf4.from_fq(pf4.fq.gen())
        assert f.coeff(0) == z * z + z

    def test_division_scalar_only(self, pf3):
        f = parse_skew_expr("(theta^2 + 1)/theta", pf3)
        th = pf3.theta()
        assert f.coeff(0) == (th * th + pf3.one()) / th
        with pytest.raises(SkewParseError) as err:
            parse_skew_expr("tau / 2", pf3)
        assert "tau/sigma-free" in str(err.value)
        with pytest.raises(SkewParseError):
            parse_skew_expr("1 / (theta - theta)", pf3)

    def test_precedence(self, pf3):
        th = pf3.theta()
        f = parse_skew_expr("theta + theta * theta^2", pf3)
        assert f.coeff(0) == th + th ** 3

    def test_syntax_errors_carry_location(self, pf3):
        with pytest.raises(SkewParseError) as err:
            parse_skew_expr("theta + ", pf3)
        assert err.value.line == 1 and err.value.col == 9
        with pytest.raises(SkewParseError) as err:
            parse_skew_expr("theta ^ tau", pf3)
        assert "exponent" in str(err.value)
        with pytest.raises(SkewParseError) as err:
            parse_skew_expr("frobenius", pf3)
        assert "unknown name" in str(err.value)
        with pytest.raises(SkewParseError) as err:
            parse_skew_expr("theta theta", pf3)
        assert "trailing" in str(err.value)

    def test_row_split(self, pf3):
        row = parse_skew_row("theta + tau^2 | tau^3", pf3)
        assert len(row) == 2
        assert row[0].coeff(2).is_one()
        assert row[1].coeff(3).is_one()


MAURISCHAT_MANIFEST = """\
q: 3
base: perf-rational
dim: 2
rank: 3
phi_t:
row: theta + tau^2 | tau^3
row: 1 + tau | theta + tau^2
motive_basis:
row: 0 | tau
row: 0 | 1
row: 1 | 0
comotive_basis:
col: tau | 0
col: 1 | 0
col: 0 | 1
"""


class TestManifest:
    def test_maurischat_parses_and_validates(self):
        man = parse_manifest(MAURISCHAT_MANIFEST)
        assert man.q == 3 and man.dim == 2 and man.rank == 3
        report = validate(man.module)
        assert report.ok

    def test_sigma_in_phi_rejected(self):
        text = MAURISCHAT_MANIFEST.replace("row: 1 + tau |",
                                           "row: sigma |")
        with pytest.raises(SkewParseError) as err:
            parse_manifest(text)
        assert "R[tau]" in str(err.value)
        assert err.value.line == 7

    def test_q4_with_modulus(self):
        text = """\
q: 4
modulus: z^2 + z + 1
base: perf-rational
dim: 1
phi_t:
row: theta + z*tau
motive_basis:
row: 1
comotive_basis:
col: 1
"""
        man = parse_manifest(text)
        assert man.field.q == 4
        z = man.pf.from_fq(man.field.gen())
        assert man.module.phi_t[0, 0].coeff(1) == z.q_root()

    def test_reducible_modulus_diagnostic(self):
        text = "q: 4\nmodulus: z^2 + 1\nbase: perf-rational\ndim: 1\n" \
               "phi_t:\nrow: theta + tau\nmotive_basis:\nrow: 1\n" \
               "comotive_basis:\ncol: 1\n"
        with pytest.raises(SkewParseError) as err:
            parse_manifest(text)
        assert err.value.line == 2

    def test_basis_length_mismatch(self):
        text = MAURISCHAT_MANIFEST.replace("col: 0 | 1\n", "")
        with pytest.raises(SkewParseError) as err:
            parse_manifest(text)
        assert "comotive" in str(err.value)

    def test_row_width_mismatch(self):
        text = MAURISCHAT_MANIFEST.replace("row: 1 + tau | theta + tau^2",
                                           "row: 1 + tau")
        with pytest.raises(SkewParseError) as err:
            parse_manifest(text)
        assert err.value.line == 7

    def test_unknown_key(self):
        with pytest.raises(SkewParseError) as err:
            parse_manifest("q: 3\nbogus: 1\n")
        assert "unknown key" in str(err.value)
        assert err.value.line == 2

    def test_duplicate_key(self):
        with pytest.raises(SkewParseError):
            parse_manifest("q: 3\nq: 5\n")

    def test_finite_field_base(self):
        text = """\
q: 2
base: finite-field
theta: 0
dim: 1
phi_t:
row: theta + tau
motive_basis:
row: 1
comotive_basis:
col: 1
"""
        man = parse_manifest(text)
        assert not man.module.theta
        assert man.module.theta.is_constant()

    def test_finite_field_needs_theta(self):
        text = "q: 2\nbase: finite-field\ndim: 1\nphi_t:\nrow: tau\n" \
               "motive_basis:\nrow: 1\ncomotive_basis:\ncol: 1\n"
        with pytest.raises(SkewParseError) as err:
            parse_manifest(text)
        assert "theta" in str(err.value)

    def test_comments_and_blank_lines(self):
        text = MAURISCHAT_MANIFEST.replace("dim: 2",
                                           "dim: 2  # two copies\n")
        man = parse_manifest(text)
        assert man.dim == 2

    def test_ext_fields(self):
        text = MAURISCHAT_MANIFEST + "ext_degree: 2\n"
        man = parse_manifest(text)
        ext = manifest_ext_field(man)
        assert ext.n == 2

        text2 = MAURISCHAT_MANIFEST + "ext_modulus: w^2 + 2*w + 1\n"
        man2 = parse_manifest(text2)
        with pytest.raises(SkewParseError) as err:
            # (w+1)^2 is reducible
            manifest_ext_field(man2)

    def test_tau_matrix_block(self):
        text = """\
q: 2
base: finite-field
theta: 0
dim: 2
phi_t:
row: theta | 1
row: tau | theta
motive_basis:
row: 1 | 0
comotive_basis:
col: 0 | 1
tau_matrix_motive:
row: t^2
"""
        man = parse_manifest(text)
        ext = ext_field_of_degree(man.field, 1)
        tm = manifest_tau_matrix(man, "motive", ext)
        assert tm.side == "motive"
        assert tm.entries[0][0].degree() == 2


class TestTPolyRow:
    def test_atoms_literals_and_division(self, fq4):
        ext = ext_field_of_degree(fq4, 2)
        one, w, z = ext.one(), ext.gen(), ext.embed(fq4.gen())
        row = parse_tpoly_row("w*t^2 + z | 3 | z / (z + 1) | 0 / w | w^2",
                              ext)
        assert row == [SPoly(ext, {2: w, 0: z}), SPoly.const(ext, one),
                       SPoly.const(ext, z / (z + one)), SPoly(ext, {}),
                       SPoly.const(ext, w * w)]

    def test_division_by_zero_is_located(self, fq4):
        ext = ext_field_of_degree(fq4, 2)
        with pytest.raises(SkewParseError) as err:
            parse_tpoly_row("t | w / (z + z)", ext, line=4, col=6)
        assert str(err.value) == "error[parse] 4:12: division by zero"


CARLITZ_BODY = ("dim: 1\nphi_t:\nrow: theta + tau\nmotive_basis:\n"
                "row: 1\ncomotive_basis:\ncol: 1\n")


def parse_error(text):
    with pytest.raises(SkewParseError) as err:
        parse_manifest(text)
    return str(err.value)


class TestDiagnostics:
    """Each message is pinned with its line:col."""

    def test_divide_in_modulus(self):
        text = "q: 4\nmodulus: z^2 / z + 1\nbase: perf-rational\n" \
            + CARLITZ_BODY
        assert parse_error(text) == \
            "error[parse] 2:14: '/' is not legal in a modulus"

    def test_divide_in_ext_modulus(self):
        man = parse_manifest("q: 2\nbase: perf-rational\n" + CARLITZ_BODY
                             + "ext_modulus: w^2 / w + 1\n")
        with pytest.raises(SkewParseError) as err:
            manifest_ext_field(man)
        assert str(err.value) == \
            "error[parse] 10:18: '/' is not legal in a modulus"

    def test_trailing_paren_after_modulus(self):
        text = "q: 4\nmodulus: z^2 + z + 1)\nbase: perf-rational\n" \
            + CARLITZ_BODY
        assert parse_error(text) == \
            "error[parse] 2:21: unexpected trailing ')'"

    @pytest.mark.parametrize("base", ["perf-rational", "finite-field"])
    def test_theta_tau_is_not_a_scalar(self, base):
        text = "q: 3\nbase: {}\ntheta: tau\n".format(base) + CARLITZ_BODY
        assert parse_error(text) == \
            "error[parse] 3:8: theta must be a scalar"

    def test_theta_names_itself_on_a_finite_base(self):
        text = "q: 3\nbase: finite-field\ntheta: theta\n" + CARLITZ_BODY
        assert parse_error(text) == \
            "error[parse] 3:8: 'theta' is not legal here"

    def test_rank_must_count_the_bases(self):
        assert parse_manifest(MAURISCHAT_MANIFEST).rank == 3
        text = MAURISCHAT_MANIFEST.replace("rank: 3", "rank: 7")
        assert parse_error(text) == \
            "error[parse] 4:7: rank 7 but the bases have 3 elements"

    @pytest.mark.parametrize("row,message", [
        ("t | t $", "12:12: unexpected character '$'"),
        ("t^2 + tau", "12:12: unknown name 'tau'"),
        ("t / t", "12:8: '/' needs constant operands here"),
        ("t^2 | )", "12:12: expected a value, got ')'"),
    ])
    def test_bad_tau_matrix_row(self, row, message):
        man = parse_manifest("q: 2\nbase: finite-field\ntheta: 0\n"
                             + CARLITZ_BODY
                             + "tau_matrix_motive:\nrow: {}\n".format(row))
        ext = ext_field_of_degree(man.field, 1)
        with pytest.raises(SkewParseError) as err:
            manifest_tau_matrix(man, "motive", ext)
        assert str(err.value) == "error[parse] " + message


class TestRoundTrip:
    def test_registry_round_trips(self):
        from taures.cli import (render_manifest, example_carlitz,
                                example_carlitz_tensor, example_drinfeld,
                                example_maurischat)
        mans = []
        for q in (2, 3, 4, 5, 7, 8, 9):
            mans += [example_carlitz(q), example_maurischat(q),
                     example_drinfeld(q, 2), example_drinfeld(q, 3, seed=11)]
            mans += [example_carlitz_tensor(q, d) for d in (1, 3, 5)]
        for man in mans:
            text = render_manifest(man)
            parsed = parse_manifest(text)
            assert render_manifest(parsed) == text
            assert validate(parsed.module).ok

    def test_ext_and_tau_matrix_blocks_round_trip(self):
        canonical = """\
q: 2
base: finite-field
theta: 1
dim: 2
phi_t:
row: theta | 1
row: tau | theta
motive_basis:
row: 1 | 0
comotive_basis:
col: 0 | 1
ext_degree: 2
ext_modulus: w^2 + w + 1
tau_matrix_motive:
row: t + w | 1
row: 0 | t^2
tau_matrix_comotive:
row: t | w^2
row: 1 | 0
"""
        loose = canonical.replace("ext_modulus: w^2 + w + 1",
                                  "ext_modulus:   w^2 +  w + 1") \
            .replace("row: t + w | 1", "  row:  t +  w |  1  # first row")
        first = parse_manifest(loose)
        assert render_manifest(first) == canonical
        again = parse_manifest(render_manifest(first))
        assert render_manifest(again) == canonical
        assert again.ext_degree == 2
        ext = manifest_ext_field(first)
        assert str(manifest_ext_field(again).modulus) == str(ext.modulus)
        for side in ("motive", "comotive"):
            assert manifest_tau_matrix(again, side, ext).entries == \
                manifest_tau_matrix(first, side, ext).entries


def _drinfeld_g(pf, texts):
    """The PerfElement values of the coefficient texts used below."""
    th = pf.theta()
    values = {"1": pf.one(), "theta": th, "theta + 1": th + pf.one(),
              "theta^2": th * th}
    return [values[t] for t in texts]


class TestExamplesMatchConstructors:
    """Each built-in family is written twice: as manifest text in
    ``cli.example_*`` and as objects in ``anderson``.  Parsing the
    rendered manifest must give the constructor's module."""

    G_TEXTS = (["1"], ["theta + 1", "theta"],
               ["theta + 1"] * 3 + ["theta"], ["theta^2", "1", "theta^2"])

    @staticmethod
    def assert_same(parsed, built):
        assert parsed.dim == built.dim
        assert parsed.theta == built.theta
        assert parsed.phi_t == built.phi_t
        assert parsed.motive_basis == built.motive_basis
        assert parsed.comotive_basis == built.comotive_basis

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 25])
    def test_families(self, q):
        def module_of(man):
            man = parse_manifest(render_manifest(man))
            return man.module, man.pf, man.pf.theta()

        E, pf, th = module_of(cli.example_carlitz(q))
        self.assert_same(E, anderson.carlitz(pf, th))
        E, pf, th = module_of(cli.example_maurischat(q))
        self.assert_same(E, anderson.maurischat(pf, th))
        for d in (1, 2, 3, 5):
            E, pf, th = module_of(cli.example_carlitz_tensor(q, d))
            self.assert_same(E, anderson.carlitz_tensor(pf, th, d))
        for texts in self.G_TEXTS:
            E, pf, th = module_of(
                cli.example_drinfeld(q, len(texts), g_texts=texts))
            self.assert_same(E, anderson.drinfeld(pf, th,
                                                  _drinfeld_g(pf, texts)))
