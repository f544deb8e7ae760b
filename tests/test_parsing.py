"""Expression grammar and manifest parsing, with located diagnostics."""

import string
from types import SimpleNamespace

import pytest

from taures import anderson, cli
from taures.errors import SkewParseError
from taures.anderson import validate
from taures.cli import render_manifest
from taures.fields import ExtField, SPoly, find_irreducible
from taures.parsing import (FORMAT, _parse_modulus, ext_field_of_degree,
                            manifest_ext_field, manifest_tau_matrix,
                            parse_manifest, parse_skew_expr, parse_skew_row,
                            parse_tpoly_row, tokenize)

from conftest import tokenize_reference


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

    def test_zero_over_theta_in_a_row(self):
        text = MAURISCHAT_MANIFEST.replace("row: 0 | tau\n",
                                           "row: 0/theta | tau\n")
        first = parse_manifest(text).module.motive_basis[0]
        assert not first[0, 0] and first[0, 1].coeff(1).is_one()

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
        assert len(tm) == 1
        assert tm[0][0].degree() == 2


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

    @pytest.mark.parametrize("again,message", [
        ("phi_t:\nrow: tau\n", "10:1: duplicate key 'phi_t'"),
        ("motive_basis:\nrow: tau\ncomotive_basis:\ncol: tau\n",
         "10:1: duplicate key 'motive_basis'"),
        ("comotive_basis:\ncol: tau\n",
         "10:1: duplicate key 'comotive_basis'"),
        ("tau_matrix_motive:\nrow: t\ntau_matrix_motive:\nrow: t\n",
         "12:1: duplicate key 'tau_matrix_motive'"),
        ("q: 3\n", "10:1: duplicate key 'q'"),
    ])
    def test_every_key_is_written_once(self, again, message):
        """A second section header is refused like a second scalar key;
        it does not append to the first section."""
        text = "q: 3\nbase: perf-rational\n" + CARLITZ_BODY + again
        assert parse_error(text) == "error[parse] " + message

    @pytest.mark.parametrize("text,message", [
        ("q: 3\nrow: 1\n", "2:1: 'row:' outside of a section"),
        ("q: 3\nbase: perf-rational\n" + CARLITZ_BODY + "rank: 1\n"
         "  col: tau\n", "11:3: 'col:' outside of a section"),
        ("q: 3\nphi_t:\ncol: 1\n", "3:1: section phi_t takes 'row:' lines"),
    ])
    def test_line_outside_its_section(self, text, message):
        assert parse_error(text) == "error[parse] " + message

    @pytest.mark.parametrize("degree", ["0", "-3"])
    def test_ext_degree_is_located(self, degree):
        text = "q: 3\nbase: perf-rational\n" + CARLITZ_BODY \
            + "ext_degree: {}\n".format(degree)
        assert parse_error(text) == \
            "error[parse] 10:13: ext degree must be >= 1"

    @pytest.mark.parametrize("text,message", [
        # an empty section at its header, a missing one at q
        ("q: 3\ndim: 1\nphi_t:\nmotive_basis:\nrow: 1\n"
         "comotive_basis:\ncol: 1\n", "3:8: phi_t has 0 rows, need 1"),
        ("q: 3\ndim: 1\nmotive_basis:\nrow: 1\ncomotive_basis:\ncol: 1\n",
         "1:4: phi_t has 0 rows, need 1"),
        ("q: 3\ndim: 1\nphi_t:\nrow: theta + tau\n",
         "1:4: manifest needs motive_basis and comotive_basis sections"),
        ("q: 3\ndim: 1\nphi_t:\nrow: theta + tau\nmotive_basis:\n"
         "comotive_basis:\ncol: 1\n",
         "5:15: manifest needs motive_basis and comotive_basis sections"),
        ("q: 3\ndim: 1\nphi_t:\nrow: theta + tau\nmotive_basis:\n"
         "row: 1\ncomotive_basis:\n",
         "7:17: manifest needs motive_basis and comotive_basis sections"),
    ])
    def test_missing_sections_are_located(self, text, message):
        assert parse_error(text) == "error[parse] " + message

    def test_ext_degree_must_match_ext_modulus(self):
        text = "q: 2\nbase: perf-rational\n" + CARLITZ_BODY \
            + "ext_degree: {}\next_modulus: w^2 + w + 1\n"
        assert parse_error(text.format(3)) == \
            "error[parse] 10:13: ext degree 3 but ext_modulus has degree 2"
        assert manifest_ext_field(parse_manifest(text.format(2))).n == 2

    @pytest.mark.parametrize("field,text", [
        ("q: 3", "2"), ("q: 3", "sigma * 2 * tau"),
        ("q: 3", "tau^2 * sigma^2 + 1"), ("q: 4\nmodulus: z^2 + z + 1", "z"),
        ("q: 4\nmodulus: z^2 + z + 1", "1 / (z + 1)"),
        ("q: 4\nmodulus: z^2 + z + 1", "sigma * z * tau")])
    def test_finite_theta_is_an_fq_constant(self, field, text):
        # 'theta' is no atom on a finite base, so every scalar the grammar
        # can build there is an F_q constant
        man = parse_manifest("{}\nbase: finite-field\ntheta: {}\n"
                             .format(field, text) + CARLITZ_BODY)
        assert man.module.theta.is_constant()

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


def test_tokenize_matches_the_reference_scanner(pf4):
    """On ASCII text ``tokenize`` gives the reference scanner's tokens or
    its error at the same line:col; on any text every entry point raises
    only SkewParseError (searched by hypothesis, skipped without it)."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    settings = hypothesis.settings(max_examples=500, deadline=None,
                                   database=None, derandomize=True)

    def outcome(scan, text, line, col):
        try:
            return scan(text, line, col)
        except SkewParseError as err:
            return str(err)

    @settings
    @hypothesis.given(text=st.text(string.printable), line=st.integers(1, 9),
                      col=st.integers(1, 9))
    @hypothesis.example(text="tau^2 |\n\t(z_1 $ 2)", line=1, col=1)
    def check_ascii(text, line, col):
        assert outcome(tokenize, text, line, col) == \
            outcome(tokenize_reference, text, line, col)

    fq = pf4.fq
    ext = ext_field_of_degree(fq, 2)
    entry_points = [
        lambda text: parse_skew_expr(text, pf4),
        lambda text: parse_skew_row(text, pf4),
        lambda text: parse_tpoly_row(text, ext),
        lambda text: _parse_modulus(text, fq, "x", 1, 1)]
    # pieces of the grammar among arbitrary characters; in 8 pieces the
    # exponent of a sum has at most 2 digits, so every value stays small
    pieces = st.one_of(
        st.sampled_from(["tau", "sigma", "theta", "t", "x", "z", "w", "1",
                         "2", "+", "-", "*", "/", "^", "(", ")", "|", " ",
                         "\n", "²", "٣", "\u00a0"]),
        st.characters())

    @settings
    @hypothesis.given(text=st.lists(pieces, max_size=8).map("".join))
    @hypothesis.example(text="tau^²")
    @hypothesis.example(text="theta + tau^²")
    @hypothesis.example(text="٣ +\u00a0tau")
    def check_unicode(text):
        for parse in entry_points:
            try:
                parse(text)
            except SkewParseError:
                pass

    check_ascii()
    check_unicode()


# entries of tau_matrix rows over k[t]; w generates k over F_q
TPOLY_TEXTS = ["0", "1", "t", "t^2 + 1", "w*t + w^2", "(w + 1)*t"]


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
dim: 1
rank: 2
phi_t:
row: theta + tau + tau^2
motive_basis:
row: 1
row: tau
comotive_basis:
col: 1
col: tau
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
            assert manifest_tau_matrix(again, side, ext) == \
                manifest_tau_matrix(first, side, ext)

    def test_every_format_key_round_trips(self):
        """render(parse(render(m))) == render(m) for an example manifest m
        with any subset of the optional keys; the same text with extra
        spaces, comments and its blocks reordered parses to it too."""
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @st.composite
        def manifests(draw):
            name = draw(st.sampled_from(sorted(cli.EXAMPLES)))
            man = cli.EXAMPLES[name](SimpleNamespace(
                q=draw(st.sampled_from([2, 3, 4, 5, 8, 9])),
                d=draw(st.integers(1, 3)), r=draw(st.integers(1, 3)),
                seed=draw(st.integers(0, 3)), g=None))
            if not draw(st.booleans()):  # shrinks to fewer keys
                man.rank = None
            if draw(st.booleans()):
                man.base = "finite-field"
                man.theta_text = draw(st.sampled_from(["0", "1", "2"]))
            n = draw(st.integers(1, 3))
            if draw(st.booleans()):
                man.ext_degree = n
            if draw(st.booleans()):
                fq = parse_manifest(render_manifest(man)).field
                man.ext_modulus_text = find_irreducible(fq, n).render(
                    ExtField.gen_name)
            for attr in ("tau_motive_rows", "tau_comotive_rows"):
                # a block is absent or has a row per basis element
                size = draw(st.sampled_from([0, len(man.motive_rows)]))
                entries = st.lists(st.sampled_from(TPOLY_TEXTS),
                                   min_size=size, max_size=size)
                setattr(man, attr, [" | ".join(draw(entries))
                                    for _ in range(size)])
            return render_manifest(man)

        keys = [key for key, _, _ in FORMAT]
        # one style per key, drawn apart from the manifest so that a
        # shrinking manifest keeps its noise: the line above the key, its
        # indent, space before ':', each space doubled or not, the line
        # end, and the key's place in the reordered text
        style = st.tuples(
            st.sampled_from(["", "\n", "   \n", "# note\n", "  # a: b\n"]),
            st.sampled_from(["", "  "]), st.sampled_from(["", " "]),
            st.sampled_from([" ", "  "]),
            st.sampled_from(["", " ", "  # c"]),
            st.integers(0, len(keys)))

        def loosen(text, styles):
            blocks = []  # (key, [its line and the row/col lines under it])
            for line in text.splitlines():
                if line.startswith(("row:", "col:")):
                    blocks[-1][1].append(line)
                else:
                    blocks.append((line.partition(":")[0], [line]))
            blocks.sort(key=lambda block: styles[block[0]][-1])
            out = ""
            for key, lines in blocks:
                above, indent, before, space, end, _ = styles[key]
                out += above
                for line in lines:
                    name, _, payload = line.partition(":")
                    out += indent + name + before + ":" \
                        + payload.replace(" ", space) + end + "\n"
            return out

        seen = set()

        @hypothesis.settings(max_examples=150, deadline=None,
                             database=None, derandomize=True)
        @hypothesis.given(styles=st.fixed_dictionaries(
            {key: style for key in keys}), text=manifests())
        def check(styles, text):
            assert render_manifest(parse_manifest(text)) == text
            loose = loosen(text, styles)
            assert render_manifest(parse_manifest(loose)) == text
            seen.update(line.partition(":")[0] for line in text.splitlines())

        check()
        assert seen >= {key for key, _, _ in FORMAT}


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
