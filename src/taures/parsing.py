"""Expression and manifest parsing with located diagnostics.

Grammar (precedence ^ > * > +,-; '*' is noncommutative, left to right):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := atom ('^' nonneg-integer)?
    atom   := 'tau' | 'sigma' | 'theta' | 'z' | integer | '(' expr ')'

Division is legal only between tau/sigma-free subexpressions.  The same
grammar parses k[t]-polynomial blocks with atoms t, z, w.

Manifests are line oriented, with the keys of FORMAT: "key: value" lines
plus sections (phi_t, motive_basis, comotive_basis, tau_matrix_*) whose
"row:"/"col:" payloads split into entries on '|'.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional

from .errors import FieldError, SkewParseError
from .anderson import AndersonModule
from .fields import (ExtField, Fq, PerfField, SPoly, _factor_prime_power,
                     find_irreducible)
from .skew import SkewLaurent
from .skewmat import SkewMatrix


# --- tokenizer ---

SYMBOLS = "+-*/^()|"


@dataclass
class Token:
    kind: str  # name | int | sym | end
    value: str
    line: int
    col: int


def tokenize(text, line=1, col=1):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch in SYMBOLS:
            tokens.append(Token("sym", ch, line, col))
            col += 1
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise SkewParseError("unexpected character {!r}".format(ch),
                             line, col)
    tokens.append(Token("end", "", line, col))
    return tokens


# --- recursive-descent evaluation ---

class _Parser:
    """Evaluates the expression grammar directly into the atom domain.

    ``atoms`` maps names to values; ``from_int`` embeds integer literals
    (reduced mod p).  The value type must support +, -, * and ** with a
    nonnegative integer; division goes through ``divide`` which enforces
    the tau/sigma-free restriction where applicable.
    """

    def __init__(self, tokens, atoms, from_int, divide):
        self.tokens = tokens
        self.pos = 0
        self.atoms = atoms
        self.from_int = from_int
        self.divide = divide

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_end(self):
        tok = self.peek()
        if tok.kind != "end":
            raise SkewParseError("unexpected trailing {!r}".format(tok.value),
                                 tok.line, tok.col)

    def expr(self):
        val = self.term()
        while self.peek().kind == "sym" and self.peek().value in "+-":
            op = self.next()
            rhs = self.term()
            val = val + rhs if op.value == "+" else val - rhs
        return val

    def term(self):
        val = self.factor()
        while self.peek().kind == "sym" and self.peek().value in "*/":
            op = self.next()
            rhs = self.factor()
            if op.value == "*":
                val = val * rhs
            else:
                val = self.divide(val, rhs, op)
        return val

    def factor(self):
        val = self.atom()
        if self.peek().kind == "sym" and self.peek().value == "^":
            self.next()
            tok = self.next()
            if tok.kind != "int":
                raise SkewParseError(
                    "exponent must be a nonnegative integer", tok.line,
                    tok.col)
            val = val ** int(tok.value)
        return val

    def atom(self):
        tok = self.next()
        if tok.kind == "int":
            return self.from_int(int(tok.value))
        if tok.kind == "name":
            if tok.value not in self.atoms:
                raise SkewParseError("unknown name {!r}".format(tok.value),
                                     tok.line, tok.col)
            val = self.atoms[tok.value]
            if val is None:
                raise SkewParseError(
                    "{!r} is not legal here".format(tok.value),
                    tok.line, tok.col)
            return val
        if tok.kind == "sym" and tok.value == "(":
            val = self.expr()
            closing = self.next()
            if not (closing.kind == "sym" and closing.value == ")"):
                raise SkewParseError("expected ')'", closing.line,
                                     closing.col)
            return val
        raise SkewParseError("expected a value, got {!r}".format(
            tok.value or "end of input"), tok.line, tok.col)


def _evaluate(tokens, atoms, from_int, divide):
    """Value of one whole expression: trailing tokens are an error."""
    parser = _Parser(tokens, atoms, from_int, divide)
    val = parser.expr()
    parser.expect_end()
    return val


def _evaluate_row(text, line, col, *env):
    """Values of the '|'-separated expressions in ``text``."""
    groups = [[]]
    for tok in tokenize(text, line, col):
        if tok.kind == "sym" and tok.value == "|":
            groups[-1].append(Token("end", "", tok.line, tok.col))
            groups.append([])
        else:
            groups[-1].append(tok)
    return [_evaluate(g, *env) for g in groups]


def _skew_env(pf: PerfField, theta=None, allow_theta=True):
    """(atoms, from_int, divide) of the skew expression grammar."""
    atoms = {
        "tau": SkewLaurent.tau(pf),
        "sigma": SkewLaurent.sigma(pf),
        "theta": SkewLaurent.scalar(
            pf, theta if theta is not None else pf.theta())
        if allow_theta else None,
    }
    if pf.fq.m > 1:
        atoms[pf.fq.gen_name] = SkewLaurent.scalar(
            pf, pf.from_fq(pf.fq.gen()))
    return (atoms, lambda n: SkewLaurent.scalar(pf, pf.from_int(n)),
            _skew_divide)


def _skew_divide(a: SkewLaurent, b: SkewLaurent, op: Token):
    for v in (a, b):
        if not v.sigma_free() or v.deg_tau() > 0 or not v.is_exact():
            raise SkewParseError(
                "'/' is only legal between tau/sigma-free expressions",
                op.line, op.col)
    num = a.coeffs.get(0)
    den = b.coeffs.get(0)
    if den is None:
        raise SkewParseError("division by zero", op.line, op.col)
    pf = a.pf
    if num is None:
        return SkewLaurent.zero(pf)
    return SkewLaurent.scalar(pf, num / den)


def parse_skew_expr(text, pf: PerfField, line=1, col=1,
                    allow_theta=True) -> SkewLaurent:
    """Parse one skew expression into normal form."""
    return _evaluate(tokenize(text, line, col),
                     *_skew_env(pf, allow_theta=allow_theta))


def parse_skew_row(text, pf, theta=None):
    """Parse a '|'-separated list of skew expressions."""
    return _evaluate_row(text, 1, 1, *_skew_env(pf, theta))


def parse_tpoly_row(text, ext: ExtField, line=1, col=1):
    """Parse a '|'-separated list of k[t] polynomials (atoms t, z, w)."""
    one = ext.one()
    atoms = {"t": SPoly(ext, {1: one})}
    if ext.base.m > 1:
        atoms[ext.base.gen_name] = SPoly.const(
            ext, ext.embed(ext.base.gen()))
    if ext.n > 1:
        atoms[ext.gen_name] = SPoly.const(ext, ext.gen())

    def from_int(n):
        c = ext.embed(ext.base.from_int(n))
        return SPoly.const(ext, c)

    def divide(a, b, op):
        if b.degree() > 0 or a.degree() > 0:
            raise SkewParseError("'/' needs constant operands here",
                                 op.line, op.col)
        if not b:
            raise SkewParseError("division by zero", op.line, op.col)
        if not a:
            return SPoly(ext, {})
        return SPoly.const(ext, a.coeff(0) / b.coeff(0))

    return _evaluate_row(text, line, col, atoms, from_int, divide)


def _no_divide(a, b, op):
    raise SkewParseError("'/' is not legal in a modulus", op.line, op.col)


def _parse_modulus(text, fq: Fq, var, line, col) -> SPoly:
    """A polynomial in ``var`` over ``fq``, whose generator is an atom
    too when it is not a prime field; '/' is rejected."""
    atoms = {var: SPoly.gen(fq)}
    if fq.m > 1:
        atoms[fq.gen_name] = SPoly.const(fq, fq.gen())
    return _evaluate(tokenize(text, line, col), atoms,
                     lambda n: SPoly.const(fq, fq.from_int(n)),
                     _no_divide)


# --- manifest ---

# (key, Manifest attribute, kind) in canonical order.  A section's kind
# is the key of its lines; a scalar is an "int", a "base" name, or "text"
# kept with its line:col for later parsing.
FORMAT = (
    ("q", "q", "int"),
    ("modulus", "modulus", "text"),
    ("base", "base", "base"),
    ("theta", "theta_text", "text"),
    ("dim", "dim", "int"),
    ("rank", "rank", "int"),
    ("phi_t", "phi_rows", "row"),
    ("motive_basis", "motive_rows", "row"),
    ("comotive_basis", "comotive_cols", "col"),
    ("ext_degree", "ext_degree", "int"),
    ("ext_modulus", "ext_modulus_text", "text"),
    ("tau_matrix_motive", "tau_motive_rows", "row"),
    ("tau_matrix_comotive", "tau_comotive_rows", "row"),
)
_FORMAT_OF = {key: (attr, kind) for key, attr, kind in FORMAT}
_LINE_KEYS = ("row", "col")


@dataclass
class Manifest:
    q: int = 0
    modulus: Optional[list] = None
    base: str = "perf-rational"
    theta_text: Optional[str] = None
    dim: int = 0
    rank: Optional[int] = None
    phi_rows: list = dc_field(default_factory=list)
    motive_rows: list = dc_field(default_factory=list)
    comotive_cols: list = dc_field(default_factory=list)
    ext_degree: Optional[int] = None
    ext_modulus_text: Optional[str] = None
    tau_motive_rows: list = dc_field(default_factory=list)
    tau_comotive_rows: list = dc_field(default_factory=list)

    # filled by build()
    field: Optional[Fq] = None
    pf: Optional[PerfField] = None
    module: Optional[AndersonModule] = None


def parse_manifest(text) -> Manifest:
    """Parse and semantically check a manifest; errors carry line:col."""
    man = Manifest()
    section = None  # (key, attribute, line key) of the open section
    locations = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        indent = len(line) - len(line.lstrip())
        if ":" not in stripped:
            raise SkewParseError("expected 'key: value'", lineno,
                                 indent + 1)
        key, _, payload = stripped.partition(":")
        key = key.strip()
        payload = payload.strip()
        col = indent + len(key) + 3
        if key in _LINE_KEYS:
            if section is None:
                raise SkewParseError(
                    "'{}:' outside of a section".format(key), lineno,
                    indent + 1)
            name, attr, expected = section
            if key != expected:
                raise SkewParseError(
                    "section {} takes '{}:' lines".format(name, expected),
                    lineno, indent + 1)
            getattr(man, attr).append((payload, lineno, col))
            continue
        section = None
        if key not in _FORMAT_OF:
            raise SkewParseError("unknown key {!r}".format(key), lineno,
                                 indent + 1)
        if key in locations:
            raise SkewParseError("duplicate key {!r}".format(key), lineno,
                                 indent + 1)
        locations[key] = (lineno, col)
        attr, kind = _FORMAT_OF[key]
        if kind in _LINE_KEYS:
            if payload:
                raise SkewParseError(
                    "section header takes no value", lineno, col)
            section = (key, attr, kind)
        elif kind == "int":
            try:
                setattr(man, attr, int(payload))
            except ValueError:
                raise SkewParseError("expected an integer, got {!r}".format(
                    payload), lineno, col) from None
        elif kind == "base":
            if payload not in ("perf-rational", "finite-field"):
                raise SkewParseError(
                    "base must be perf-rational or finite-field", lineno,
                    col)
            man.base = payload
        else:
            setattr(man, attr, (payload, lineno, col))
    _build(man, locations)
    return man


def render_manifest(man: Manifest) -> str:
    """Canonical manifest text, in FORMAT order; a scalar is written when
    set and a section when it has lines.  parse(render(parse(x))) ==
    parse(x)."""
    lines = []
    for key, attr, kind in FORMAT:
        value = getattr(man, attr)
        if kind in _LINE_KEYS:
            if value:
                lines.append(key + ":")
                lines += ["{}: {}".format(kind, _payload(v)) for v in value]
        elif value is not None:
            lines.append("{}: {}".format(key, _payload(value)))
    return "\n".join(lines) + "\n"


def _payload(entry):
    """A value's text, parsed (text, line, col) or given, spaces
    collapsed."""
    text = entry[0] if isinstance(entry, tuple) else entry
    return " ".join(str(text).split())


def _build(man: Manifest, locations):
    if man.q < 2:
        line, col = locations.get("q", (0, 0))
        raise SkewParseError("manifest needs q >= 2", line, col)
    try:
        p, _ = _factor_prime_power(man.q)
        modulus = None
        if man.modulus is not None:
            text, line, col = man.modulus
            poly = _parse_modulus(text, Fq(p), Fq.gen_name, line, col)
            modulus = [poly.coeff(e).coeffs[0]
                       for e in range(poly.degree() + 1)]
        fq = Fq(man.q, modulus)
    except FieldError as err:
        line, col = locations.get("modulus", locations.get("q", (0, 0)))
        raise SkewParseError(err.args[0], line, col) from None
    pf = PerfField(fq)
    man.field = fq
    man.pf = pf

    finite = man.base == "finite-field"
    if finite and man.theta_text is None:
        line, col = locations.get("base", (0, 0))
        raise SkewParseError(
            "finite-field base needs an explicit theta", line, col)
    theta = pf.theta()
    if man.theta_text is not None:
        text, line, col = man.theta_text
        val = parse_skew_expr(text, pf, line=line, col=col,
                              allow_theta=not finite)
        if not val.sigma_free() or val.deg_tau() > 0:
            raise SkewParseError("theta must be a scalar", line, col)
        theta = val.coeffs.get(0, pf.zero())
    row_env = _skew_env(pf, theta if finite else None)

    if man.dim < 1:
        line, col = locations.get("dim", (0, 0))
        raise SkewParseError("manifest needs dim >= 1", line, col)

    def parse_rows(rows, width_message, what):
        """Rows of dim R[tau] entries; ``width_message`` takes the count
        found and dim."""
        out = []
        for text, line, col in rows:
            row = _evaluate_row(text, line, col, *row_env)
            if len(row) != man.dim:
                raise SkewParseError(
                    width_message.format(len(row), man.dim), line, col)
            if not all(e.sigma_free() for e in row):
                raise SkewParseError(
                    "{} must lie in R[tau]".format(what), line, col)
            out.append(row)
        return out

    phi_entries = parse_rows(man.phi_rows,
                             "phi_t row has {} entries, need {}", "phi(t)")
    if len(phi_entries) != man.dim:
        line, col = ((man.phi_rows[-1][1], 1) if man.phi_rows
                     else locations.get("phi_t", locations["q"]))
        raise SkewParseError(
            "phi_t has {} rows, need {}".format(len(phi_entries), man.dim),
            line, col)
    motive = [SkewMatrix(pf, [row]) for row in parse_rows(
        man.motive_rows, "motive basis entry has {} components, need {}",
        "motive basis")]
    comotive = [SkewMatrix(pf, [[e] for e in col]) for col in parse_rows(
        man.comotive_cols, "comotive basis entry has {} components, need {}",
        "comotive basis")]
    if not motive or not comotive:
        raise SkewParseError(
            "manifest needs motive_basis and comotive_basis sections",
            *locations.get("motive_basis" if not motive else
                           "comotive_basis", locations["q"]))
    if len(motive) != len(comotive):
        _, line, col = (man.comotive_cols or man.motive_rows)[-1]
        raise SkewParseError(
            "motive basis has {} rows, comotive {} columns".format(
                len(motive), len(comotive)), line, 1)
    if man.rank is not None and man.rank != len(motive):
        raise SkewParseError("rank {} but the bases have {} elements".format(
            man.rank, len(motive)), *locations["rank"])
    if man.ext_degree is not None and man.ext_degree < 1:
        raise SkewParseError("ext degree must be >= 1",
                             *locations["ext_degree"])
    if man.ext_degree is not None and man.ext_modulus_text is not None:
        text, line, col = man.ext_modulus_text
        n = _parse_modulus(text, fq, ExtField.gen_name, line, col).degree()
        if n != man.ext_degree:
            raise SkewParseError(
                "ext degree {} but ext_modulus has degree {}".format(
                    man.ext_degree, n), *locations["ext_degree"])

    man.module = AndersonModule(
        pf=pf, theta=theta, dim=man.dim, phi_t=SkewMatrix(pf, phi_entries),
        motive_basis=motive, comotive_basis=comotive)


def manifest_ext_field(man: Manifest, degree=None) -> ExtField:
    """The L-series extension field k: of ``degree`` over F_q when given,
    else from ``ext_modulus:``, else of degree ``ext_degree:``, else F_q."""
    fq = man.field
    if degree is None and man.ext_modulus_text is not None:
        text, line, col = man.ext_modulus_text
        poly = _parse_modulus(text, fq, ExtField.gen_name, line, col)
        try:
            return ExtField(fq, poly)
        except FieldError as err:
            raise SkewParseError(err.args[0], line, col) from None
    return ext_field_of_degree(
        fq, (man.ext_degree or 1) if degree is None else degree)


def ext_field_of_degree(fq: Fq, degree) -> ExtField:
    if degree < 1:
        raise SkewParseError("ext degree must be >= 1", 0, 0)
    if degree == 1:
        return ExtField(fq, SPoly(fq, {1: fq.one()}))
    return ExtField(fq, find_irreducible(fq, degree), _irreducible=True)


def manifest_tau_matrix(man: Manifest, side: str, ext: ExtField):
    """The rows over k[t] of a declared tau_matrix block, if present."""
    rows = getattr(man, _FORMAT_OF["tau_matrix_" + side][0])
    if not rows:
        return None
    entries = []
    for text, line, col in rows:
        row = parse_tpoly_row(text, ext, line=line, col=col)
        entries.append(row)
    width = len(entries[0])
    if any(len(r) != width for r in entries) or len(entries) != width:
        _, line, col = rows[-1]
        raise SkewParseError("tau_matrix block must be square", line, 1)
    return entries
