"""Expression and manifest parsing with located diagnostics.

Tokens, matched by one pattern: integers (decimal digits, exactly those
int() reads), names (word characters, not starting with a decimal
digit), the symbols + - * / ^ ( ) |, and blank space (str.isspace),
which only separates them; any other character is an "unexpected
character" error at its line:col.  One ``_Parser`` pass reads each
expression straight into its value.  Grammar (precedence ^ > * > +,-;
'*' is noncommutative, left to right):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := atom ('^' nonneg-integer)?
    atom   := 'tau' | 'sigma' | 'theta' | 'z' | integer | '(' expr ')'
    row    := expr ('|' expr)*

Division is legal only between tau/sigma-free subexpressions.  The same
grammar parses k[t]-polynomial blocks with atoms t, z, w.

Manifests are line oriented, with the keys of FORMAT: "key: value" lines
plus sections (phi_t, motive_basis, comotive_basis, tau_matrix_*) whose
"row:"/"col:" payloads split into entries on '|'.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dc_field
from typing import Optional

from .errors import FieldError, SkewParseError
from .anderson import AndersonModule
from .fields import (ExtField, Fq, PerfField, SPoly, _factor_prime_power,
                     find_irreducible)
from .skew import SkewLaurent
from .skewmat import SkewMatrix


# --- tokenizer and recursive-descent evaluation ---

# newline; other blank space (str.isspace); an integer, exactly the
# decimal digits int() reads; a name; a symbol; any other character
_TOKEN = re.compile(r"(?P<newline>\n)|(?P<blank>[^\S\n]+)|(?P<int>\d+)"
                    r"|(?P<name>[^\W\d]\w*)|(?P<sym>[-+*/^()|])|(?P<bad>.)")


def tokenize(text, line=1, col=1):
    """The (kind, value, line, col) of each int, name and sym token of
    ``text``, then ("end", "", line, col) at the end of input."""
    tokens = []
    for match in _TOKEN.finditer(text):
        kind, value = match.lastgroup, match.group()
        if kind == "newline":
            line, col = line + 1, 1
            continue
        if kind == "bad":
            raise SkewParseError("unexpected character {!r}".format(value),
                                 line, col)
        if kind != "blank":
            tokens.append((kind, value, line, col))
        col += len(value)
    tokens.append(("end", "", line, col))
    return tokens


class _Parser:
    """Evaluates the expression grammar of ``text`` directly into the atom
    domain of ``env`` = (atoms, from_int, divide).

    ``atoms`` maps names to values; ``from_int`` embeds integer literals
    (reduced mod p).  The value type must support +, -, * and ** with a
    nonnegative integer; division goes through ``divide(a, b, where)``,
    which enforces the tau/sigma-free restriction where applicable and
    locates its errors at ``where`` = (line, col) of the '/'.  In a
    ``row``, a '|' ends an entry just as the end of input does.
    """

    def __init__(self, text, line, col, env, row=False):
        self.tokens = [("end", "") + tok[2:] if row and tok[1] == "|"
                       else tok for tok in tokenize(text, line, col)]
        self.pos = 0
        self.atoms, self.from_int, self.divide = env

    def peek(self):
        return self.tokens[self.pos][:2]

    def next(self):
        self.pos += 1
        return self.tokens[self.pos - 1]

    def whole(self):
        """One expression, up to the end of input (or of its entry)."""
        val = self.expr()
        kind, value, line, col = self.next()
        if kind != "end":
            raise SkewParseError("unexpected trailing {!r}".format(value),
                                 line, col)
        return val

    def row(self):
        """The values of the '|'-separated entries."""
        vals = [self.whole()]
        while self.pos < len(self.tokens):
            vals.append(self.whole())
        return vals

    def expr(self):
        val = self.term()
        while self.peek() in (("sym", "+"), ("sym", "-")):
            op = self.next()[1]
            rhs = self.term()
            val = val + rhs if op == "+" else val - rhs
        return val

    def term(self):
        val = self.factor()
        while self.peek() in (("sym", "*"), ("sym", "/")):
            _, op, line, col = self.next()
            rhs = self.factor()
            val = val * rhs if op == "*" else self.divide(val, rhs,
                                                          (line, col))
        return val

    def factor(self):
        val = self.atom()
        if self.peek() == ("sym", "^"):
            self.next()
            kind, value, line, col = self.next()
            if kind != "int":
                raise SkewParseError(
                    "exponent must be a nonnegative integer", line, col)
            val = val ** int(value)
        return val

    def atom(self):
        kind, value, line, col = self.next()
        if kind == "int":
            return self.from_int(int(value))
        if kind == "name":
            if value not in self.atoms:
                raise SkewParseError("unknown name {!r}".format(value),
                                     line, col)
            if self.atoms[value] is None:
                raise SkewParseError("{!r} is not legal here".format(value),
                                     line, col)
            return self.atoms[value]
        if (kind, value) == ("sym", "("):
            val = self.expr()
            kind, value, line, col = self.next()
            if (kind, value) != ("sym", ")"):
                raise SkewParseError("expected ')'", line, col)
            return val
        raise SkewParseError("expected a value, got {!r}".format(
            value or "end of input"), line, col)


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


def _skew_divide(a: SkewLaurent, b: SkewLaurent, where):
    for v in (a, b):
        if not v.sigma_free() or v.deg_tau() > 0 or not v.is_exact():
            raise SkewParseError(
                "'/' is only legal between tau/sigma-free expressions",
                *where)
    num = a.coeffs.get(0)
    den = b.coeffs.get(0)
    if den is None:
        raise SkewParseError("division by zero", *where)
    pf = a.pf
    if num is None:
        return SkewLaurent.zero(pf)
    return SkewLaurent.scalar(pf, num / den)


def parse_skew_expr(text, pf: PerfField, line=1, col=1,
                    allow_theta=True) -> SkewLaurent:
    """Parse one skew expression into normal form."""
    return _Parser(text, line, col,
                   _skew_env(pf, allow_theta=allow_theta)).whole()


def parse_skew_row(text, pf, theta=None):
    """Parse a '|'-separated list of skew expressions."""
    return _Parser(text, 1, 1, _skew_env(pf, theta), row=True).row()


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

    def divide(a, b, where):
        if b.degree() > 0 or a.degree() > 0:
            raise SkewParseError("'/' needs constant operands here", *where)
        if not b:
            raise SkewParseError("division by zero", *where)
        if not a:
            return SPoly(ext, {})
        return SPoly.const(ext, a.coeff(0) / b.coeff(0))

    return _Parser(text, line, col, (atoms, from_int, divide),
                   row=True).row()


def _no_divide(a, b, where):
    raise SkewParseError("'/' is not legal in a modulus", *where)


def _parse_modulus(text, fq: Fq, var, line, col) -> SPoly:
    """A polynomial in ``var`` over ``fq``, whose generator is an atom
    too when it is not a prime field; '/' is rejected."""
    atoms = {var: SPoly.gen(fq)}
    if fq.m > 1:
        atoms[fq.gen_name] = SPoly.const(fq, fq.gen())
    return _Parser(text, line, col, (
        atoms, lambda n: SPoly.const(fq, fq.from_int(n)), _no_divide)).whole()


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
            row = _Parser(text, line, col, row_env, row=True).row()
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
    for key in ("tau_matrix_motive", "tau_matrix_comotive"):
        rows = getattr(man, _FORMAT_OF[key][0])
        if rows and len(rows) != len(motive):
            raise SkewParseError(
                "{} has {} rows but the bases have {} elements".format(
                    key, len(rows), len(motive)), *locations[key])
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
