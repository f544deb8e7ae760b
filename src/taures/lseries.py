"""T-deformation Fitting ideals over finite base fields.

For a module over the degenerate finite base F_q, extended to a finite
field k of degree d_k, the generator of the Fitting ideal of the
T-deformation is det(T - tau) on the motive (or comotive) after
restricting scalars from k[t] to F_q[t].  tau is q-semilinear on the
motive and q^(-1)-semilinear on the comotive; restriction of scalars
turns either into an honest F_q[t]-linear operator on a module of rank
r * d_k whose characteristic polynomial in T is the generator.

Two independent oracles guard the computation: det(T^d - tau^d) over
k[t] (tau^d is k[t]-linear), and the characteristic polynomial of the
t-action on E(k) = k^dim as an F_q-space, which the T = 1 specialization
must reproduce up to a unit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionError, FieldError
from .anderson import AndersonModule, twist
from .fields import ExtElement, ExtField, Fq, SPoly, needs_parens
from .linalg import charpoly, dot, inverse, mat_mul

DESK_BOUND = 16  # max dim * [k:F_q] for the brute-force oracle


@dataclass
class TauMatrix:
    """Matrix of the tau-action on a declared basis, entries in k[t]."""

    side: str  # "motive" | "comotive"
    entries: list  # r x r nested list of SPoly over ExtField

    @property
    def rank(self):
        return len(self.entries)


class BivariatePoly:
    """An element of F_q[t][T], normalized monic in T when possible."""

    __slots__ = ("fq", "coeffs")

    def __init__(self, fq: Fq, coeffs):
        """coeffs: list of SPoly over fq, index = T-exponent."""
        self.fq = fq
        coeffs = list(coeffs)
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        lead = coeffs[-1] if coeffs else None
        if lead is not None and lead.degree() == 0 \
                and not lead.leading().is_one():
            inv = lead.leading().inverse()
            coeffs = [c.scale(inv) for c in coeffs]
        self.coeffs = coeffs

    def __eq__(self, other):
        return (isinstance(other, BivariatePoly)
                and self.coeffs == other.coeffs)

    @property
    def terms(self):
        """{(T-exponent, t-exponent): nonzero F_q coefficient}."""
        return {(te, e): c for te, poly in enumerate(self.coeffs)
                for e, c in poly.terms.items()}

    def unit_equiv(self, other) -> bool:
        """Equality up to a scalar of F_q^x."""
        return poly_unit_equiv(self, other)

    def at_T_one(self) -> SPoly:
        acc = SPoly(self.fq, {})
        for c in self.coeffs:
            acc = acc + c
        return acc

    def render(self):
        if not self.coeffs:
            return "0"
        parts = []
        for te in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[te]
            if not c:
                continue
            cs = str(c)
            if te == 0:
                parts.append(cs)
                continue
            v = "T" if te == 1 else "T^{}".format(te)
            if c.degree() == 0 and c.leading().is_one():
                parts.append(v)
            else:
                if needs_parens(cs) or "*" in cs:
                    cs = "({})".format(cs)
                parts.append("{}*{}".format(cs, v))
        return " + ".join(parts)

    def __str__(self):
        return self.render()

    def __repr__(self):
        return "BivariatePoly({})".format(self)


def _extract_drinfeld_g(module: AndersonModule):
    """Left coefficients (g_1..g_r) of a 1x1 phi(t), as F_q constants."""
    if module.dim != 1:
        raise FieldError("tau-matrix auto-derivation needs a Drinfeld "
                         "module; declare tau_matrix blocks instead")
    entry = module.phi_t[0, 0]
    r = entry.deg_tau()
    if r < 1:
        raise FieldError("phi(t) must have a nonzero leading tau term")
    # g_i, the left coefficient of tau^i, is the stored one twisted by q^i
    return [entry.coeff(i).q_power_iter(i) for i in range(1, r + 1)]


def _require_finite(module: AndersonModule):
    if not module.theta.is_constant():
        raise FieldError("L-series need a finite base: theta must be an "
                         "F_q constant")
    for row in module.phi_t.entries:
        for e in row:
            for c in e.coeffs.values():
                if not c.is_constant():
                    raise FieldError("L-series need a finite base: phi(t) "
                                     "coefficients must be F_q constants")


def drinfeld_tau_matrices(module: AndersonModule, ext: ExtField):
    """The companion-shape matrix of tau on the standard bases
    (1, tau, .., tau^(r-1)) of a Drinfeld module, over k[t], from
    tau * tau^(r-1) = g_r^-1 ((t - theta) - g_1 tau - ..).

    One matrix serves both sides.  On the comotive, resolving each left
    coefficient g_i through the scalar action twists it by q^(-i); but a
    finite base keeps every g_i in F_q, which Frobenius fixes, so the
    twists are the identity.  The side markers still tell
    ``restrict_tau`` and the power oracle which way scalars twist.
    """
    _require_finite(module)
    g = [ext.embed(c.as_fq()) for c in _extract_drinfeld_g(module)]
    r = len(g)
    g_r_inv = g[-1].inverse()
    t_minus_theta = SPoly(ext, {1: ext.one(),
                                0: -ext.embed(module.theta.as_fq())})
    last = [t_minus_theta.scale(g_r_inv)] + [
        SPoly.const(ext, -(g_r_inv * gs)) for gs in g[:-1]]
    zero, one = SPoly(ext, {}), SPoly.const(ext, ext.one())
    # column j < r - 1 is the unit vector e_(j+1), the last one is tau^r
    entries = [[last[i] if j == r - 1 else one if i == j + 1 else zero
                for j in range(r)] for i in range(r)]
    return (TauMatrix(side="motive", entries=entries),
            TauMatrix(side="comotive", entries=entries))


def _powers(x: ExtElement, n):
    """[1, x, .., x^(n-1)]."""
    out = [x.field.one()]
    for _ in range(n - 1):
        out.append(out[-1] * x)
    return out


def restrict_tau(tau_matrix: TauMatrix, ext: ExtField, basis=None):
    """The F_q[t]-matrix of the semilinear tau on basis (e_i b_a).

    Motive side twists scalars by q, comotive by q^(-1); either way
    tau(b_a e_i) = twist(b_a) * sum_l M[l][i] e_l, decomposed over F_q.
    The default basis is the power basis, whose coordinates are just the
    coefficient tuple.  F_q is Frobenius-fixed, so twist(sum_i c_i w^i) =
    sum_i c_i twist(w)^i: the twisted power basis is the powers of one
    Frobenius power of w, and they twist every other basis too.
    """
    r = tau_matrix.rank
    n = ext.n
    fq = ext.base
    zero = fq.zero()
    w = ext.gen()
    twisted = _powers(w.q_power_iter(1 if tau_matrix.side == "motive"
                                     else -1), n)
    basis_inv = None
    if basis is not None:
        if len(basis) != n:
            raise DimensionError("basis of k needs {} elements".format(n))
        rows = [b.coeffs for b in basis]
        basis_inv = inverse([list(col) for col in zip(*rows)], fq.one())
        twisted = [ext.element(row) for row in
                   mat_mul(rows, [p.coeffs for p in twisted], zero)]
    size = r * n
    # terms[row][col]: the t-exponent -> F_q coefficient dict of one entry
    terms = [[{} for _ in range(size)] for _ in range(size)]
    for i in range(r):
        for a in range(n):
            for l in range(r):
                for te, c in tau_matrix.entries[l][i].terms.items():
                    coords = (twisted[a] * c).coeffs
                    if basis_inv is not None:
                        coords = [dot(list(zip(row, coords)), zero)
                                  for row in basis_inv]
                    for ap, comp in enumerate(coords):
                        if comp:
                            terms[l * n + ap][i * n + a][te] = comp
    return [[SPoly(fq, entry) for entry in row] for row in terms]


def fitting_ideal(module: AndersonModule, ext: ExtField, side="motive",
                  tau_matrix: TauMatrix = None, basis=None) -> BivariatePoly:
    """det(T - tau) on the chosen side after restriction of scalars:
    the monic-in-T generator of the T-deformation Fitting ideal."""
    if side not in ("motive", "comotive"):
        raise FieldError("side must be motive or comotive")
    if tau_matrix is None:
        tau_matrix = drinfeld_tau_matrices(module, ext)[side != "motive"]
    elif tau_matrix.side != side:
        raise FieldError("tau_matrix side marker is {}".format(
            tau_matrix.side))
    big = restrict_tau(tau_matrix, ext, basis=basis)
    fq = ext.base
    coeffs_lead_first = charpoly(big, SPoly.const(fq, fq.one()))
    coeffs = list(reversed(coeffs_lead_first))
    return BivariatePoly(fq, coeffs)


def fitting_ideal_power_oracle(module: AndersonModule, ext: ExtField,
                               side="motive",
                               tau_matrix: TauMatrix = None) -> BivariatePoly:
    """Independent route: det over k[t] of (T^d - tau^d), where d = [k:F_q]
    makes tau^d k[t]-linear; the result must have F_q coefficients."""
    if tau_matrix is None:
        tau_matrix = drinfeld_tau_matrices(module, ext)[side != "motive"]
    r = tau_matrix.rank
    n = ext.n
    # matrix of tau^n: M * M^(tw) * .. * M^(tw^(n-1)), tw = coefficient
    # Frobenius (inverse Frobenius on the comotive side); M^(tw^s) is one
    # more twist of M^(tw^(s-1))
    j = 1 if tau_matrix.side == "motive" else -1
    zero = SPoly(ext, {})
    acc = twisted = tau_matrix.entries
    for _ in range(1, n):
        twisted = [[twist(e, j) for e in row] for row in twisted]
        acc = mat_mul(acc, twisted, zero)
    coeffs_lead_first = charpoly(acc, SPoly.const(ext, ext.one()))
    # polynomial in U = T^n with k[t] coefficients; must descend to F_q
    fq = ext.base
    out = [SPoly(fq, {}) for _ in range(n * r + 1)]
    for u_exp, c in enumerate(reversed(coeffs_lead_first)):
        terms = {}
        for te, ec in c.terms.items():
            if not ec.in_base():
                raise FieldError(
                    "power-oracle determinant has a coefficient outside "
                    "F_q: {}".format(ec))
            terms[te] = ec.coeffs[0]
        out[u_exp * n] = SPoly(fq, terms)
    return BivariatePoly(fq, out)


def brute_force_fitting(module: AndersonModule, ext: ExtField) -> SPoly:
    """Characteristic polynomial of the t-action on E(k) = k^dim as an
    F_q-space: the 0th Fitting ideal generator of E(k) as an A-module."""
    _require_finite(module)
    d = module.dim
    n = ext.n
    if d * n > DESK_BOUND:
        raise DimensionError(
            "E(k) dimension {} exceeds the desk bound {}".format(
                d * n, DESK_BOUND))
    fq = ext.base
    size = d * n
    twists = {}  # i -> [(w^a)^(q^i) for a < n], as (w^(q^i))^a
    cols = []
    for c in range(d):
        for a in range(n):
            col = [fq.zero()] * size
            for l in range(d):
                entry = module.phi_t[l, c]
                val = ext.zero()
                for i, coeff in sorted(entry.coeffs.items()):
                    if i not in twists:
                        twists[i] = _powers(ext.gen().q_power_iter(i), n)
                    val = val + ext.embed(coeff.as_fq()) * twists[i][a]
                for ap in range(n):
                    col[l * n + ap] = col[l * n + ap] + val.coeffs[ap]
            cols.append(col)
    mat = [[cols[j][i] for j in range(size)] for i in range(size)]
    coeffs_lead_first = charpoly(mat, fq.one())
    return SPoly(fq, {size - i: c for i, c in enumerate(coeffs_lead_first)
                      if c})


def poly_unit_equiv(a, b) -> bool:
    """Equality of F_q[t] (or F_q[t][T]) elements up to F_q^x: the same
    support, and one ratio between the coefficients."""
    a_terms, b_terms = a.terms, b.terms
    if a_terms.keys() != b_terms.keys():
        return False
    ratio = None
    for e, c in a_terms.items():
        r = c / b_terms[e]
        if ratio is None:
            ratio = r
        elif r != ratio:
            return False
    return True
