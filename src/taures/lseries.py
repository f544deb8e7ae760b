"""T-deformation Fitting ideals over finite base fields.

For a module over the degenerate finite base F_q, extended to a finite
field k of degree d_k, the generator of the Fitting ideal of the
T-deformation is det(T - tau) on the motive (or comotive) after
restricting scalars from k[t] to F_q[t].  tau is q-semilinear on the
motive and q^(-1)-semilinear on the comotive; restriction of scalars
turns either into an honest F_q[t]-linear operator on a module of rank
r * d_k whose characteristic polynomial in T is the generator.  It is
restricted on a normal basis of k, where tau moves each basis element
to the next (or the previous) one, so an F_q coefficient gives one
nonzero entry per column and the Berkowitz products stay sparse.  A
generator is its list of F_q[t] coefficients by T-exponent, monic in T:
its last entry is 1.  A tau-matrix is its list of rows over k[t]; which
side it acts on, and so which way it twists scalars, is the ``side``
argument of each route.

Two independent oracles guard the computation: det(T^d - tau^d) over
k[t] (tau^d is k[t]-linear), and the characteristic polynomial of the
t-action on E(k) = k^dim as an F_q-space.  ``taures lseries`` is
consistent when the motive and comotive generators are equal, the
power oracle equals the motive one, and det(1 - tau), the sum of the
coefficients made monic, equals E(k)'s characteristic polynomial.  It
checks E(k)'s desk bound on dim * d_k before k is built.  Both oracles
stay on the power basis of k.
"""

from __future__ import annotations

from .errors import DimensionError, FieldError
from .anderson import AndersonModule, twist
from .fields import ExtField, SPoly, needs_parens, powers
from .linalg import charpoly, mat_mul

DESK_BOUND = 16  # max dim * [k:F_q] for the brute-force oracle


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


def drinfeld_tau_matrix(module: AndersonModule, ext: ExtField):
    """The companion-shape matrix of tau on the standard bases
    (1, tau, .., tau^(r-1)) of a Drinfeld module, over k[t], from
    tau * tau^(r-1) = g_r^-1 ((t - theta) - g_1 tau - ..).

    One matrix serves both sides.  On the comotive, resolving each left
    coefficient g_i through the scalar action twists it by q^(-i); but a
    finite base keeps every g_i in F_q, which Frobenius fixes, so the
    twists are the identity.  Which way scalars twist is the ``side``
    argument of ``restrict_tau`` and the power oracle.
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
    return [[last[i] if j == r - 1 else one if i == j + 1 else zero
             for j in range(r)] for i in range(r)]


def _side_twist(side):
    """The Frobenius exponent tau twists scalars by on ``side``: 1 on the
    motive, -1 on the comotive; any other side is refused."""
    if side not in ("motive", "comotive"):
        raise FieldError("side must be motive or comotive")
    return 1 if side == "motive" else -1


def restrict_tau(tau_matrix, ext: ExtField, side):
    """The F_q[t]-matrix of the semilinear tau, given by its rows
    ``tau_matrix`` over k[t], on the basis (e_i beta_a), beta_a =
    beta^(q^a) the normal basis of k (``ExtField.normal_basis``).

    Motive side twists scalars by q, comotive by q^(-1), so with j = 1 or
    -1, tau(beta_a e_i) = beta_(a+j) * sum_l M[l][i] e_l, indices mod n.
    An F_q coefficient c of M[l][i] just moves beta_(a+j): it is the one
    entry c in row l*n + a+j of column i*n + a.  Only a coefficient
    outside F_q needs the basis itself: c * beta_(a+j) is read off its
    normal coordinates.
    """
    n = ext.n
    j = _side_twist(side)
    size = len(tau_matrix) * n
    # terms[row][col]: the t-exponent -> F_q coefficient dict of one entry
    terms = [[{} for _ in range(size)] for _ in range(size)]
    for l, row in enumerate(tau_matrix):
        for i, entry in enumerate(row):
            for te, c in entry.terms.items():
                if c.in_base():
                    for a in range(n):
                        terms[l * n + (a + j) % n][i * n + a][te] = \
                            c.coeffs[0]
                    continue
                for a in range(n):
                    image = c * ext.normal_basis()[(a + j) % n]
                    for ap, comp in enumerate(ext.normal_coords(image)):
                        if comp:
                            terms[l * n + ap][i * n + a][te] = comp
    return [[SPoly(ext.base, entry) for entry in row] for row in terms]


def fitting_ideal(module: AndersonModule, ext: ExtField, side="motive",
                  tau_matrix=None):
    """det(T - tau) on the chosen side after restriction of scalars: the
    T-deformation Fitting ideal's generator as its F_q[t] coefficients by
    T-exponent, monic in T (Berkowitz leads with the ring's one)."""
    _side_twist(side)  # refuse an unknown side before any work
    if tau_matrix is None:
        tau_matrix = drinfeld_tau_matrix(module, ext)
    big = restrict_tau(tau_matrix, ext, side)
    fq = ext.base
    return charpoly(big, SPoly.const(fq, fq.one()))[::-1]


def fitting_ideal_power_oracle(module: AndersonModule, ext: ExtField,
                               side="motive",
                               tau_matrix=None):
    """Independent route: det over k[t] of (T^d - tau^d), where d = [k:F_q]
    makes tau^d k[t]-linear; the result must have F_q coefficients, and
    is returned as ``fitting_ideal``'s is."""
    j = _side_twist(side)
    if tau_matrix is None:
        tau_matrix = drinfeld_tau_matrix(module, ext)
    r = len(tau_matrix)
    n = ext.n
    # matrix of tau^n: M * M^(tw) * .. * M^(tw^(n-1)), tw = coefficient
    # Frobenius (inverse Frobenius on the comotive side); M^(tw^s) is one
    # more twist of M^(tw^(s-1))
    zero = SPoly(ext, {})
    acc = twisted = tau_matrix
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
    return out


def check_desk_bound(dim, n):
    """Refuse an E(k) = k^dim of F_q-dimension dim * n past the desk
    bound; it needs only n = [k:F_q], not k."""
    if dim * n > DESK_BOUND:
        raise DimensionError(
            "E(k) dimension {} exceeds the desk bound {}".format(
                dim * n, DESK_BOUND))


def brute_force_fitting(module: AndersonModule, ext: ExtField) -> SPoly:
    """Characteristic polynomial of the t-action on E(k) = k^dim as an
    F_q-space: the 0th Fitting ideal generator of E(k) as an A-module."""
    _require_finite(module)
    d = module.dim
    n = ext.n
    check_desk_bound(d, n)
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
                        twists[i] = powers(ext.gen().q_power_iter(i), n)
                    val = val + ext.embed(coeff.as_fq()) * twists[i][a]
                for ap in range(n):
                    col[l * n + ap] = col[l * n + ap] + val.coeffs[ap]
            cols.append(col)
    mat = [[cols[j][i] for j in range(size)] for i in range(size)]
    coeffs_lead_first = charpoly(mat, fq.one())
    return SPoly(fq, {size - i: c for i, c in enumerate(coeffs_lead_first)
                      if c})


def render_fitting(coeffs) -> str:
    """A generator, given by its F_q[t] coefficients by T-exponent, in
    decreasing powers of T."""
    if not coeffs:
        return "0"
    parts = []
    for te in range(len(coeffs) - 1, -1, -1):
        c = coeffs[te]
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
