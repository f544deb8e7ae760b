"""Twisted Laurent arithmetic in the Frobenius tau and its inverse sigma.

Elements are kept in right-coefficient normal form sum_i tau^i * a_i with
a_i in the perfection of F_q(theta); sigma = tau^(-1) occupies the negative
exponents.  The defining relation tau*a = a^q*tau makes the product rule

    coeff_k(f*g) = sum_{i+j=k} a_i^(q^-j) * b_j.

Truncation is tracked by ``floor``: all coefficients at tau-degree < floor
are unknown.  Exact elements carry floor = -inf (``NEG_INF``).  The
product floor is max(floor_f + deg(g), floor_g + deg(f)), deg being the
stored tau-degree, or floor - 1 for a truncated element that stores no
term.  It is the exact frontier below which an unknown tail can
contaminate the result; everything at or above the floor is exact, never
approximate.  The floor also bounds the work: a product forms only the
term pairs that land at or above it, and a caller that keeps a narrower
window passes that window as a higher floor, so no discarded term is
ever computed.

A product, or a sum of products (a ``mat_mul`` entry or an elimination
row update), is one ``sum_of_products``, which sums each kept coefficient
once over all its term pairs.
"""

from __future__ import annotations

from .errors import FieldError, PrecisionError
from .fields import PerfElement, PerfField, needs_parens, power

NEG_INF = float("-inf")


class SkewLaurent:
    """A (possibly truncated) twisted Laurent element in normal form."""

    __slots__ = ("pf", "coeffs", "floor")

    def __init__(self, pf: PerfField, coeffs, floor=NEG_INF):
        self.pf = pf
        self.coeffs = {e: c for e, c in coeffs.items() if c and e >= floor}
        self.floor = floor

    # --- constructors ---

    @classmethod
    def zero(cls, pf):
        return cls(pf, {})

    @classmethod
    def one(cls, pf):
        return cls(pf, {0: pf.one()})

    @classmethod
    def tau(cls, pf, k=1):
        return cls(pf, {k: pf.one()})

    @classmethod
    def sigma(cls, pf, k=1):
        return cls(pf, {-k: pf.one()})

    @classmethod
    def scalar(cls, pf, a: PerfElement):
        return cls(pf, {0: a} if a else {})

    @classmethod
    def from_left_coeffs(cls, pf, terms):
        """Normalize sum_i a_i tau^i: each a*tau^i becomes tau^i * a^(q^-i)."""
        coeffs = {}
        for a, e in terms:
            if a:
                a = a.q_power_iter(-e)
                s = coeffs.get(e)
                coeffs[e] = s + a if s is not None else a
        return cls(pf, coeffs)

    # --- structure ---

    def is_exact(self):
        return self.floor == NEG_INF

    def deg_tau(self):
        """Max stored exponent; -inf for (known-)zero."""
        return max(self.coeffs) if self.coeffs else NEG_INF

    def coeff(self, i) -> PerfElement:
        if i < self.floor:
            raise PrecisionError(
                "coefficient of tau^{} is below the precision floor {}"
                .format(i, self.floor))
        c = self.coeffs.get(i)
        return c if c is not None else self.pf.zero()

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        """Structural equality: same stored coefficients and same floor."""
        return (isinstance(other, SkewLaurent) and self.floor == other.floor
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.floor, frozenset(self.coeffs.items())))

    def agrees_with(self, other) -> bool:
        """Equality to precision: compare above the common floor only."""
        lo = max(self.floor, other.floor)
        for e, c in self.coeffs.items():
            if e >= lo and other.coeffs.get(e) != c:
                return False
        for e, c in other.coeffs.items():
            if e >= lo and e not in self.coeffs:
                return False
        return True

    # --- ring operations ---

    def __add__(self, other):
        coeffs = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = coeffs.get(e)
            coeffs[e] = s + c if s is not None else c
        return SkewLaurent(self.pf, coeffs, max(self.floor, other.floor))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return SkewLaurent(self.pf, {e: -c for e, c in self.coeffs.items()},
                           self.floor)

    def __mul__(self, other):
        """The product, computed only at tau-degrees >= its
        ``_mul_floor``; see ``sum_of_products``."""
        return sum_of_products(self.pf, [(self, other)])

    def _mul_floor(self, other):
        # unknown tail of f can contaminate degrees < floor_f + deg(g),
        # where deg(g) counts g's own unknown tail when g stores no term;
        # an exact factor, or an exact zero, contributes -inf
        if self.floor == NEG_INF and other.floor == NEG_INF:
            return NEG_INF
        return max(self.floor + other._deg_bound(),
                   other.floor + self._deg_bound())

    def _deg_bound(self):
        """Highest tau-degree the full element can reach: the stored degree,
        or just below the floor for an element storing nothing."""
        return max(self.coeffs) if self.coeffs else self.floor - 1

    def __pow__(self, n):
        if n < 0:
            raise FieldError("negative skew power; use invert_scalar")
        if self.is_exact() and len(self.coeffs) == 1:
            (e, c), = self.coeffs.items()
            if c.is_one():  # (tau^e)^n = tau^(e*n): no product to form
                return SkewLaurent.tau(self.pf, e * n)
        return power(self, n, SkewLaurent.one(self.pf))

    def truncate(self, floor):
        """Impose a precision floor (may only lose knowledge)."""
        return SkewLaurent(self.pf, self.coeffs, max(self.floor, floor))

    def sigma_free(self):
        return all(e >= 0 for e in self.coeffs)

    def __str__(self):
        return render_skew(self)

    def __repr__(self):
        return "SkewLaurent({})".format(self)


def sum_of_products(pf: PerfField, pairs, floor=NEG_INF) -> SkewLaurent:
    """sum of x * y over the (x, y) in pairs, at tau-degrees >= its floor.

    The floor is the highest ``_mul_floor`` of the pairs, raised to
    ``floor`` when the caller keeps nothing below it.  Term pairs below
    the floor are skipped before their twist and product, so the result
    is the truncated sum at the cost of the kept terms only.  Each
    coefficient, sum over the pairs of sum_{i+j=k} a_i^(q^-j) * b_j, is
    one ``PerfElement.twisted_sum``: no product or partial sum is built.
    """
    for x, y in pairs:
        floor = max(floor, x._mul_floor(y))
    groups = {}
    for x, y in pairs:
        y_terms = y.coeffs.items()
        for i, a in x.coeffs.items():
            lo = floor - i
            for j, b in y_terms:
                if j >= lo:
                    groups.setdefault(i + j, []).append((a, -j, b))
    return SkewLaurent(pf, {k: PerfElement.twisted_sum(pf, g)
                            for k, g in groups.items()}, floor)


def invert_scalar(f: SkewLaurent, precision) -> SkewLaurent:
    """Invert a nonzero element of R((sigma)) to ``precision`` sigma-orders.

    With f = sum_i tau^i a_i of tau-degree d, the inverse g = sum_j tau^j b_j
    starts at tau^-d, and the product rule turns f*g = 1 into the
    coefficient recurrence, for k = 0, -1, .., -(precision-1),

        sum_i a_i^(q^(i-k)) * b_(k-i) = [k = 0],

    so b_-d = 1/lead with lead = a_d^(q^d), and for k < 0 b_(k-d) is the
    sum over i < d of (-a_i)^(q^(i-k)) * b_(k-i) times (1/lead)^(q^-k):
    one ``PerfElement.twisted_sum`` over the b_(k-i) already known and one
    product per sigma-order, with no per-term product or difference and
    no division.  Only the a_i with i > d - precision reach the window.
    The result carries floor -d - precision + 1 and satisfies
    f*g == 1 == g*f above the floors the product rule reports; an exact
    monomial has an exact inverse, returned with floor -inf.
    """
    if precision < 1:
        raise PrecisionError("inversion precision must be >= 1")
    if not f:
        raise FieldError("cannot invert zero (or zero-to-precision)")
    pf = f.pf
    d = f.deg_tau()
    if f.floor > d - precision + 1:
        raise PrecisionError(
            "operand known to sigma^{} only; sigma^{} needed".format(
                d - f.floor, precision - 1))
    inv = f.coeffs[d].q_power_iter(d).inverse()
    b = {-d: inv}
    if f.is_exact() and len(f.coeffs) == 1:
        # an exact monomial tau^d * a has the exact inverse
        # tau^-d * a^-(q^d): the recurrence leaves every lower b zero
        return SkewLaurent(pf, b)
    lower = {i: -a for i, a in f.coeffs.items() if d - precision < i < d}
    for k in range(-1, -precision, -1):
        triples = [(a, i - k, b[k - i]) for i, a in lower.items()
                   if k - i in b]
        if triples:
            s = PerfElement.twisted_sum(pf, triples)
            if s:
                b[k - d] = s * inv.q_power_iter(-k)
    return SkewLaurent(pf, b, -d - precision + 1)


def render_skew(f: SkewLaurent) -> str:
    """Canonical rendering: increasing tau-degree, sigma^k/tau^k powers,
    right coefficient after an explicit '*'; truncated values append
    ' + O(sigma^P)'."""
    parts = []
    for e in sorted(f.coeffs):
        c = f.coeffs[e]
        if e == 0:
            parts.append(str(c))
            continue
        if e > 0:
            v = "tau" if e == 1 else "tau^{}".format(e)
        else:
            v = "sigma" if e == -1 else "sigma^{}".format(-e)
        if c.is_one():
            parts.append(v)
        else:
            cs = str(c)
            if needs_parens(cs):
                cs = "({})".format(cs)
            parts.append("{} * {}".format(v, cs))
    body = " + ".join(parts) if parts else "0"
    if not f.is_exact():
        body += " + O(sigma^{})".format(1 - f.floor)
    return body
