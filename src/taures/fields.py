"""Exact arithmetic in the coefficient fields.

Three layers live here:

* ``Fq`` -- the finite field F_q = F_p[z]/(modulus), q = p^m, with elements
  stored as coefficient tuples in the polynomial basis.  The q-power map
  fixes F_q pointwise, which downstream code relies on.
* ``SPoly`` -- sparse univariate polynomials over any coefficient ring that
  exposes ``zero()``/``one()`` and whose elements overload +, -, *, /.
  The same class serves F_p[z], F_q[x], k[t], F_q[t] and, over
  ``PerfField``, the ring R^perf[t] in which pairing values live.
* ``PerfElement`` -- an element of the perfection of F_q(theta): a reduced
  rational function num/den over F_q together with a level e >= 0, the value
  being (num/den)(theta^(1/q^e)).  Frobenius and its inverse are exact and
  cheap: q-power at level 0 scales exponents by q (coefficients are
  Frobenius-fixed), q-root bumps the level and re-minimizes.  A unit or
  monomial denominator c*theta^k never reaches Euclid: ``coprime`` and
  the reduction read the common factor off the exponents.

Everything is immutable after construction; operations are pure.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import random
from math import gcd as gcd_int

from .errors import FieldError


def _is_prime(n):
    """Miller-Rabin to the bases 2..37, deterministic below 3.3 * 10^24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % b == 0 for b in bases):
        return n in bases
    s = ((n - 1) & (1 - n)).bit_length() - 1  # 2^s exactly divides n - 1
    for b in bases:
        x = pow(b, (n - 1) >> s, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


def _iroot(n, m):
    """floor(n^(1/m)) by integer Newton steps from above."""
    y = 1 << -(-n.bit_length() // m)
    x = y + 1
    while y < x:
        x, y = y, ((m - 1) * y + n // y ** (m - 1)) // m
    return x


def _factor_prime_power(q):
    """Return (p, m) with q = p^m, or raise.  p is the exact m-th root of
    q for the largest m that has one, so no search runs up to sqrt(q)."""
    if q < 2:
        raise FieldError("q must be a prime power >= 2, got {}".format(q))
    for m in range(q.bit_length() - 1, 0, -1):
        p = _iroot(q, m)
        if p ** m == q:
            if _is_prime(p):
                return p, m
            break
    raise FieldError("q = {} is not a prime power".format(q))


def _reduction_rows(tail, zero):
    """x^k mod f for k = n .. 2n-2 as coefficient lists, f monic of degree
    n with x^n = tail (coefficients of 1 .. x^(n-1)) mod f.  Over the
    integers the rows are exact lifts, to be reduced mod p by the caller."""
    rows, cur = [], list(tail)
    for _ in range(len(tail) - 1):
        rows.append(cur)
        lead = cur[-1]
        cur = [zero] + cur[:-1]
        if lead:
            cur = [a + lead * t for a, t in zip(cur, tail)]
    return rows


def _mul_mod(a, b, rows, zero):
    """a * b mod f on coefficient sequences of length n, ``rows`` from
    ``_reduction_rows`` of f: the schoolbook product, then each power
    x^k with k >= n replaced by its row."""
    n = len(a)
    prod = [zero] * (2 * n - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    prod[i + j] = prod[i + j] + ca * cb
    res = prod[:n]
    for c, row in zip(prod[n:], rows):
        if c:
            res = [r + c * t for r, t in zip(res, row)]
    return res


def power(base, n, one):
    """base^n for n >= 0 by square-and-multiply, starting from ``one``."""
    result = one
    while n:
        if n & 1:
            result = result * base
        base = base * base
        n >>= 1
    return result


def powers(x, n):
    """[1, x, .., x^(n-1)]."""
    out = [x.field.one()]
    for _ in range(n - 1):
        out.append(out[-1] * x)
    return out


def _inverse_of_columns(cols, zero, one):
    """The inverse of the square matrix over a field whose columns are
    ``cols``, by Gauss-Jordan elimination; None when they are dependent."""
    n = len(cols)
    rows = [[col[i] for col in cols] + [one if k == i else zero
                                        for k in range(n)]
            for i in range(n)]
    for c in range(n):
        pivot = next((r for r in range(c, n) if rows[r][c]), None)
        if pivot is None:
            return None
        rows[c], rows[pivot] = rows[pivot], rows[c]
        inv = rows[c][c].inverse()
        rows[c] = [x * inv for x in rows[c]]
        for r, row in enumerate(rows):
            f = row[c]
            if f and r != c:
                rows[r] = [x - f * y for x, y in zip(row, rows[c])]
    return [row[n:] for row in rows]


class FqElement:
    """An element of F_q in the polynomial basis w.r.t. the field modulus.

    ``idx`` is the mixed-radix encoding sum coeffs[i] * p^i; once the field
    has built its lookup tables, arithmetic is a table access returning an
    interned instance, which matters in the coefficient-heavy inner loops.
    """

    __slots__ = ("field", "coeffs", "idx")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = tuple(coeffs)
        idx = 0
        for c in reversed(self.coeffs):
            idx = idx * field.p + c
        self.idx = idx

    def __bool__(self):
        return self.idx != 0

    def __eq__(self, other):
        return (isinstance(other, FqElement) and self.field is other.field
                and self.idx == other.idx)

    def __hash__(self):
        return hash((self.field.q, self.idx))

    def __add__(self, other):
        f = self.field
        if f._tables:
            return f._elems[f._add_t[self.idx * f.q + other.idx]]
        p = f.p
        return FqElement(f, tuple((a + b) % p for a, b in
                                  zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        f = self.field
        if f._tables:
            return f._elems[f._neg_t[self.idx]]
        return FqElement(f, tuple((-a) % f.p for a in self.coeffs))

    def __mul__(self, other):
        f = self.field
        if f._tables:
            return f._elems[f._mul_t[self.idx * f.q + other.idx]]
        return f._mul(self, other)

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        return power(self, n, self.field.one())

    def inverse(self):
        if not self:
            raise FieldError("zero has no inverse in F_q")
        f = self.field
        if f._tables:
            return f._elems[f._inv_t[self.idx]]
        # Fermat: a^(q-2); q is desk-scale so square-and-multiply is fine.
        return self ** (f.q - 2)

    def is_one(self):
        return self.idx == 1

    def __str__(self):
        if self.field.m == 1:
            return str(self.coeffs[0])
        return render_poly_in_var(
            {i: c for i, c in enumerate(self.coeffs) if c},
            self.field.gen_name, lambda c: c == 1)

    def __repr__(self):
        return "FqElement({})".format(self)


class Fq:
    """The finite field F_q = F_p[z]/(modulus), modulus monic irreducible.

    ``modulus`` is a list of m+1 residues mod p, constant term first,
    leading coefficient 1.  For m = 1 the default modulus is z, i.e. the
    prime field itself.
    """

    gen_name = "z"

    def __init__(self, q, modulus=None):
        p, m = _factor_prime_power(q)
        self.p = p
        self.m = m
        self.q = q
        if modulus is None:
            if m != 1:
                raise FieldError(
                    "q = {} needs an explicit degree-{} modulus".format(q, m))
            modulus = [0, 1]
        modulus = [c % p for c in modulus]
        if len(modulus) != m + 1 or modulus[-1] != 1:
            raise FieldError(
                "modulus must be monic of degree {} over F_{}".format(m, p))
        self.modulus = tuple(modulus)
        if m > 1:
            self._check_irreducible()
        self._red = [[c % p for c in row] for row in
                     _reduction_rows([-c for c in modulus[:-1]], 0)]
        self._tables = False
        if q <= 512:
            self._build_tables()

    def _build_tables(self):
        """Operation tables on element indices.  Addition and negation go
        digit by digit on the base-p index; multiplication and inversion
        add and negate discrete logs to a generator of F_q^x."""
        q, p = self.q, self.p
        self._elems = list(self.elements())
        digit_sum = [[(a + b) % p for b in range(p)] for a in range(p)]
        rows, negs = [[0]], [0]
        for _ in range(self.m):
            # index a0 + p*a' from the tables of the higher digits a'
            rows = [[c + p * h for h in high for c in digit_sum[a0]]
                    for high in rows for a0 in range(p)]
            negs = [(-a0) % p + p * h for h in negs for a0 in range(p)]
        self._add_t = [s for row in rows for s in row]
        self._neg_t = negs
        exp = self._generator_powers()
        twice = exp + exp
        mul_t = [0] * (q * q)
        inv_t = [0] * q
        for i, a in enumerate(exp):
            row = a * q
            for b, ab in zip(exp, twice[i:i + q - 1]):
                mul_t[row + b] = ab
            inv_t[a] = exp[-i]
        self._mul_t = mul_t
        self._inv_t = inv_t
        self._tables = True

    def _generator_powers(self):
        """[g^0, g^1, .., g^(q-2)] as indices, for the first generator g
        of F_q^x in index order."""
        for g in self._elems[1:]:
            powers, cur = [1], g
            while cur.idx != 1:
                powers.append(cur.idx)
                cur = self._mul(cur, g)
            if len(powers) == self.q - 1:
                return powers

    def _check_irreducible(self):
        fp = _prime_field(self.p)
        poly = SPoly(fp, {i: fp.from_int(c)
                          for i, c in enumerate(self.modulus)})
        if not irreducible_over(fp, poly):
            raise FieldError("modulus is reducible over F_{}".format(self.p))

    def zero(self):
        if self._tables:
            return self._elems[0]
        return FqElement(self, (0,) * self.m)

    def one(self):
        if self._tables:
            return self._elems[1]
        return FqElement(self, (1,) + (0,) * (self.m - 1))

    def gen(self):
        if self.m == 1:
            raise FieldError("prime field has no generator z")
        return FqElement(self, (0, 1) + (0,) * (self.m - 2))

    def from_int(self, n):
        return FqElement(self, (n % self.p,) + (0,) * (self.m - 1))

    def element(self, coeffs):
        coeffs = list(coeffs)[: self.m]
        coeffs += [0] * (self.m - len(coeffs))
        return FqElement(self, tuple(c % self.p for c in coeffs))

    def elements(self):
        """Every element in index order, the constant coefficient varying
        fastest."""
        for coeffs in itertools.product(range(self.p), repeat=self.m):
            yield FqElement(self, coeffs[::-1])

    def _mul(self, a, b):
        p = self.p
        if self.m == 1:  # a prime field above the table bound
            return FqElement(self, (a.coeffs[0] * b.coeffs[0] % p,))
        return FqElement(self, [c % p for c in
                                _mul_mod(a.coeffs, b.coeffs, self._red, 0)])

    def __repr__(self):
        return "Fq({})".format(self.q)


@functools.lru_cache(maxsize=None)
def _prime_field(p):
    """The one F_p that checks the moduli of every F_(p^m); its elements
    never leave the check, so sharing it does not mix fields."""
    return Fq(p)


class SPoly:
    """Sparse univariate polynomial over a coefficient ring.

    Stored as {exponent: nonzero coefficient}.  Exponents may be huge
    (Frobenius substitutions scale them by q^j), so density is never
    materialized; division and gcd walk exponents sparsely.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = {e: c for e, c in terms.items() if c}

    @classmethod
    def _trusted(cls, ring, terms):
        """Adopt ``terms`` as is: the caller guarantees every coefficient
        is nonzero, so the zero filter is skipped."""
        poly = cls.__new__(cls)
        poly.ring = ring
        poly.terms = terms
        return poly

    @classmethod
    def const(cls, ring, c):
        return cls(ring, {0: c})

    @classmethod
    def gen(cls, ring):
        return cls(ring, {1: ring.one()})

    @classmethod
    def sum_of_products(cls, ring, pairs):
        """sum of a(x^ka) * b(x^kb) * x^s over the (a, ka, b, kb, s) in
        pairs, in one term dict: no product, shifted copy or partial sum
        is built, and a key whose sum cancels is dropped at once
        (coefficient rings are fields, so no other coefficient vanishes).
        A one-term b re-keys a, scaled unless its coefficient is 1, into
        distinct keys inserted in bulk (the first such copy becomes the
        dict); only the keys the dict already holds are summed one by
        one."""
        terms = {}
        get = terms.get
        for a, ka, b, kb, s in pairs:
            b_terms = b.terms.items()
            if len(b_terms) == 1:
                (e2, c2), = b_terms
                e2 = e2 * kb + s
                if c2.is_one():
                    part = {e1 * ka + e2: c1 for e1, c1 in a.terms.items()}
                else:
                    part = {e1 * ka + e2: c1 * c2
                            for e1, c1 in a.terms.items()}
                if not terms:
                    terms = part
                    get = terms.get
                    continue
                for e in terms.keys() & part.keys():
                    total = terms.pop(e) + part[e]
                    if total:
                        part[e] = total
                    else:
                        del part[e]
                terms.update(part)
                continue
            if kb != 1 or s:
                b_terms = [(e2 * kb + s, c2) for e2, c2 in b_terms]
            for e1, c1 in a.terms.items():
                e1 *= ka
                for e2, c2 in b_terms:
                    e = e1 + e2
                    c = c1 * c2
                    total = get(e)
                    if total is None:
                        terms[e] = c
                    else:
                        total = total + c
                        if total:
                            terms[e] = total
                        else:
                            del terms[e]
        return cls._trusted(ring, terms)

    def degree(self):
        """Degree, or -1 for the zero polynomial."""
        return max(self.terms) if self.terms else -1

    def valuation(self):
        return min(self.terms) if self.terms else -1

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, SPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        return self._plus(other.terms.items())

    def __sub__(self, other):
        return self._plus((e, -c) for e, c in other.terms.items())

    def _plus(self, items):
        """self plus the (exponent, nonzero coefficient) items; a key whose
        sum cancels is dropped there, so no zero filter runs after."""
        terms = dict(self.terms)
        get = terms.get
        for e, c in items:
            s = get(e)
            if s is None:
                terms[e] = c
            else:
                s = s + c
                if s:
                    terms[e] = s
                else:
                    del terms[e]
        return SPoly._trusted(self.ring, terms)

    def __neg__(self):
        return SPoly._trusted(self.ring,
                              {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        a, b = (self, other) if len(self.terms) >= len(other.terms) \
            else (other, self)  # a one-term side goes second, as b
        return SPoly.sum_of_products(self.ring, [(a, 1, b, 1, 0)])

    def __pow__(self, n):
        if n < 0:
            raise FieldError("negative polynomial power")
        return power(self, n, SPoly(self.ring, {0: self.ring.one()}))

    def scale(self, c):
        return SPoly(self.ring, {e: v * c for e, v in self.terms.items()})

    def coeff(self, e):
        c = self.terms.get(e)
        return c if c is not None else self.ring.zero()

    def shift(self, k):
        """Multiply by var^k (k may be negative if valuation allows)."""
        return SPoly._trusted(self.ring,
                              {e + k: c for e, c in self.terms.items()})

    def map_coeffs(self, f):
        return SPoly(self.ring, {e: f(c) for e, c in self.terms.items()})

    def leading(self):
        d = self.degree()
        return self.terms[d]

    def is_one(self):
        terms = self.terms
        return len(terms) == 1 and 0 in terms and terms[0].is_one()

    # --- field-coefficient operations (divmod and friends) ---

    def divmod(self, other):
        if not other:
            raise FieldError("polynomial division by zero")
        oterms = other.terms
        dd = max(oterms)
        lead_inv = oterms[dd].inverse()
        # sparse long division; a heap tracks the live leading exponent so
        # huge Frobenius-scaled exponents never force dense scans
        rem = dict(self.terms)
        heap = [-e for e in rem]
        heapq.heapify(heap)
        quo = {}
        while heap:
            d = -heap[0]
            if d not in rem:
                heapq.heappop(heap)
                continue
            if d < dd:
                break
            heapq.heappop(heap)
            c = rem.pop(d) * lead_inv
            shift = d - dd
            quo[shift] = c
            for e, oc in oterms.items():
                if e == dd:
                    continue
                k = e + shift
                v = rem.get(k)
                nv = (v - c * oc) if v is not None else -(c * oc)
                if nv:
                    if v is None:
                        heapq.heappush(heap, -k)
                    rem[k] = nv
                elif v is not None:
                    del rem[k]
        return SPoly(self.ring, quo), SPoly(self.ring, rem)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def monic(self):
        if not self:
            return self
        inv = self.leading().inverse()
        return self.scale(inv)

    def gcd(self, other):
        """Monic gcd over field coefficients, with sparse fast paths."""
        a, b = self, other
        if not a:
            return b.monic()
        if not b:
            return a.monic()
        # common valuation splits off as a monomial factor; primitive parts
        # of monomials are constants, so the monomial case never hits Euclid
        v = min(a.valuation(), b.valuation())
        if len(a.terms) == 1 or len(b.terms) == 1:
            return SPoly._trusted(self.ring, {v: self.ring.one()})
        a = a.shift(-a.valuation())
        b = b.shift(-b.valuation())
        while b:
            a, b = b, a % b
        g = a.monic()
        return g.shift(v) if v > 0 else g

    def subst_power(self, k):
        """Substitute var -> var^k (k >= 1): exponent scaling."""
        return SPoly._trusted(self.ring,
                              {e * k: c for e, c in self.terms.items()})

    def subst_root(self, k):
        """Substitute var^k -> var; exponents must be divisible by k."""
        return SPoly._trusted(self.ring,
                              {e // k: c for e, c in self.terms.items()})

    def render(self, var):
        return render_poly_in_var(self.terms, var, lambda c: c.is_one())

    def __str__(self):
        return self.render("t")

    def __repr__(self):
        return "SPoly({})".format(self)


def coprime(a, b):
    """gcd(a, b) == 1.  A monomial c*x^k shares exactly the factor
    x^min(k, val) with the other side, so then the answer is whether
    either side has a constant term; only two non-monomials run Euclid."""
    if len(a.terms) == 1 or len(b.terms) == 1:
        return 0 in a.terms or 0 in b.terms
    return a.gcd(b).is_one()


def needs_parens(s):
    return " + " in s or " - " in s


def render_poly_in_var(terms, var, coeff_is_one):
    """Canonical rendering: decreasing exponent, '*' between coefficient
    and variable power, unit coefficients omitted on proper powers.  A
    coefficient that is a sum or a fraction goes in parentheses."""
    if not terms:
        return "0"
    parts = []
    for e in sorted(terms, reverse=True):
        c = terms[e]
        cs = str(c)
        if e == 0:
            parts.append(cs)
        else:
            v = var if e == 1 else "{}^{}".format(var, e)
            if coeff_is_one(c):
                parts.append(v)
            else:
                if needs_parens(cs) or "/" in cs:
                    cs = "({})".format(cs)
                parts.append("{}*{}".format(cs, v))
    return " + ".join(parts)


def irreducible_over(field, poly):
    """Irreducibility over a finite coefficient field F_Q: no root, then,
    from degree 4 on, Rabin's test (a reducible f of degree <= 3 has a
    factor of degree 1, hence a root).  With h_k = x^(Q^k) mod f, a monic
    f of degree n is irreducible iff gcd(h_(n/l) - x, f) = 1 for each
    prime l | n and h_n = x.  Q-th powers fix F_Q, so h_(k+1) =
    sum_i h_k[i] x^(iQ) mod f combines the n residues x^(iQ) mod f.  The
    root test and those residues cost about Q*n^3 field operations, which
    is capped."""
    n = poly.degree()
    if n <= 1:
        return n == 1
    size = field.q
    if size * n ** 3 > 3 * 10 ** 6:
        raise FieldError("modulus of degree {} over F_{} is too large for "
                         "Rabin's test (Q*n^3 > 3*10^6)".format(n, size))
    f, one, zero = poly.monic(), field.one(), field.zero()
    coeffs = [f.coeff(i) for i in range(n)]
    for a in field.elements():
        acc = one
        for c in reversed(coeffs):  # Horner
            acc = acc * a + c
        if not acc:
            return False
    if n <= 3:
        return True
    residues = [SPoly(field, {i * size: one}) % f for i in range(n)]
    x = h = SPoly.gen(field)
    for k in range(1, n + 1):
        terms = {}
        for e, c in h.terms.items():
            for i, r in residues[e].terms.items():
                terms[i] = terms.get(i, zero) + c * r
        h = SPoly(field, terms)
        if k < n and n % k == 0 and _is_prime(n // k) \
                and not coprime(h - x, f):
            return False
    return h == x


def find_irreducible(field, degree):
    """Deterministic search: lexicographically first monic irreducible."""
    # the constant coefficient varies fastest, as in field.elements()
    for coeffs in itertools.product(field.elements(), repeat=degree):
        cand = SPoly(field, {degree: field.one(),
                             **dict(enumerate(reversed(coeffs)))})
        if irreducible_over(field, cand):
            return cand
    raise FieldError("no irreducible of degree {} found".format(degree))


class ExtField:
    """Extension k = F_q[w]/(ext modulus): the base field for L-series.

    Elements are tuples of FqElement in the power basis (1, w, .., w^(n-1)).
    Restriction of scalars works over ``normal_basis``, on which the
    Frobenius is a cyclic shift.
    """

    gen_name = "w"

    def __init__(self, base: Fq, modulus: SPoly, _irreducible=False):
        # _irreducible: the caller has just proved the modulus irreducible
        # (find_irreducible), so it is not tested a second time
        self.base = base
        n = modulus.degree()
        if n < 1:
            raise FieldError("extension modulus must have degree >= 1")
        lead = modulus.leading()
        if not lead.is_one():
            raise FieldError("extension modulus must be monic")
        if n > 1 and not _irreducible and not irreducible_over(base, modulus):
            raise FieldError("extension modulus is reducible over F_q")
        self.modulus = modulus
        self.n = n
        self.q = base.q
        self.size = base.q ** n
        self._red = _reduction_rows([-modulus.coeff(i) for i in range(n)],
                                    base.zero())

    def zero(self):
        return ExtElement(self, (self.base.zero(),) * self.n)

    def one(self):
        return ExtElement(self, (self.base.one(),) +
                          (self.base.zero(),) * (self.n - 1))

    def gen(self):
        if self.n == 1:
            return self.embed(-self.modulus.coeff(0))
        coeffs = [self.base.zero()] * self.n
        coeffs[1] = self.base.one()
        return ExtElement(self, tuple(coeffs))

    def embed(self, c: FqElement):
        coeffs = [c] + [self.base.zero()] * (self.n - 1)
        return ExtElement(self, tuple(coeffs))

    def element(self, coeffs):
        coeffs = list(coeffs)[: self.n]
        coeffs += [self.base.zero()] * (self.n - len(coeffs))
        return ExtElement(self, tuple(coeffs))

    def elements(self):
        """Every element, the coefficient of 1 varying fastest."""
        for coeffs in itertools.product(self.base.elements(), repeat=self.n):
            yield ExtElement(self, coeffs[::-1])

    def normal_basis(self):
        """The normal basis beta_a = beta^(q^a), a < n, of k over F_q, on
        which the Frobenius is the cyclic shift beta_a -> beta_(a+1),
        indices mod n.  Every finite field has one; beta is the first
        candidate of a fixed-seed sequence whose n conjugates are
        independent over F_q, so each field with this modulus gets the
        same basis.  Found on first use, with the coordinate map of
        ``normal_coords``, and kept."""
        return self._normal[0]

    def normal_coords(self, x):
        """The F_q coordinates of x on ``normal_basis``."""
        zero = self.base.zero()
        return [sum((m * c for m, c in zip(row, x.coeffs) if c), zero)
                for row in self._normal[1]]

    @functools.cached_property
    def _normal(self):
        """(normal basis, power -> normal coordinate map)."""
        n, fq = self.n, self.base
        zero = fq.zero()
        # column a of the Frobenius matrix is (w^a)^q = (w^q)^a; F_q is
        # Frobenius-fixed, so x^q = sum_a x_a (w^a)^q
        frob = [x.coeffs for x in powers(self.gen().q_power_iter(1), n)]
        rng = random.Random(0)
        while True:
            conj = [[fq.element([rng.randrange(fq.p) for _ in range(fq.m)])
                     for _ in range(n)]]
            for _ in range(n - 1):
                x = [zero] * n
                for c, col in zip(conj[-1], frob):
                    if c:
                        x = [a + c * b for a, b in zip(x, col)]
                conj.append(x)
            to_normal = _inverse_of_columns(conj, zero, fq.one())
            if to_normal is not None:
                return [ExtElement(self, c) for c in conj], to_normal

    def _mul(self, a, b):
        if a.in_base():
            a, b = b, a
        if b.in_base():  # an F_q scalar scales, with no reduction
            c = b.coeffs[0]
            return ExtElement(self, tuple(x * c for x in a.coeffs))
        return ExtElement(self, _mul_mod(a.coeffs, b.coeffs, self._red,
                                         self.base.zero()))

    def __repr__(self):
        return "ExtField(q={}, n={})".format(self.q, self.n)


class ExtElement:
    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = tuple(coeffs)

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        return (isinstance(other, ExtElement) and self.field is other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        return ExtElement(self.field, tuple(a + b for a, b in
                                            zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        return ExtElement(self.field, tuple(a - b for a, b in
                                            zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return ExtElement(self.field, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        return self.field._mul(self, other)

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        return power(self, n, self.field.one())

    def in_base(self):
        """Whether self lies in F_q: no coefficient after the first."""
        return not any(self.coeffs[1:])

    def inverse(self):
        if not self:
            raise FieldError("zero has no inverse")
        if self.in_base():
            return self.field.embed(self.coeffs[0].inverse())
        return self ** (self.field.size - 2)

    def q_power_iter(self, j):
        """x^(q^j) for any integer j: the twist tau^j restricted to k.  It
        fixes F_q and has order n on k, so j counts mod n."""
        f = self.field
        return self if self.in_base() else self ** (f.q ** (j % f.n))

    def is_one(self):
        return self.coeffs[0].is_one() and not any(self.coeffs[1:])

    def __str__(self):
        terms = {i: c for i, c in enumerate(self.coeffs) if c}
        return render_poly_in_var(terms, self.field.gen_name,
                                  lambda c: c.is_one())

    def __repr__(self):
        return "ExtElement({})".format(self)


class PerfField:
    """Context for the perfection of F_q(theta) (or the degenerate
    finite-field base where every element is an F_q constant)."""

    def __init__(self, fq: Fq):
        self.fq = fq
        self.q = fq.q
        # shared by every unit denominator; polynomials are never mutated
        self._one = SPoly(fq, {0: fq.one()})

    def zero(self):
        return PerfElement(self, SPoly(self.fq, {}), self._one, 0)

    def one(self):
        return PerfElement(self, self._one, self._one, 0)

    def theta(self):
        return PerfElement(self, SPoly(self.fq, {1: self.fq.one()}),
                           self._one, 0)

    def from_fq(self, c: FqElement):
        return PerfElement(self, SPoly(self.fq, {0: c} if c else {}),
                           self._one, 0)

    def from_int(self, n):
        return self.from_fq(self.fq.from_int(n))

    def __repr__(self):
        return "PerfField(q={})".format(self.q)


def _strip_levels(q, num, den, level):
    """(num, den, level) at the least level their value allows, in one
    substitution: q^s divides every exponent just when s <= v_q(g), g
    the gcd of all exponents of num and den, so s = min(level, v_q(g))
    levels strip (g = 0, a constant, strips them all)."""
    if not level:
        return num, den, level
    g = gcd_int(*num.terms, *den.terms)
    s = level
    if g:
        s = 0
        while s < level and g % q == 0:
            g //= q
            s += 1
    if s:
        k = q ** s
        num, den = num.subst_root(k), den.subst_root(k)
    return num, den, level - s


class PerfElement:
    """num/den evaluated at theta^(1/q^level), in minimal canonical form.

    Canonical: gcd(num, den) = 1, den monic, and when level > 0 not all
    exponents of num and den are divisible by q (else the level strips).
    Structural equality of canonical forms is value equality.
    """

    __slots__ = ("pf", "num", "den", "level")

    def __init__(self, pf, num, den, level, _canonical=False):
        self.pf = pf
        if _canonical:
            self.num, self.den, self.level = num, den, level
            return
        if not den:
            raise FieldError("zero denominator")
        if not num:
            self.num = num
            self.den = pf._one
            self.level = 0
            return
        if len(den.terms) == 1:
            # den = c*x^k and gcd(num, den) = x^min(k, val(num)): dividing
            # it out and making den monic is a shift and a scale
            (k, c), = den.terms.items()
            m = min(k, num.valuation())
            if m:
                num = num.shift(-m)
            if not c.is_one():
                num = num.scale(c.inverse())
            den = pf._one if k == m else \
                SPoly._trusted(pf.fq, {k - m: pf.fq.one()})
        else:
            g = num.gcd(den)
            if not g.is_one():
                num = num // g
                den = den // g
            lead = den.leading()
            if not lead.is_one():
                inv = lead.inverse()
                num = num.scale(inv)
                den = den.scale(inv)
        self.num, self.den, self.level = _strip_levels(pf.q, num, den, level)

    # --- predicates ---

    def __bool__(self):
        return bool(self.num)

    def is_one(self):
        return self.level == 0 and self.den.is_one() and self.num.is_one()

    def is_constant(self):
        return self.level == 0 and self.den.is_one() and self.num.degree() <= 0

    def as_fq(self):
        if not self.is_constant():
            raise FieldError("not an F_q constant: {}".format(self))
        return self.num.coeff(0)

    def __eq__(self, other):
        return (isinstance(other, PerfElement) and self.level == other.level
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        return hash((self.level, self.num, self.den))

    # --- arithmetic ---

    @classmethod
    def _reduced(cls, pf, num, den, level):
        """Construct from an already-reduced monic-den fraction: only the
        level strip runs (no polynomial gcd)."""
        if not num:
            return cls(pf, num, pf._one, 0, _canonical=True)
        num, den, level = _strip_levels(pf.q, num, den, level)
        return cls(pf, num, den, level, _canonical=True)

    def _common_level(self, other):
        e = max(self.level, other.level)
        q = self.pf.q
        a = self
        b = other
        if a.level < e:
            k = q ** (e - a.level)
            a = (a.num.subst_power(k), a.den.subst_power(k))
        else:
            a = (a.num, a.den)
        if b.level < e:
            k = q ** (e - b.level)
            b = (b.num.subst_power(k), b.den.subst_power(k))
        else:
            b = (b.num, b.den)
        return a, b, e

    def __add__(self, other):
        return self._sum(other, SPoly.__add__)

    def __sub__(self, other):
        return self._sum(other, SPoly.__sub__)

    def _sum(self, other, op):
        """self + other or self - other, as ``op`` adds or subtracts the
        cross-multiplied numerators."""
        # radicals are Frobenius-substitution invariants, so coprimality
        # of the raw denominators already certifies the lifted sum reduced
        fast = coprime(self.den, other.den)
        (n1, d1), (n2, d2), e = self._common_level(other)
        if d1.is_one() and d2.is_one():
            num, den = op(n1, n2), d1
        else:
            num, den = op(n1 * d2, n2 * d1), d1 * d2
        if fast:
            return PerfElement._reduced(self.pf, num, den, e)
        return PerfElement(self.pf, num, den, e)

    @classmethod
    def twisted_sum(cls, pf, triples):
        """sum of a^(q^j) * b over the (a, j, b) in triples (not empty).

        Products whose two denominators are monomials x^k (a unit is
        k = 0) are summed in one numerator dict at their common level L
        and reduced once.  a^(q^j) is a at level a.level - j, so the
        exponents of a scale by sa = q^(L - a.level + j) and those of b
        by sb = q^(L - b.level); product t has denominator x^d_t with
        d_t = ka*sa + kb*sb.  Over x^D, D the largest d_t, its numerator
        is shifted by D - d_t, and the monomial branch of ``__init__``
        reduces the sum.  Products with a two-term denominator are added
        by ``+``."""
        if len(triples) == 1 and triples[0][2].is_one():
            a, j, _ = triples[0]
            return a.q_power_iter(j)
        q = pf.q
        fused = []
        rest = []
        level = 0
        for a, j, b in triples:
            if len(a.den.terms) == 1 and len(b.den.terms) == 1:
                fused.append((a, j, b))
                level = max(level, a.level - j, b.level)
            else:
                rest.append(a.q_power_iter(j) * b)
        total = None
        if fused:
            pairs = []
            top = 0
            for a, j, b in fused:
                sa = q ** (level - a.level + j)
                sb = q ** (level - b.level)
                (ka,), (kb,) = a.den.terms, b.den.terms
                d = ka * sa + kb * sb
                if d > top:
                    top = d
                pairs.append((a.num, sa, b.num, sb, d))
            if top:
                pairs = [(an, sa, bn, sb, top - d)
                         for an, sa, bn, sb, d in pairs]
                total = cls(pf, SPoly.sum_of_products(pf.fq, pairs),
                            SPoly._trusted(pf.fq, {top: pf.fq.one()}), level)
            else:
                total = cls._reduced(pf, SPoly.sum_of_products(pf.fq, pairs),
                                     pf._one, level)
        for c in rest:
            total = c if total is None else total + c
        return total

    def __neg__(self):
        return PerfElement(self.pf, -self.num, self.den, self.level,
                           _canonical=True)

    def __mul__(self, other):
        fast = coprime(other.num, self.den) and coprime(self.num, other.den)
        (n1, d1), (n2, d2), e = self._common_level(other)
        if fast:
            return PerfElement._reduced(self.pf, n1 * n2, d1 * d2, e)
        return PerfElement(self.pf, n1 * n2, d1 * d2, e)

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        return power(self, n, self.pf.one())

    def inverse(self):
        """den/num with den made monic: gcd 1 and the exponents, hence the
        level, are those of self, so the result is canonical as it is."""
        if not self.num:
            raise FieldError("zero has no inverse")
        num, den = self.den, self.num
        lead = den.leading()
        if not lead.is_one():
            inv = lead.inverse()
            num, den = num.scale(inv), den.scale(inv)
        return PerfElement(self.pf, num, den, self.level, _canonical=True)

    # --- Frobenius tower ---

    def q_pow(self):
        """a -> a^q."""
        return self.q_power_iter(1)

    def q_root(self):
        """a -> a^(1/q)."""
        return self.q_power_iter(-1)

    def q_power_iter(self, j):
        """a^(q^j) for any integer j (negative = roots), in one step: the
        level falls by j as far as it can and one exponent scaling by q^rest
        covers the rest; a root raises the level and re-minimizes once."""
        if j < 0:
            return PerfElement._reduced(self.pf, self.num, self.den,
                                        self.level - j)
        if j == 0:
            return self
        rest = j - self.level
        if rest <= 0:
            return PerfElement(self.pf, self.num, self.den, -rest,
                               _canonical=True)
        k = self.pf.q ** rest
        return PerfElement(self.pf, self.num.subst_power(k),
                           self.den.subst_power(k), 0, _canonical=True)

    def perfection_level(self):
        return self.level

    # --- rendering ---

    def _render_side(self, poly):
        """Terms by decreasing exponent of theta^(1/q^e), reduced by a gcd
        only when not a multiple of q^e; each coefficient's prefix is
        formatted once.  A deep pairing prints a million terms, hence the
        f-strings, the cheapest formatting."""
        if not poly:
            return "0"
        terms = poly.terms
        qe = self.pf.q ** self.level
        prefixes = {}  # coefficient index -> "" for 1, else "c*"
        parts = []
        for exp in sorted(terms, reverse=True):
            c = terms[exp]
            if exp == 0:
                parts.append(str(c))
                continue
            if exp % qe:
                g = gcd_int(exp, qe)
                v = f"theta^({exp // g}/{qe // g})"
            elif exp == qe:
                v = "theta"
            else:
                v = f"theta^{exp // qe}"
            prefix = prefixes.get(c.idx)
            if prefix is None:
                cs = str(c)
                prefix = "" if c.is_one() else \
                    f"({cs})*" if needs_parens(cs) else f"{cs}*"
                prefixes[c.idx] = prefix
            parts.append(prefix + v)
        return " + ".join(parts)

    def __str__(self):
        ns = self._render_side(self.num)
        if self.den.is_one():
            return ns
        ds = self._render_side(self.den)
        if needs_parens(ns):
            ns = "({})".format(ns)
        if needs_parens(ds) or "*" in ds:
            ds = "({})".format(ds)
        return "{}/{}".format(ns, ds)

    def __repr__(self):
        return "PerfElement({})".format(self)
