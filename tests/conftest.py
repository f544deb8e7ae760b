"""Shared fixtures and random-instance generators for the test suite.

Randomized suites use seeded random.Random so every run exercises the
same cases; the operator-evaluation helper gives an implementation-free
semantics for skew products (compose twisted multiplication maps).
"""

import itertools
from fractions import Fraction
from functools import reduce
from operator import add, mul

import pytest

from taures.anderson import Differential, phi_inverse_power
from taures.errors import (FieldError, NotInvertibleError, PrecisionError,
                           SkewParseError)
from taures.fields import (Fq, FqElement, PerfElement, PerfField, SPoly,
                           needs_parens, render_poly_in_var)
from taures.skew import NEG_INF, SkewLaurent
from taures.skewmat import MAX_ESCALATIONS, SkewMatrix, mat_mul


@pytest.fixture(scope="session")
def fq2():
    return Fq(2)


@pytest.fixture(scope="session")
def fq3():
    return Fq(3)


@pytest.fixture(scope="session")
def fq4():
    return Fq(4, [1, 1, 1])


@pytest.fixture(scope="session")
def pf2(fq2):
    return PerfField(fq2)


@pytest.fixture(scope="session")
def pf3(fq3):
    return PerfField(fq3)


@pytest.fixture(scope="session")
def pf4(fq4):
    return PerfField(fq4)


def from_right_coeffs(pf, terms):
    """The SkewLaurent sum of tau^e * a over the (a, e) in terms, which
    are already right-normal."""
    coeffs = {}
    for a, e in terms:
        if a:
            s = coeffs.get(e)
            coeffs[e] = s + a if s is not None else a
    return SkewLaurent(pf, coeffs)


def rand_fq(rng, fq):
    return fq.element([rng.randrange(fq.p) for _ in range(fq.m)])


def rand_perf(rng, pf, max_deg=1, max_level=1, allow_fraction=False):
    """Random element of the perfection: a small polynomial (or fraction)
    in theta, possibly tagged with a q-th root level."""
    from taures.fields import SPoly
    fq = pf.fq
    num = SPoly(fq, {e: rand_fq(rng, fq) for e in range(max_deg + 1)})
    if not num:
        num = SPoly.const(fq, fq.one())
    den = SPoly.const(fq, fq.one())
    if allow_fraction and rng.random() < 0.3:
        den = SPoly(fq, {rng.randrange(2): fq.one()})
        if not den:
            den = SPoly.const(fq, fq.one())
    from taures.fields import PerfElement
    val = PerfElement(pf, num, den, 0)
    for _ in range(rng.randrange(max_level + 1)):
        val = val.q_root()
    return val


def rand_perf_nonzero(rng, pf, **kw):
    for _ in range(50):
        val = rand_perf(rng, pf, **kw)
        if val:
            return val
    return pf.one()


def rand_skew(rng, pf, lo=-4, hi=4, max_terms=3, **kw):
    """Random exact twisted Laurent element with exponents in [lo, hi]."""
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = rng.randint(lo, hi)
        terms[e] = rand_perf(rng, pf, **kw)
    return SkewLaurent(pf, terms)


def rand_skew_nonzero(rng, pf, **kw):
    for _ in range(50):
        f = rand_skew(rng, pf, **kw)
        if f:
            return f
    return SkewLaurent.one(pf)


def rand_skew_monomial_lead(rng, pf, lo=-2, hi=2, **kw):
    """Random nonzero element whose leading coefficient is a theta-power
    monomial: inversion denominators stay monomial, so deep precisions
    remain desk-cheap (binomial leads cost exponentially in precision)."""
    f = rand_skew(rng, pf, lo=lo, hi=hi, **kw)
    d = int(f.deg_tau()) if f else rng.randint(lo, hi)
    c = rand_fq(rng, pf.fq)
    if not c:
        c = pf.fq.one()
    lead = pf.from_fq(c) * (pf.theta() ** rng.randrange(3))
    terms = [(coeff, e) for e, coeff in f.coeffs.items() if e != d]
    terms.append((lead, d))
    return from_right_coeffs(pf, terms)


def invert_scalar_geometric(f, precision):
    """Test-only reference for ``invert_scalar``: the geometric series.

    Factor f = tau^d * (1 + h) * u with u = leading coefficient and
    ord_sigma(h) >= 1, then expand (1+h)^-1 as a geometric series.  Each
    term is kept at full depth and only the sum is cut to the output
    floor, so the cost grows exponentially in precision for multi-term
    leading coefficients; it shares no step with the recurrence.  An
    exact monomial has the exact inverse, with floor -inf.
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
    u = f.coeffs[d]
    u_inv = pf.one() / u
    # h = sum_{s>=1} sigma^s * (a_{d-s} / u); exact polynomial part of f
    h_terms = {}
    for e, a in f.coeffs.items():
        if e == d:
            continue
        h_terms[e - d] = a / u
    h = SkewLaurent(pf, h_terms)
    one = SkewLaurent.one(pf)
    acc = one
    series = one
    for _ in range(1, precision):
        acc = acc * (-h)
        if not acc:
            break
        series = series + acc
    if h or not f.is_exact():
        # for an exact monomial h = 0, and the series is exactly 1
        series = series.truncate(-(precision - 1))
    # f^-1 = u^-1 * series * sigma^d
    out = SkewLaurent.scalar(pf, u_inv) * series
    return out * SkewLaurent(pf, {-d: pf.one()})


def skew_mul_reference(f, g):
    """Test-only reference for the skew product: every term pair is
    formed, and only then are the terms below the product floor
    max(floor_f + deg(g), floor_g + deg(f)) dropped, deg being the stored
    tau-degree, or floor - 1 for a truncated element storing nothing."""
    coeffs = {}
    for i, a in f.coeffs.items():
        for j, b in g.coeffs.items():
            c = a.q_power_iter(-j) * b
            if not c:
                continue
            k = i + j
            s = coeffs.get(k)
            coeffs[k] = s + c if s is not None else c

    return SkewLaurent(f.pf, coeffs, product_floor_reference(f, g))


def product_floor_reference(f, g):
    """Test-only reference for ``SkewLaurent._mul_floor``: the highest
    floor_f + deg(g) and floor_g + deg(f) over the truncated factors whose
    partner has a finite deg, -inf when there is none."""
    def deg(h):
        if h:
            return h.deg_tau()
        return NEG_INF if h.is_exact() else h.floor - 1

    floors = [lo + deg(other) for lo, other in ((f.floor, g), (g.floor, f))
              if lo != NEG_INF and deg(other) != NEG_INF]
    return max(floors) if floors else NEG_INF


def skew_product_reference(f, g, floor=NEG_INF):
    """Test-only reference for one product of ``skew.sum_of_products``:
    each term pair at or above the product floor
    (``product_floor_reference``, raised to ``floor``) is one PerfElement
    product, folded into its coefficient by ``+``."""
    floor = max(floor, product_floor_reference(f, g))
    coeffs = {}
    for i, a in f.coeffs.items():
        for j, b in g.coeffs.items():
            if i + j < floor:
                continue
            c = a.q_power_iter(-j) * b
            if not c:
                continue
            s = coeffs.get(i + j)
            coeffs[i + j] = s + c if s is not None else c
    return SkewLaurent(f.pf, coeffs, floor)


def sum_of_products_reference(pf, pairs, floor=NEG_INF):
    """Test-only reference for ``skew.sum_of_products``: each product by
    ``skew_product_reference``, and their terms folded by ``+`` under the
    highest of their floors and ``floor``."""
    products = [skew_product_reference(x, y, floor) for x, y in pairs]
    coeffs = {}
    for p in products:
        floor = max(floor, p.floor)
        for k, c in p.coeffs.items():
            s = coeffs.get(k)
            coeffs[k] = s + c if s is not None else c
    return SkewLaurent(pf, coeffs, floor)


def mat_mul_reference(a, b, floor=NEG_INF):
    """Test-only reference for ``skewmat.mat_mul``: every entry product is
    formed by ``skew_product_reference``, exact zeros included, and
    folded into a running SkewLaurent sum that starts empty at
    ``floor``."""
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc = SkewLaurent(a.pf, {}, floor)
            for l in range(a.cols):
                acc = acc + skew_product_reference(a[i, l], b[l, j], floor)
            row.append(acc)
        out.append(row)
    return SkewMatrix(a.pf, out)


def rand_kernel_coeff(rng, pf):
    """Random nonzero element with a unit, monomial or general (two-term)
    denominator, at level 0..3 before canonicalization."""
    fq = pf.fq
    one = fq.one()
    num = SPoly(fq, {e: rand_fq(rng, fq)
                     for e in rng.sample(range(7), rng.randint(1, 6))})
    if not num:
        num = SPoly.const(fq, one)
    k = rng.randint(1, 3)
    den = rng.choice([{0: one}, {k: one}, {0: one, k: one}])
    x = PerfElement(pf, num, SPoly(fq, den), 0)
    return x.q_power_iter(-rng.randint(0, 3))


def rand_kernel_skew(rng, pf):
    """Random element for the product kernel: tau-exponents -3..3 of both
    signs, coefficients by ``rand_kernel_coeff``; an exact zero, a
    truncated empty element or a truncated one now and then."""
    kind = rng.randrange(6)
    if kind == 0:
        return SkewLaurent.zero(pf)
    if kind == 1:
        return SkewLaurent(pf, {}, rng.randint(-4, 2))
    f = SkewLaurent(pf, {e: rand_kernel_coeff(rng, pf)
                         for e in rng.sample(range(-3, 4),
                                             rng.randint(1, 3))})
    return f.truncate(rng.randint(-5, 3)) if kind == 2 else f


def invert_series_matrix_reference(phi, precision):
    """Test-only reference for ``invert_series_matrix``: passes of
    ``eliminate_reference`` with every pivot inverted to ``work``
    sigma-orders counted from its own leading term, whatever its degree,
    and the whole elimination rerun at ``work + deficit`` when the result
    misses the target floor (a PrecisionError doubles ``work``).  The
    same escalation budget applies.
    """
    if precision < 1:
        raise PrecisionError("inversion precision must be >= 1")
    work = precision
    last_err = None
    for _ in range(MAX_ESCALATIONS + 1):
        try:
            x = eliminate_reference(phi, work)
        except PrecisionError as err:
            last_err = err
            work *= 2
            continue
        deficit = x.max_floor() + precision
        if deficit <= 0:
            return x.truncate(-precision)
        work += int(deficit)
        last_err = PrecisionError("inverse floor {} did not reach -{}".format(
            x.max_floor(), precision))
    raise last_err


def eliminate_reference(phi, work, sized=False):
    """Test-only reference for one elimination pass: dense elimination
    that updates every column of every row, each row operation a skew
    product and a difference, each pivot inverted by the geometric series
    (``invert_scalar_geometric``).  A pivot is inverted to ``work``
    sigma-orders, or with ``sized`` to the depth ``skewmat._eliminate``
    gives it: work + 1 - deg + lift, lift the highest tau-degree (at
    least 0) of every other entry of the pivot row, cleared ones included
    (they store no term), plus that of the rest of its column."""
    n = phi.rows
    pf = phi.pf
    a = [row[:] for row in phi.entries]
    x = [row[:] for row in SkewMatrix.identity(pf, n).entries]
    for col in range(n):
        pivot = None
        best = NEG_INF
        for r in range(col, n):
            d = a[r][col].deg_tau()
            if d != NEG_INF and d > best:
                best = d
                pivot = r
        if pivot is None:
            if not all(a[r][col].is_exact() for r in range(col, n)):
                raise PrecisionError(
                    "column {} vanishes to the working floor".format(col))
            raise NotInvertibleError(
                "not invertible: column {} is zero".format(col))
        if pivot != col:
            a[pivot], a[col] = a[col], a[pivot]
            x[pivot], x[col] = x[col], x[pivot]
        pivot_entry = a[col][col]
        deg = int(pivot_entry.deg_tau())
        p_eff = work
        if sized:
            row = a[col][:col] + a[col][col + 1:] + x[col]
            column = [a[r][col] for r in range(n) if r != col]
            lift = sum(int(max(max((e.deg_tau() for e in es), default=0), 0))
                       for es in (row, column))
            p_eff = max(1, work + 1 - deg + lift)
        if not pivot_entry.is_exact():
            p_eff = min(p_eff, deg - pivot_entry.floor + 1)
        inv = invert_scalar_geometric(pivot_entry, p_eff)
        a[col] = [inv * e for e in a[col]]
        x[col] = [inv * e for e in x[col]]
        for r in range(n):
            if r == col:
                continue
            factor = a[r][col]
            if not factor and factor.is_exact():
                continue
            a[r] = [e - factor * p for e, p in zip(a[r], a[col])]
            x[r] = [e - factor * p for e, p in zip(x[r], x[col])]
    return SkewMatrix(pf, x)


def divmod_reference(a, b):
    """Test-only reference for ``SPoly.divmod``: schoolbook long division
    that visits every degree from deg a down to deg b, with no monomial
    shortcut and no heap."""
    db = b.degree()
    lead_inv = b.terms[db].inverse()
    rem = dict(a.terms)
    quo = {}
    for d in range(a.degree(), db - 1, -1):
        c = rem.pop(d, None)
        if not c:
            continue
        c = c * lead_inv
        quo[d - db] = c
        for e, bc in b.terms.items():
            if e != db:
                k = e + d - db
                rem[k] = rem[k] - c * bc if k in rem else -(c * bc)
    return SPoly(a.ring, quo), SPoly(a.ring, rem)


def gcd_reference(a, b):
    """Test-only reference for ``SPoly.gcd``: plain Euclid, then monic,
    with no monomial or valuation shortcut."""
    while b:
        a, b = b, a % b
    return a.monic()


def perf_canonical_reference(pf, num, den, level):
    """Test-only reference for ``PerfElement``'s canonical form, as
    (num terms, den terms, level): divide out the gcd found by plain
    Euclid, whatever the shape of the denominator, make den monic, then
    strip levels while every exponent is divisible by q."""
    fq = pf.fq
    if not num:
        return {}, {0: fq.one()}, 0
    g = gcd_reference(num, den)
    num, den = num // g, den // g
    inv = den.leading().inverse()
    num, den = num.scale(inv), den.scale(inv)
    q = pf.q
    while level > 0 and all(e % q == 0 for e in num.terms) \
            and all(e % q == 0 for e in den.terms):
        num = SPoly(fq, {e // q: c for e, c in num.terms.items()})
        den = SPoly(fq, {e // q: c for e, c in den.terms.items()})
        level -= 1
    return num.terms, den.terms, level


def mulmod_reference(a, b, modulus, p):
    """Test-only reference for ``Fq._mul``: the integer schoolbook product
    of two coefficient tuples, long division by the monic ``modulus``
    (constant term first), and each remainder coefficient taken mod p."""
    m = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for d in range(len(prod) - 1, m - 1, -1):
        c = prod[d]
        for i, f in enumerate(modulus):
            prod[d - m + i] -= c * f
    return tuple(c % p for c in prod[:m])


def q_power_iter_reference(x, j):
    """Test-only reference for ``PerfElement.q_power_iter``: |j| single
    steps, each a q-th power by products for j > 0, and for j < 0 the
    same fraction one level up, canonicalized by the full constructor."""
    for _ in range(abs(j)):
        x = x ** x.pf.q if j > 0 else \
            PerfElement(x.pf, x.num, x.den, x.level + 1)
    return x


def spoly_mul_reference(a, b):
    """Test-only reference for ``SPoly.__mul__``: every term pair is
    formed and summed, whatever the number of terms on either side."""
    terms = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            s = terms.get(e1 + e2)
            terms[e1 + e2] = s + c1 * c2 if s is not None else c1 * c2
    return SPoly(a.ring, terms)


def perf_op_reference(a, b, op):
    """Test-only reference for PerfElement + - * /: lift both fractions
    to the common level, combine them, and canonicalize by
    ``perf_canonical_reference``."""
    pf = a.pf
    e = max(a.level, b.level)
    lifted = []
    for x in (a, b):
        k = pf.q ** (e - x.level)
        lifted.append([SPoly(pf.fq, {i * k: c for i, c in p.terms.items()})
                       for p in (x.num, x.den)])
    (n1, d1), (n2, d2) = lifted
    num, den = {"+": (n1 * d2 + n2 * d1, d1 * d2),
                "-": (n1 * d2 - n2 * d1, d1 * d2),
                "*": (n1 * n2, d1 * d2),
                "/": (n1 * d2, d1 * n2)}[op]
    return perf_canonical_reference(pf, num, den, e)


def find_k1_reference(module, cap=64, precision=2):
    """Test-only reference for ``find_k1``: the least k with every
    entry of phi(t)^-k of tau-degree < 0, the powers multiplied out in
    full, with no window.  This is the chain ``phi_inverse_power(module, k,
    precision)`` builds, kept running across k in place of rebuilt for
    each (carlitz-tensor d = 10, q = 2: 0.6 s against 3.5 s).  Precision
    2 is the least the Maurischat phi(t) inverts at.
    """
    inv = phi_inverse_power(module, 1, precision)
    acc = inv
    for k in range(1, cap + 1):
        assert acc.max_floor() < 0, "the order test reads exponent 0"
        if acc.max_deg_tau() < 0:
            return k
        acc = mat_mul(acc, inv)
    raise AssertionError("no k1 <= {}".format(cap))


def pair_row_reference(pf, m, ns, k_cut, inv, window):
    """Test-only reference for ``pairing._pair_row``: the chain
    (-tau)*m*phi(t)^-k with no early exit, run 5 steps past the cut-off
    k_cut, so that agreeing with it checks both the exit and the cut-off."""
    minus_tau = SkewLaurent(pf, {1: -pf.one()})
    acc = mat_mul(m.map(lambda e: minus_tau * e), inv, floor=window)
    terms = [{} for _ in ns]
    steps = k_cut + 5
    for k in range(1, steps + 1):
        for idx, n in enumerate(ns):
            c = mat_mul(acc, n, floor=0)[0, 0].coeff(0)
            if c:
                terms[idx][k - 1] = c
        if k < steps:
            acc = mat_mul(acc, inv, floor=window)
    return [Differential(SPoly(pf, t)) for t in terms]


def positive_degree_manifest(q):
    """A validating module whose phi(t)^-1 has tau-degree 1:
    phi(t) = [[theta + tau, tau^3], [0, theta + tau]], identity bases.
    Its off-diagonal inverse entry is -(theta + tau)^-1 tau^3
    (theta + tau)^-1, of degree -1 + 3 - 1."""
    return ("q: {}\nbase: perf-rational\ndim: 2\nphi_t:\n"
            "row: theta + tau | tau^3\nrow: 0 | theta + tau\n"
            "motive_basis:\nrow: 1 | 0\nrow: 0 | 1\n"
            "comotive_basis:\ncol: 1 | 0\ncol: 0 | 1\n").format(q)


# phi(t) = diag(theta, theta + tau) validates, but
# C0 = coeff_0(phi(t)^-1) = diag(1/theta, 0) is not nilpotent
NON_NILPOTENT_C0_MANIFEST = (
    "q: 2\nbase: perf-rational\ndim: 2\nphi_t:\n"
    "row: theta | 0\nrow: 0 | theta + tau\n"
    "motive_basis:\nrow: 1 | 0\ncomotive_basis:\ncol: 1 | 0\n")


def charpoly_reference(rows, one):
    """Test-only reference for ``lseries.charpoly``: dense Berkowitz, each
    dot product a fold of ring products and sums over every entry, zeros
    included, so it shares neither the sparsity nor the fused sums."""
    def dot(row, vec):
        return reduce(add, map(mul, row, vec))

    n = len(rows)
    poly = [one, -rows[0][0]]
    for i in range(1, n):
        a = rows[i][i]
        row = rows[i][:i]
        col = [rows[r][i] for r in range(i)]
        svals = []
        vec = col
        for _ in range(i):
            svals.append(dot(row, vec))
            vec = [dot(rows[r][:i], vec) for r in range(i)]
        conv = [one, -a] + [-s for s in svals]
        new = []
        for x in range(i + 2):
            zs = range(max(0, x - i), min(x, i + 1) + 1)
            new.append(dot([conv[z] for z in zs], [poly[x - z] for z in zs]))
        poly = new
    return poly


def apply_skew(f, x):
    """Operator semantics: (sum_i tau^i a_i)(x) = sum_i (a_i x)^(q^i).

    Negative i takes q-th roots; this is the composition semantics the
    ring multiplication must match.
    """
    pf = f.pf
    acc = pf.zero()
    for e, a in f.coeffs.items():
        acc = acc + (a * x).q_power_iter(e)
    return acc


def maurischat_display(pf):
    """The Maurischat Gram matrix in closed form, with g = theta^q + theta
    - 2t: [[-1-g, -1, g], [-1, 0, 1], [g, 1, -g]] dt, det = +1.

    Rows follow e = (tau k2, k2, k1), columns e-check = (k1 tau, k1, k2).
    The signs are derived by hand in test_criterion_3_maurischat_golden.
    """
    th = pf.theta()
    one = SPoly.const(pf, pf.one())
    g = SPoly(pf, {0: th.q_pow() + th, 1: -(pf.from_int(2))})
    zero = SPoly(pf, {})
    rows = [[-one - g, -one, g], [-one, zero, one], [g, one, -g]]
    return [[Differential(p) for p in row] for row in rows]


def fq_tables_reference(fq):
    """Test-only reference for ``Fq._build_tables``: every pair (a, b)
    added coefficientwise and multiplied by ``Fq._mul``, each inverse
    found by search.  Returns (add, mul, neg, inv) index tables."""
    q, p = fq.q, fq.p
    elems = list(fq.elements())
    add_t, mul_t = [0] * (q * q), [0] * (q * q)
    neg_t, inv_t = [0] * q, [0] * q
    for a in elems:
        neg_t[a.idx] = FqElement(fq, [(-c) % p for c in a.coeffs]).idx
        for b in elems:
            s = FqElement(fq, [(x + y) % p
                               for x, y in zip(a.coeffs, b.coeffs)])
            add_t[a.idx * q + b.idx] = s.idx
            mul_t[a.idx * q + b.idx] = fq._mul(a, b).idx
    for a in elems[1:]:
        inv_t[a.idx] = next(b.idx for b in elems
                            if mul_t[a.idx * q + b.idx] == 1)
    return add_t, mul_t, neg_t, inv_t


def perf_str_reference(x):
    """Test-only reference for ``str(PerfElement)``: each exponent of
    theta^(1/q^e) reduced as a ``Fraction``."""
    qe = x.pf.q ** x.level

    def side(poly):
        if not poly:
            return "0"
        parts = []
        for exp in sorted(poly.terms, reverse=True):
            c = poly.terms[exp]
            if exp == 0:
                parts.append(str(c))
                continue
            frac = Fraction(exp, qe)
            if frac == 1:
                v = "theta"
            elif frac.denominator == 1:
                v = "theta^{}".format(frac.numerator)
            else:
                v = "theta^({}/{})".format(frac.numerator, frac.denominator)
            if c.is_one():
                parts.append(v)
            else:
                cs = str(c)
                if needs_parens(cs):
                    cs = "({})".format(cs)
                parts.append("{}*{}".format(cs, v))
        return " + ".join(parts)

    ns = side(x.num)
    if x.den.is_one():
        return ns
    ds = side(x.den)
    if needs_parens(ns):
        ns = "({})".format(ns)
    if needs_parens(ds) or "*" in ds:
        ds = "({})".format(ds)
    return "{}/{}".format(ns, ds)


def power_oracle_reference(tau_matrix, ext, side):
    """Test-only reference for ``lseries.fitting_ideal_power_oracle``
    given the rows of its tau matrix and its side: the factor for step s
    twists every coefficient of the original matrix s times over, and
    the descent to F_q keeps each coefficient's constant term without
    checking the rest.  Each
    twist is a plain power, x^q on the motive and x^(q^(n-1)) on the
    comotive, so the reference shares no code with ``q_power_iter``."""
    r = len(tau_matrix)
    n = ext.n
    step = ext.q if side == "motive" else ext.size // ext.q

    def twist_poly(p, steps):
        def tw(c):
            for _ in range(steps):
                c = c ** step
            return c
        return p.map_coeffs(tw)

    zero = SPoly(ext, {})
    acc = tau_matrix
    for s in range(1, n):
        twisted = [[twist_poly(tau_matrix[i][j], s)
                    for j in range(r)] for i in range(r)]
        acc = [[reduce(add, [acc[i][l] * twisted[l][j] for l in range(r)],
                       zero) for j in range(r)] for i in range(r)]
    lead_first = charpoly_reference(acc, SPoly.const(ext, ext.one()))
    fq = ext.base
    out = [SPoly(fq, {}) for _ in range(n * r + 1)]
    for u_exp, c in enumerate(reversed(lead_first)):
        out[u_exp * n] = SPoly(fq, {te: ec.coeffs[0]
                                    for te, ec in c.terms.items()})
    return out


def unit_equiv_reference(a, b):
    """Test-only reference for the rule ``taures lseries`` compared its
    routes by before every route's generator was monic in T: equality of
    F_q[t] values, or of F_q[t][T] values given as coefficient lists by
    T-exponent, up to F_q^x.  It asks for the same support, keyed by
    (T-exponent, t-exponent) for a list, and one ratio between the
    coefficients."""
    def terms(x):
        if isinstance(x, SPoly):
            return x.terms
        return {(te, e): c for te, poly in enumerate(x)
                for e, c in poly.terms.items()}

    a_terms, b_terms = terms(a), terms(b)
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


def fq_str_reference(a):
    """Test-only reference for ``str(FqElement)``: the general polynomial
    rendering in the field generator, prime fields included."""
    return render_poly_in_var({i: c for i, c in enumerate(a.coeffs) if c},
                              a.field.gen_name, lambda c: c == 1)


def irreducible_reference(field, poly):
    """Test-only reference for ``fields.irreducible_over``: trial
    factorization, no monic divisor of degree 1..n//2."""
    n = poly.degree()
    if n <= 0:
        return False
    ring = poly.ring
    elems = list(field.elements())
    for deg in range(1, n // 2 + 1):
        for coeffs in itertools.product(elems, repeat=deg):
            div = dict(enumerate(coeffs))
            div[deg] = ring.one()
            if not poly % SPoly(ring, div):
                return False
    return True


def det_reference(rows, zero):
    """Test-only reference for ``linalg.det``: the Leibniz sum over every
    permutation, zero entries included."""
    n = len(rows)
    acc = zero
    for perm in itertools.permutations(range(n)):
        term = reduce(mul, (rows[i][perm[i]] for i in range(n)))
        inversions = sum(perm[i] > perm[j] for i in range(n)
                         for j in range(i + 1, n))
        acc = acc - term if inversions % 2 else acc + term
    return acc


def nilpotency_index_reference(a, limit):
    """Test-only reference for ``linalg.nilpotency_index``: the powers
    a^1 .. a^limit as dense products, zeros included."""
    n = len(a)
    power = a
    for k in range(1, limit + 1):
        if all(not c for row in power for c in row):
            return k
        power = [[reduce(add, (power[i][l] * a[l][j] for l in range(n)))
                  for j in range(n)] for i in range(n)]
    return None


def tokenize_reference(text, line=1, col=1):
    """Test-only reference for ``parsing.tokenize``: the character-by-
    character scanner it replaced, as (kind, value, line, col) tuples.
    Its digit test is str.isdigit, which also takes digits that int()
    refuses, such as superscripts, so the two agree on ASCII text only."""
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
        if ch in "+-*/^()|":
            tokens.append(("sym", ch, line, col))
            col += 1
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise SkewParseError("unexpected character {!r}".format(ch),
                             line, col)
    tokens.append(("end", "", line, col))
    return tokens
