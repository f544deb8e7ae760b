"""Matrices over commutative rings, stored as lists of rows: the one
product, nilpotency test, characteristic polynomial and determinant of
taures.  The rings are R^perf and R^perf[t] (the pairing), F_q, F_q[t]
and k[t] (the L-series).  Every routine skips zero entries, since the
matrices met here are sparse.
"""

from __future__ import annotations

from functools import reduce
from operator import add, neg

from .errors import DimensionError
from .fields import Fq, SPoly


def dot(pairs, zero):
    """sum of a * b over the (a, b) in the list pairs; ``zero`` when it is
    empty.  SPoly products are summed into one term dict."""
    if not pairs:
        return zero
    if isinstance(zero, SPoly):
        return SPoly.sum_of_products(zero.ring,
                                     [(a, 1, b, 1, 0) for a, b in pairs])
    return reduce(add, (a * b for a, b in pairs))


def mat_mul(a, b, zero):
    """a * b; only products of two nonzero entries are formed."""
    b_rows = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for a_row in a:
        pairs = [[] for _ in b[0]]
        for k, x in enumerate(a_row):
            if x:
                for j, y in b_rows[k]:
                    pairs[j].append((x, y))
        out.append([dot(p, zero) for p in pairs])
    return out


def nilpotency_index(a, zero, limit):
    """The least k <= limit with a^k = 0, or None if a^limit != 0; the
    powers are formed only up to the first zero one."""
    power = a
    for k in range(1, limit + 1):
        if not any(c for row in power for c in row):
            return k
        if k < limit:
            power = mat_mul(power, a, zero)
    return None


def charpoly(rows, one):
    """Berkowitz characteristic polynomial det(lambda*I - A), division
    free over any commutative ring whose unit is ``one``; returns
    coefficients leading-first.

    The field alone picks the coefficient kernel.  Over F_q or F_q[t],
    when F_q has operation tables, each entry becomes once a list of F_q
    element indices by t-degree, every sum of products runs through the
    tables, and the result is built from the interned elements.  Every
    other ring, and F_q without tables, keeps its own arithmetic, with
    SPoly products fused by ``dot``."""
    if not rows:
        raise DimensionError("empty matrix")
    is_poly = isinstance(one, SPoly)
    fq = one.ring if is_poly else getattr(one, "field", None)
    if not (isinstance(fq, Fq) and fq._tables):
        zero = one - one
        return _berkowitz(rows, one, lambda pairs: dot(pairs, zero), neg)
    q, mul_t, add_t, neg_t = fq.q, fq._mul_t, fq._add_t, fq._neg_t

    def index_dot(pairs):
        # x * q and s * q are where the rows of x and s start in the
        # tables; acc only grows, and its zero top is cut at the end
        acc = []
        for a, b in pairs:
            top = len(a) + len(b) - 1
            if top > len(acc):
                acc += [0] * (top - len(acc))
            for i, x in enumerate(a):
                if x:
                    xq = x * q
                    for j, y in enumerate(b, i):
                        if y:
                            acc[j] = add_t[acc[j] * q + mul_t[xq + y]]
        while acc and not acc[-1]:
            acc.pop()
        return acc

    if is_poly:
        index_rows = [[_index_list(e) for e in row] for row in rows]
    else:
        index_rows = [[[c.idx] if c else [] for c in row] for row in rows]
    out = _berkowitz(index_rows, [1], index_dot,
                     lambda a: [neg_t[c] for c in a])
    elems = fq._elems
    if not is_poly:
        return [elems[a[0]] if a else elems[0] for a in out]
    return [SPoly._trusted(fq, {e: elems[c] for e, c in enumerate(a) if c})
            for a in out]


def _index_list(p):
    """The coefficients of an SPoly over F_q as element indices, listed
    by degree; [] for zero, so the last index of a list is nonzero."""
    out = [0] * (p.degree() + 1)
    for e, c in p.terms.items():
        out[e] = c.idx
    return out


def _berkowitz(rows, one, dot, neg):
    """The Berkowitz loop over entries with ``dot`` (of a list of entry
    pairs; dot([]) is zero) and ``neg``; an entry is false when it is
    zero.

    Step i works with the leading i x i block, the same for all its
    matrix-vector products, so the nonzero entries of each block column
    are collected once, and a product pairs them with the nonzero vector
    entries only."""
    n = len(rows)
    zero = dot([])
    poly = [one, neg(rows[0][0])]
    # cols[c]: the nonzero (row, entry) of column c of the leading block
    cols = []
    for i in range(1, n):
        for c in range(i - 1):
            if rows[i - 1][c]:
                cols[c].append((i - 1, rows[i - 1][c]))
        cols.append([(r, rows[r][i - 1]) for r in range(i)
                     if rows[r][i - 1]])
        a = rows[i][i]
        row = [(c, e) for c, e in enumerate(rows[i][:i]) if e]
        # s_j = row * (leading block)^j * col for j = 0 .. i - 1
        vec = [rows[r][i] for r in range(i)]
        svals = [dot([(e, vec[c]) for c, e in row if vec[c]])]
        for _ in range(i - 1):
            pairs = [[] for _ in range(i)]
            for c, v in enumerate(vec):
                if v:
                    for r, e in cols[c]:
                        pairs[r].append((e, v))
            vec = [dot(p) if p else zero for p in pairs]
            svals.append(dot([(e, vec[c]) for c, e in row if vec[c]]))
        conv = [one, neg(a)] + [neg(s) for s in svals]
        new = []
        for x in range(i + 2):
            # new[x] = sum of conv[z] * poly[x - z] over the indices in range
            zs = range(max(0, x - i), min(x, i + 1) + 1)
            new.append(dot([(conv[z], poly[x - z]) for z in zs
                            if conv[z] and poly[x - z]]))
        poly = new
    return poly


def det(a):
    """Cofactor expansion along the first row, skipping zero entries.
    The pairing's Grams are small and sparse, and on them it is far
    faster than ``charpoly`` (README, "Linear algebra")."""
    n = len(a)
    if n == 0:
        raise DimensionError("empty matrix")
    if n == 1:
        return a[0][0]
    acc = a[0][0] - a[0][0]
    for j, x in enumerate(a[0]):
        if x:
            term = x * det([row[:j] + row[j + 1:] for row in a[1:]])
            acc = acc + term if j % 2 == 0 else acc - term
    return acc

