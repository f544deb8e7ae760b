"""Matrices over the twisted Laurent ring, and inversion into truncated
series matrices by Gaussian elimination over the division ring R((sigma)).

Row operations multiply from the left throughout, so the noncommutative
order of scalars is preserved.  Pivoting picks the entry of maximal
deg_tau (minimal sigma-valuation) in the current column, breaking ties by
smallest row index, which keeps golden outputs deterministic.  Each pivot
is inverted only as deep as the target precision needs, counted from the
pivot's degree, the degrees of the row it scales and the degrees of the
column it clears, so one elimination pass reaches the target.

The elimination is sparse and fused.  Only the columns right of the
pivot are scaled and cleared: the pivot column, and every column left of
it, is never read again, so those entries keep stale values and nothing
(the lift included) reads them.  A row update e - f*p leaves e when p is
an exact zero and is otherwise one ``skew.sum_of_products`` over (e, 1)
and (-f, p), so each coefficient is one fused sum.  Floors and
coefficients are those of the dense update.

A matrix keeps the deepest inverse certified for it: every request at
or below that sigma-precision is a truncation of it, and only a deeper
request eliminates again.
"""

from __future__ import annotations

from .errors import DimensionError, NotInvertibleError, PrecisionError
from .fields import PerfField
from .skew import NEG_INF, SkewLaurent, invert_scalar, sum_of_products

# retries of invert_series_matrix's escalation before its last
# PrecisionError is raised; no other layer retries
MAX_ESCALATIONS = 3


class SkewMatrix:
    """Dense matrix of SkewLaurent entries (immutable by convention).

    ``_inverse`` is the deepest inverse ``invert_series_matrix`` has
    certified for this matrix, or None.
    """

    __slots__ = ("pf", "rows", "cols", "entries", "_inverse")

    def __init__(self, pf: PerfField, entries):
        self.pf = pf
        self._inverse = None
        self.entries = [list(row) for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.rows else 0
        for row in self.entries:
            if len(row) != self.cols:
                raise DimensionError("ragged matrix rows")

    @classmethod
    def identity(cls, pf, n):
        one = SkewLaurent.one(pf)
        zero = SkewLaurent.zero(pf)
        return cls(pf, [[one if i == j else zero for j in range(n)]
                        for i in range(n)])

    @classmethod
    def zeros(cls, pf, rows, cols):
        zero = SkewLaurent.zero(pf)
        return cls(pf, [[zero for _ in range(cols)] for _ in range(rows)])

    def __getitem__(self, ij):
        return self.entries[ij[0]][ij[1]]

    def __eq__(self, other):
        return (isinstance(other, SkewMatrix) and self.rows == other.rows
                and self.cols == other.cols
                and all(self.entries[i][j] == other.entries[i][j]
                        for i in range(self.rows) for j in range(self.cols)))

    def map(self, f):
        return SkewMatrix(self.pf, [[f(e) for e in row]
                                    for row in self.entries])

    def __add__(self, other):
        self._check_same_shape(other)
        return SkewMatrix(self.pf,
                          [[a + b for a, b in zip(r1, r2)]
                           for r1, r2 in zip(self.entries, other.entries)])

    def _check_same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionError("matrix shapes differ")

    def agrees_with(self, other) -> bool:
        self._check_same_shape(other)
        return all(self.entries[i][j].agrees_with(other.entries[i][j])
                   for i in range(self.rows) for j in range(self.cols))

    def truncate(self, floor):
        return self.map(lambda e: e.truncate(floor))

    def max_floor(self):
        """Worst (highest) precision floor over entries; -inf if all exact."""
        return max((e.floor for row in self.entries for e in row),
                   default=NEG_INF)

    def is_exact(self):
        return all(e.is_exact() for row in self.entries for e in row)

    def sigma_free(self):
        return all(e.sigma_free() for row in self.entries for e in row)

    def max_deg_tau(self):
        d = NEG_INF
        for row in self.entries:
            for e in row:
                d = max(d, e.deg_tau())
        return d

    def deg_or_zero(self) -> int:
        """max_deg_tau as an int, raised to 0 (0 for the zero matrix)."""
        return int(max(self.max_deg_tau(), 0))

    def render(self):
        return "\n".join(" | ".join(str(e) for e in row)
                         for row in self.entries)

    def __str__(self):
        return self.render()

    def __repr__(self):
        return "SkewMatrix({}x{})".format(self.rows, self.cols)


def mat_mul(a: SkewMatrix, b: SkewMatrix, floor=NEG_INF) -> SkewMatrix:
    """Entry-wise sums of skew products; a's entries multiply from the left.

    With ``floor`` the result equals ``mat_mul(a, b).truncate(floor)``, but
    each entry computes only the terms at or above it.  An exact zero
    operand (no term, floor -inf) adds neither terms nor a floor, so its
    products are skipped; each entry is one ``skew.sum_of_products`` of
    the rest, which sums each coefficient once over every product.
    """
    if a.cols != b.rows:
        raise DimensionError(
            "inner dimensions differ: {}x{} times {}x{}".format(
                a.rows, a.cols, b.rows, b.cols))
    pf = a.pf
    b_rows = [[(j, y) for j, y in enumerate(row)
               if y.coeffs or y.floor != NEG_INF] for row in b.entries]
    out = []
    for a_row in a.entries:
        pairs = [[] for _ in range(b.cols)]
        for l, x in enumerate(a_row):
            if x.coeffs or x.floor != NEG_INF:
                for j, y in b_rows[l]:
                    pairs[j].append((x, y))
        out.append([sum_of_products(pf, p, floor) for p in pairs])
    return SkewMatrix(pf, out)


def invert_series_matrix(phi: SkewMatrix, precision) -> SkewMatrix:
    """Invert a square matrix over R[tau] into Mat(R((sigma))).

    Returns X with every entry carrying prec_floor -precision and
    phi*X == I == X*phi to the precision the product floors certify.
    The deepest inverse certified so far is kept on ``phi``; a request at
    or below its depth is answered by truncating it, structurally equal
    to a fresh inversion.  Otherwise ``work``, the floor -work that
    elimination aims each row at, starts at ``precision``.  Each pivot of
    degree d is inverted to work + 1 - d + lift sigma-orders (at least 1),
    lift being the highest tau-degree (at least 0) of the live entries of
    its row (those right of the pivot, and its row of the inverse) plus
    that of the other entries of its column, which leaves the scaled row
    known to sigma^work and every row it clears as well.  If the inverse
    still misses the target, ``work`` grows by the missing depth, which is
    all of ``work`` when a column has no pivot above the working floor.
    After ``MAX_ESCALATIONS`` retries the last error is raised.
    """
    if phi.rows != phi.cols:
        raise DimensionError("only square matrices can be inverted")
    if precision < 1:
        raise PrecisionError("inversion precision must be >= 1")
    cached = phi._inverse
    if cached is not None and cached.max_floor() <= -precision:
        return cached.truncate(-precision)
    work = precision
    for _ in range(MAX_ESCALATIONS + 1):
        try:
            x = _eliminate(phi, work)
        except PrecisionError as err:
            last_err, deficit = err, work
        else:
            deficit = x.max_floor() + precision
            if deficit <= 0:
                phi._inverse = x.truncate(-precision)
                return phi._inverse
            last_err = PrecisionError(
                "inverse floor {} did not reach -{}".format(
                    x.max_floor(), precision))
        # escalate by exactly the missing depth; coefficient degrees grow
        # fast with sigma-precision, so overshooting is the real hazard
        work += int(deficit)
    raise last_err


def _eliminate(phi: SkewMatrix, work):
    n = phi.rows
    pf = phi.pf
    one = SkewLaurent.one(pf)
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
                # the column is only known to vanish above its floors
                raise PrecisionError(
                    "column {} vanishes to the working floor".format(col))
            raise NotInvertibleError(
                "not invertible: column {} is zero".format(col))
        if pivot != col:
            a[pivot], a[col] = a[col], a[pivot]
            x[pivot], x[col] = x[col], x[pivot]
        pivot_entry = a[col][col]
        deg = int(pivot_entry.deg_tau())
        # only the columns right of the pivot are live; those left of it
        # hold stale factors, which must not enter the lift
        right = a[col][col + 1:]
        # inv has floor -deg - p_eff + 1, and scaling the pivot row by it
        # raises that floor by the degree of each entry: depth enough for
        # the highest one leaves the row known to sigma^work.  Clearing
        # row r then subtracts a[r][col] * (pivot row), which raises the
        # floor again by deg a[r][col]: the highest of those joins the lift
        factors = [a[r][col] for r in range(n) if r != col]
        lift = int(max(max((e.deg_tau() for e in right + x[col]),
                           default=0), 0)) \
            + int(max(max((e.deg_tau() for e in factors), default=0), 0))
        # a truncated pivot only supports inversion to the depth it is
        # known (an exact one, floor -inf, to any); floors on the output
        # keep the accounting honest
        p_eff = min(max(1, work + 1 - deg + lift),
                    deg - pivot_entry.floor + 1)
        inv = invert_scalar(pivot_entry, p_eff)
        a[col][col + 1:] = right = [e if _is_zero(e) else inv * e
                                    for e in right]
        x[col] = [e if _is_zero(e) else inv * e for e in x[col]]
        for r in range(n):
            if r == col:
                continue
            factor = a[r][col]
            if _is_zero(factor):
                continue
            neg = -factor
            a[r][col + 1:] = [_cleared(pf, one, e, neg, p)
                              for e, p in zip(a[r][col + 1:], right)]
            x[r] = [_cleared(pf, one, e, neg, p)
                    for e, p in zip(x[r], x[col])]
    return SkewMatrix(pf, x)


def _is_zero(e):
    """e is an exact zero: no term and floor -inf."""
    return not e.coeffs and e.floor == NEG_INF


def _cleared(pf, one, e, neg, p):
    """e + neg * p, one fused sum; an exact zero p leaves e."""
    if _is_zero(p):
        return e
    return sum_of_products(pf, [(e, one), (neg, p)])
