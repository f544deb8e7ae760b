"""The residue-in-tau pairing and everything certified from it.

The pairing of a motive row m against a comotive column n is computed
through the explicit expansion over the projective line,

    pair(m, n) = - sum_{k=1..K} coeff_0(tau * m * phi(t)^-k * n) t^(k-1) dt,

cut at the certified bound K = k1*(2 + deg m + deg n): past it every
summand's tau-degree is negative, so coeff_0 vanishes.  Every coefficient
is extracted from a floor-verified product.  The sigma-precision of
phi(t)^-1 is derived from the tau-degrees of the arguments, and phi(t)^-1
is inverted once, at it or at find_k1's precision if that is deeper;
the pairing never retries.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionError, FieldError, PrecisionError
from .anderson import (_K1_PRECISION, K1_CAP, AndersonModule,
                       Differential, find_k1, termination_bound, twist,
                       validate)
from .fields import PerfElement, SPoly
from .linalg import det
from .skew import SkewLaurent
from .skewmat import SkewMatrix, invert_series_matrix, mat_mul

# the largest sigma-precision a pairing may invert phi(t) at, by default
PRECISION_CAP = 64


class PairingContext:
    """Shared data for pairing sums over one module: the cap on the
    sigma-precision of phi(t)^-1, the convergence constant k1 and the
    cut-off for the declared bases.

    k1 and the cut-off are certified on first read.  ``inverse_at``
    inverts phi(t) at least as deep as find_k1 does, and phi(t) keeps the
    deepest inverse asked of it, so find_k1 and termination_bound read
    truncations of the pairing's inverse (see ``_pair_matrix``).
    """

    def __init__(self, module: AndersonModule, k_cap=K1_CAP,
                 precision_cap=PRECISION_CAP):
        report = validate(module)
        if not report.ok:
            raise FieldError("module does not validate: " + report.failure)
        self.module = module
        self._k_cap = k_cap
        self.precision_cap = precision_cap
        self._k1 = self._k_cutoff = None

    @property
    def k1(self):
        if self._k1 is None:
            self._k1 = find_k1(self.module, cap=self._k_cap)
        return self._k1

    @property
    def k_cutoff(self):
        if self._k_cutoff is None:
            self._k_cutoff = termination_bound(self.module, self.k1)
        return self._k_cutoff

    def inverse_at(self, precision):
        if precision > self.precision_cap:
            raise PrecisionError(
                "needed sigma-precision {} exceeds cap {}".format(
                    precision, self.precision_cap))
        return invert_series_matrix(
            self.module.phi_t,
            max(precision, _K1_PRECISION)).truncate(-precision)


def _context(module_or_ctx) -> PairingContext:
    return module_or_ctx if isinstance(module_or_ctx, PairingContext) \
        else PairingContext(module_or_ctx)


def _check_morphism(mat: SkewMatrix, rows, cols, what):
    if mat.rows != rows or mat.cols != cols:
        raise DimensionError(
            "{} must be {}x{}, got {}x{}".format(what, rows, cols,
                                                 mat.rows, mat.cols))
    if not (mat.sigma_free() and mat.is_exact()):
        raise FieldError("{} must lie in R[tau]".format(what))


def residue_pair(module_or_ctx, m: SkewMatrix, n: SkewMatrix) -> Differential:
    """Pair a motive element (1 x d row) with a comotive element (d x 1
    column), both over R[tau]."""
    ctx = _context(module_or_ctx)
    d = ctx.module.dim
    _check_morphism(m, 1, d, "motive element")
    _check_morphism(n, d, 1, "comotive element")
    _, rows = _pair_matrix(ctx, [m], [n])
    return rows[0][0]


def _pair_matrix(ctx, ms, ns):
    """Pair every motive row of ms against every comotive column of ns;
    returns the cut-off K and the rows of pairings.

    With dm, dn the largest tau-degrees over ms and ns, phi(t)^-1 at
    sigma-precision P = 2 + dm + dn (floor -P) certifies every
    coefficient, provided its tau-degree D is <= 0.  The first chain
    product tau*m*phi(t)^-1 has floor -P + 1 + dm = -1 - dn, below the
    window -dn.  Each later step keeps its floor at or below the window,
    since floor_acc + D <= -dn and -P + deg(acc) <= -1 - dn.  The final
    product with n then has floor <= -dn + dn = 0, so coeff_0 is exact.

    One order serves every command: the cap is checked against P, phi(t)
    is inverted once, D > 0 is refused with a PrecisionError naming D,
    and only then are k1 and the cut-off K = max(k_cutoff, k1 * P) read.
    find_k1 and termination_bound still ask for their own inverses, at 3
    and 2, which are truncations of this one; reading k1 and K straight
    off it would drop two requests, but ``perfbench/tests`` pins three
    requests per Drinfeld gram.
    """
    dm = max(m.deg_or_zero() for m in ms)
    dn = max(n.deg_or_zero() for n in ns)
    precision = 2 + dm + dn
    inv = ctx.inverse_at(precision)
    deg = inv.max_deg_tau()
    if deg > 0:
        raise PrecisionError(
            "phi(t)^-1 has tau-degree {} > 0; the pairing's truncation is "
            "certified only for tau-degree <= 0".format(deg))
    k_cut = max(ctx.k_cutoff, ctx.k1 * precision)
    return k_cut, [_pair_row(ctx.module.pf, m, ns, k_cut, inv, -dn)
                   for m in ms]


def _pair_row(pf, m, ns, k_cut, inv, window):
    """Pair one motive row against several comotive columns, sharing the
    k-power chain (-tau)*m*phi(t)^-k across the columns.

    Starting from -tau (-1 lies in F_q, so it twists as tau does) makes
    each coeff_0 the pairing's coefficient, with no negation after.  Only
    acc-coefficients at tau-exponent >= window = -deg(n) can reach coeff_0
    (the inverse matrix has non-positive degree, n non-negative), so each
    chain product is computed only down to that window, and of each
    pairing product acc*n only coeff_0 is formed (``_coeff0``).

    The chain stops once deg(acc) + D < window, D <= 0 being the degree
    of phi(t)^-1: no later acc has a term at or above the window, and the
    floors stay <= it (``_pair_matrix``), so each skipped coeff_0 is 0.
    """
    minus_tau = SkewLaurent(pf, {1: -pf.one()})
    tau_row = m.map(lambda e: minus_tau * e)
    acc = mat_mul(tau_row, inv, floor=window)
    deg_inv = inv.max_deg_tau()
    terms = [{} for _ in ns]
    for k in range(1, k_cut + 1):
        for idx, n in enumerate(ns):
            c = _coeff0(pf, acc.entries[0], n)
            if c:
                terms[idx][k - 1] = c
        if k == k_cut or acc.max_deg_tau() + deg_inv < window:
            break
        acc = mat_mul(acc, inv, floor=window)
    return [Differential(SPoly(pf, t)) for t in terms]


def _coeff0(pf, row, col):
    """coeff_0 of row * col for an exact column: one twisted sum of
    row_l's coefficient at -j, twisted by -j, times col_l's at j.

    Like ``(row * col).coeff(0)``, it raises a PrecisionError when the
    product's floor, the largest floor(row_l) + deg(col_l) over the
    nonzero col_l, is above 0: some term j of col_l has -j below the
    floor of row_l, which may store no term.
    """
    floor, triples = 0, []
    for a, (b,) in zip(row, col.entries):
        if b.coeffs:
            floor = max(floor, a.floor + max(b.coeffs))
            triples += [(a.coeffs[-j], -j, c) for j, c in b.coeffs.items()
                        if -j in a.coeffs]
    if floor > 0:
        raise PrecisionError(
            "coefficient of tau^0 is below the precision floor {}"
            .format(floor))
    return PerfElement.twisted_sum(pf, triples) if triples else pf.zero()


@dataclass
class GramMatrix:
    """All pairings of the declared bases, with the cut-off used and the
    perfection depth of the coefficients."""

    entries: list  # r x r nested list of Differential
    k_cutoff: int
    b_level: int

    @property
    def rank(self):
        return len(self.entries)

    def __getitem__(self, ij):
        return self.entries[ij[0]][ij[1]]

    def poly_matrix(self):
        return [[e.poly for e in row] for row in self.entries]

    def render(self):
        lines = [" | ".join(str(e.poly) for e in row) + " dt"
                 for row in self.entries]
        return "\n".join(lines + [certificate_line(self,
                                                    check_perfectness(self))])

    def __str__(self):
        return self.render()


def gram(module_or_ctx) -> GramMatrix:
    """The r x r matrix of pairings of declared motive x comotive bases."""
    ctx = _context(module_or_ctx)
    k_cut, entries = _pair_matrix(ctx, ctx.module.motive_basis,
                                  ctx.module.comotive_basis)
    b_level = max((e.max_level() for row in entries for e in row), default=0)
    return GramMatrix(entries=entries, k_cutoff=k_cut, b_level=b_level)


def expand_sesquilinear(g: GramMatrix, a, b) -> Differential:
    """Pair sum_i a_i e_i against sum_j b_j e-check_j through the Gram
    matrix: motive coordinates receive the q-power twist."""
    r = g.rank
    if len(a) != r or len(b) != r:
        raise DimensionError(
            "coordinate vectors must have length {}".format(r))
    pf = g.entries[0][0].poly.ring
    acc = SPoly(pf, {})
    for i in range(r):
        ai = twist(a[i], 1)
        if not ai:
            continue
        for j in range(r):
            if not b[j]:
                continue
            acc = acc + ai * g.entries[i][j].poly * b[j]
    return Differential(acc)


def check_tau_commutation(module_or_ctx, m: SkewMatrix,
                          n: SkewMatrix) -> bool:
    """Verify pair(tau o m, n) == twist(pair(m, n o tau)) exactly."""
    ctx = _context(module_or_ctx)
    pf = ctx.module.pf
    tau = SkewLaurent.tau(pf)
    m_tau = m.map(lambda e: tau * e)
    n_tau = n.map(lambda e: e * tau)
    left = residue_pair(ctx, m_tau, n)
    right = residue_pair(ctx, m, n_tau).twist(1)
    return left == right


@dataclass
class PerfectnessResult:
    status: str  # "perfect" | "not-certified"
    det: SPoly  # over PerfField

    def __bool__(self):
        return self.status == "perfect"


def check_perfectness(g: GramMatrix) -> PerfectnessResult:
    """The pairing restricted to the declared spans is perfect iff the
    Gram determinant is a unit of R^perf[t], i.e. a nonzero t-constant."""
    d = det(g.poly_matrix())
    ok = bool(d) and d.degree() <= 0
    return PerfectnessResult(status="perfect" if ok else "not-certified",
                             det=d)


def certificate_line(g: GramMatrix, cert: PerfectnessResult) -> str:
    """The one-line Gram certificate: cut-off, depth, det and verdict."""
    return "K = {}, b = {}, det = {}, perfect = {}".format(
        g.k_cutoff, g.b_level, cert.det, "yes" if cert else "no")


def pairing_inverse(g: GramMatrix, eta):
    """Solve G b = eta for the comotive coordinates b over R^perf[t].

    Requires the Gram certificate; the determinant is then a unit
    constant, and Cramer's rule gives b_i = det(G_i) / det(G), where G_i
    is G with column i replaced by eta."""
    cert = check_perfectness(g)
    if not cert:
        raise FieldError("gram matrix is not certified perfect")
    r = g.rank
    if len(eta) != r:
        raise DimensionError("eta must have length {}".format(r))
    eta = [e.poly if isinstance(e, Differential) else e for e in eta]
    inv_det = cert.det.coeff(0).inverse()
    mat = g.poly_matrix()
    return [det([row[:i] + [e] + row[i + 1:] for row, e in zip(mat, eta)])
            .scale(inv_det) for i in range(r)]


def measure_b(g: GramMatrix) -> int:
    """Max perfection level over all Gram coefficients: the measured depth
    of q-th roots the pairing values need."""
    return g.b_level


def drinfeld_closed_form(pf, r, g, i, j) -> Differential:
    """Closed form for rank-r Drinfeld pairings of tau^i against tau^j.

    Finite sum over compositions v_1+..+v_n = 1+i+j-r with parts in
    {1..r} and n >= 0; the empty composition contributes the bare -1
    term, and the result is 0 when the target is negative.
    """
    if not (0 <= i < r and 0 <= j < r):
        raise DimensionError("indices must satisfy 0 <= i, j < r")
    g = list(g)
    if len(g) != r or not g[-1]:
        raise FieldError("need g_1..g_r with g_r != 0")
    target = 1 + i + j - r
    if target < 0:
        return Differential(SPoly(pf, {}))
    g_r = g[-1]
    acc = pf.zero()
    for comp in _compositions(target, r):
        n = len(comp)
        term = pf.one()
        suffix = sum(comp)
        for v in comp:
            ratio = g[r - v - 1] / g_r  # g_{r-v} with 1-based g list
            term = term * ratio.q_power_iter(suffix - j)
            suffix -= v
        if n % 2 == 0:
            term = -term  # (-1)^(n+1)
        acc = acc + term
    acc = acc * g_r.inverse().q_power_iter(-j)
    return Differential(SPoly.const(pf, acc))


def _compositions(total, max_part):
    if total == 0:
        yield ()
        return
    for first in range(1, min(max_part, total) + 1):
        for rest in _compositions(total - first, max_part):
            yield (first,) + rest
