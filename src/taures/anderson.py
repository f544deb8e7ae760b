"""Anderson t-modules: axiom validation, the action of F_q[t] and of
negative powers of t, and the convergence constant k1 that turns the
pairing's infinite sum into a finite one.

A module is the data (pf, theta, d, phi_t, declared motive/comotive
bases).  Bases are declared, not computed: the Gram-unit certificate in
the pairing module retroactively certifies them.

Elements of A tensor R, realized as R[t], are ``SPoly`` over
``PerfField``; ``twist`` and ``max_level`` are the two operations the
pairing needs beyond the ring structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional

from .errors import ConvergenceError, DimensionError, FieldError
from .fields import PerfElement, PerfField, SPoly
from .linalg import nilpotency_index
from .skew import SkewLaurent
from .skewmat import SkewMatrix, invert_series_matrix, mat_mul


def twist(poly: SPoly, j=1) -> SPoly:
    """Raise every coefficient of an R[t] (or k[t]) value to the q^j
    power; t is fixed."""
    return poly.map_coeffs(lambda c: c.q_power_iter(j))


def max_level(poly: SPoly) -> int:
    """The deepest perfection level among the coefficients of an R[t]
    value."""
    return max((c.perfection_level() for c in poly.terms.values()),
               default=0)


class Differential:
    """An element of Omega tensor R realized as R[t] dt.

    The tau-action raises coefficients to the q-th power and fixes t.
    """

    __slots__ = ("poly",)

    def __init__(self, poly: SPoly):
        self.poly = poly

    def __eq__(self, other):
        return isinstance(other, Differential) and self.poly == other.poly

    def __hash__(self):
        return hash(self.poly)

    def __bool__(self):
        return bool(self.poly)

    def scale(self, a):
        if isinstance(a, SPoly):
            return Differential(self.poly * a)
        return Differential(self.poly.scale(a))

    def twist(self, j=1):
        return Differential(twist(self.poly, j))

    def max_level(self):
        return max_level(self.poly)

    def __str__(self):
        return "{} dt".format(self.poly)

    def __repr__(self):
        return "Differential({})".format(self)


@dataclass
class ValidationReport:
    failure: Optional[str] = None
    checks: list = dc_field(default_factory=list)

    @property
    def ok(self):
        return self.failure is None

    def __str__(self):
        lines = ["{}: {}".format("pass" if ok else "FAIL", name)
                 for name, ok in self.checks]
        head = "valid" if self.ok else "invalid: {}".format(self.failure)
        return "\n".join([head] + lines)


@dataclass
class AndersonModule:
    """An Anderson t-module with declared motive/comotive bases.

    phi_t is a d x d matrix over R[tau]; motive_basis entries are 1 x d
    rows, comotive_basis entries d x 1 columns, both over R[tau].
    """

    pf: PerfField
    theta: PerfElement
    dim: int
    phi_t: SkewMatrix
    motive_basis: list
    comotive_basis: list
    name: str = ""

    @property
    def rank(self):
        return len(self.motive_basis)

    def max_basis_deg(self):
        dm = max((row.deg_or_zero() for row in self.motive_basis),
                 default=0)
        dn = max((col.deg_or_zero() for col in self.comotive_basis),
                 default=0)
        return dm, dn


def validate(module: AndersonModule) -> ValidationReport:
    """Check the module axioms; diagnostics are returned, never thrown."""
    checks = []
    failure = None

    d = module.dim
    ok_shape = (module.phi_t.rows == d and module.phi_t.cols == d)
    checks.append(("phi_t is {0}x{0}".format(d), ok_shape))
    if not ok_shape and failure is None:
        failure = "phi_t has shape {}x{}, expected {}x{}".format(
            module.phi_t.rows, module.phi_t.cols, d, d)

    ok_sigma = module.phi_t.sigma_free() and module.phi_t.is_exact()
    checks.append(("phi_t lies in R[tau]", ok_sigma))
    if not ok_sigma and failure is None:
        failure = "phi(t) must lie in R[tau] (no sigma terms)"

    ok_len = len(module.motive_basis) == len(module.comotive_basis) \
        and len(module.motive_basis) >= 1
    checks.append(("basis lengths match and are >= 1", ok_len))
    if not ok_len and failure is None:
        failure = "motive basis has {} rows, comotive {} columns".format(
            len(module.motive_basis), len(module.comotive_basis))

    ok_rows = all(b.rows == 1 and b.cols == d for b in module.motive_basis)
    ok_cols = all(b.rows == d and b.cols == 1 for b in module.comotive_basis)
    checks.append(("basis shapes are 1x{0} rows / {0}x1 columns".format(d),
                   ok_rows and ok_cols))
    if not (ok_rows and ok_cols) and failure is None:
        failure = "basis entries have wrong shape"

    ok_basis = all(b.sigma_free() and b.is_exact()
                   for b in module.motive_basis + module.comotive_basis)
    checks.append(("bases lie in R[tau]", ok_basis))
    if not ok_basis and failure is None:
        failure = "basis entries must lie in R[tau]"

    nilpotent = False
    if ok_shape and ok_sigma:
        # constant term of phi_t minus theta*I must be nilpotent
        pf = module.pf
        n0 = [[module.phi_t[i, j].coeff(0) -
               (module.theta if i == j else pf.zero())
               for j in range(d)] for i in range(d)]
        nilpotent = nilpotency_index(n0, pf.zero(), d) is not None
    checks.append(("Lie(t) - theta is nilpotent", nilpotent))
    if not nilpotent and failure is None:
        failure = "constant term of phi(t) minus theta*I is not nilpotent"

    return ValidationReport(failure=failure, checks=checks)


def phi_of_poly(module: AndersonModule, a: SPoly) -> SkewMatrix:
    """Extend phi to F_q[t]: evaluate a at phi_t, constants embed as c*I."""
    pf = module.pf
    d = module.dim
    for e, c in a.terms.items():
        if not c.is_constant():
            raise FieldError(
                "phi only extends to F_q[t]; coefficient of t^{} is {}"
                .format(e, c))
    result = SkewMatrix.zeros(pf, d, d)
    power = SkewMatrix.identity(pf, d)
    for e in range(a.degree() + 1):
        c = a.coeff(e)
        if c:
            scal = SkewLaurent.scalar(pf, c)
            result = result + power.map(lambda x, s=scal: s * x)
        if e < a.degree():
            power = mat_mul(power, module.phi_t)
    return result


def phi_inverse_power(module: AndersonModule, k, precision) -> SkewMatrix:
    """Phi(t)^-k to the requested precision, from one deep-enough inverse.

    If phi(t)^-1 has floor -W and tau-degree at most D >= 0, its k-th
    power has floor <= -W + (k - 1)*D, so W = precision + (k - 1)*D
    suffices.  D is read off the inverse at ``precision``.
    """
    if k < 1:
        raise DimensionError("k must be >= 1")
    inv = invert_series_matrix(module.phi_t, precision)
    work = precision + (k - 1) * int(max(inv.max_deg_tau(), 0))
    if work > precision:
        inv = invert_series_matrix(module.phi_t, work)
    acc = inv
    for _ in range(k - 1):
        acc = mat_mul(acc, inv)
    return acc.truncate(-precision)


# the sigma-precision find_k1 inverts phi(t) at, and its default search cap
_K1_PRECISION = 3
K1_CAP = 64


def find_k1(module: AndersonModule, cap=K1_CAP):
    """Least k1 <= cap with every entry of phi(t)^-k1 of tau-degree < 0.

    Submultiplicativity of the norm then gives phi(t)^(-k1*j) tau-degree
    at most -j, the pairing's termination bound.
    When phi(t)^-1 has no positive tau-degree (D <= 0), neither has any
    power of it, so the test is whether coeff_0 of every entry vanishes;
    only coefficient-0 terms meet at exponent 0, untwisted, so
    coeff_0(phi^-k) = C0^k for C0 = coeff_0(phi(t)^-1), an ordinary
    matrix power over the field R^perf.  k1 is then the nilpotency index
    of C0, which is at most dim: if C0^dim != 0, no k1 exists at all.
    For D > 0 each power is rebuilt by ``phi_inverse_power`` at
    precision 1, from an inversion deep enough for it.
    """
    inv = invert_series_matrix(module.phi_t, _K1_PRECISION)
    if inv.max_deg_tau() <= 0:
        c0 = [[e.coeff(0) for e in row] for row in inv.entries]
        dim = module.dim
        k1 = nilpotency_index(c0, module.pf.zero(), min(cap, dim))
        if k1 is not None:
            return k1
        if cap >= dim:
            raise ConvergenceError(
                "C0 = coeff_0(phi(t)^-1) is not nilpotent: C0^{} != 0 at "
                "dim {}, so no k1 exists".format(dim, dim))
    else:
        acc = inv
        for k in range(1, cap + 1):
            if acc.max_deg_tau() < 0:
                return k
            acc = phi_inverse_power(module, k + 1, 1)
    raise ConvergenceError(
        "convergence not certified within cap {}".format(cap))


def termination_bound(module: AndersonModule, k1) -> int:
    """Cut-off K for the pairing sums.

    K = k1 * (2 + max deg_tau over motive basis + same over comotive),
    extended when phi(t)^-1 has entries of positive tau-degree (never the
    case in the built-in examples) so the vanishing bound stays valid.
    """
    dm, dn = module.max_basis_deg()
    base = 2 + dm + dn
    d = invert_series_matrix(module.phi_t, 2).max_deg_tau()
    slack = (k1 - 1) * d if d > 0 else 0
    return k1 * (base + slack)


# --- built-in example constructors ---

def drinfeld(pf: PerfField, theta: PerfElement, g,
             name="drinfeld") -> AndersonModule:
    """Drinfeld module of rank r: phi(t) = theta + g_1 tau + .. + g_r tau^r,
    with standard bases (1, tau, .., tau^(r-1)) on both sides."""
    g = list(g)
    r = len(g)
    if r < 1 or not g[-1]:
        raise FieldError("drinfeld module needs g_r != 0")
    terms = [(theta, 0)] + [(gi, i + 1) for i, gi in enumerate(g)]
    phi = SkewMatrix(pf, [[SkewLaurent.from_left_coeffs(pf, terms)]])
    motive = [SkewMatrix(pf, [[SkewLaurent.tau(pf, i) if i else
                               SkewLaurent.one(pf)]]) for i in range(r)]
    comotive = [SkewMatrix(pf, [[SkewLaurent.tau(pf, j) if j else
                                 SkewLaurent.one(pf)]]) for j in range(r)]
    return AndersonModule(pf=pf, theta=theta, dim=1, phi_t=phi,
                          motive_basis=motive, comotive_basis=comotive,
                          name=name)


def carlitz(pf: PerfField, theta: PerfElement):
    """The Carlitz module: phi(t) = theta + tau."""
    return drinfeld(pf, theta, [pf.one()], name="carlitz")


def carlitz_tensor(pf: PerfField, theta: PerfElement, d) -> AndersonModule:
    """d-th tensor power of the Carlitz module in canonical coordinates:
    theta on the diagonal, 1 on the superdiagonal, tau in the corner;
    motive basis projection-to-first, comotive basis inclusion-at-last."""
    if d < 1:
        raise DimensionError("tensor power must be >= 1")
    zero = SkewLaurent.zero(pf)
    one = SkewLaurent.one(pf)
    ent = [[zero for _ in range(d)] for _ in range(d)]
    for i in range(d):
        ent[i][i] = SkewLaurent.scalar(pf, theta)
        if i + 1 < d:
            ent[i][i + 1] = one
    ent[d - 1][0] = ent[d - 1][0] + SkewLaurent.tau(pf)
    phi = SkewMatrix(pf, ent)
    motive = [SkewMatrix(pf, [[one if j == 0 else zero for j in range(d)]])]
    comotive = [SkewMatrix(pf, [[one] if i == d - 1 else [zero]
                                for i in range(d)])]
    return AndersonModule(pf=pf, theta=theta, dim=d, phi_t=phi,
                          motive_basis=motive, comotive_basis=comotive,
                          name="carlitz-tensor-{}".format(d))


def maurischat(pf: PerfField, theta: PerfElement) -> AndersonModule:
    """The dimension-2, rank-3 module with
    phi(t) = [[theta + tau^2, tau^3], [1 + tau, theta + tau^2]] and the
    declared bases e = (tau k2, k2, k1), e-check = (k1 tau, k1, k2)."""
    zero = SkewLaurent.zero(pf)
    one = SkewLaurent.one(pf)
    tau = SkewLaurent.tau(pf)
    th = SkewLaurent.scalar(pf, theta)
    phi = SkewMatrix(pf, [
        [th + SkewLaurent.tau(pf, 2), SkewLaurent.tau(pf, 3)],
        [one + tau, th + SkewLaurent.tau(pf, 2)],
    ])
    k1_row = [one, zero]
    k2_row = [zero, one]
    motive = [
        SkewMatrix(pf, [[tau * e for e in k2_row]]),   # e1 = tau k2
        SkewMatrix(pf, [k2_row]),                      # e2 = k2
        SkewMatrix(pf, [k1_row]),                      # e3 = k1
    ]
    comotive = [
        SkewMatrix(pf, [[tau], [zero]]),               # e1-check = k1 tau
        SkewMatrix(pf, [[one], [zero]]),               # e2-check = k1
        SkewMatrix(pf, [[zero], [one]]),               # e3-check = k2
    ]
    return AndersonModule(pf=pf, theta=theta, dim=2, phi_t=phi,
                          motive_basis=motive, comotive_basis=comotive,
                          name="maurischat")
