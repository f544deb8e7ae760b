"""Residue pairing: golden values, Gram certification, the closed form
for rank-r modules, sesquilinear expansion, and the inverse map."""

import random
import time

import pytest

from taures import anderson, pairing, skewmat
from taures.anderson import (Differential, carlitz, carlitz_tensor,
                             drinfeld, find_k1, maurischat)
from taures.errors import FieldError, PrecisionError
from taures.fields import Fq, PerfElement, PerfField, SPoly
from taures.pairing import (PairingContext, check_perfectness,
                            check_tau_commutation, drinfeld_closed_form,
                            expand_sesquilinear, gram, measure_b,
                            pairing_inverse, residue_pair)
from taures.parsing import parse_manifest
from taures.skew import SkewLaurent
from taures.skewmat import SkewMatrix, invert_series_matrix, mat_mul

from conftest import (maurischat_display, pair_row_reference,
                      positive_degree_manifest, rand_fq, rand_perf,
                      rand_skew)


def minus_dt(pf):
    return Differential(SPoly.const(pf, -(pf.one())))


def row(pf, entries):
    return SkewMatrix(pf, [entries])


def col(pf, entries):
    return SkewMatrix(pf, [[e] for e in entries])


class TestCarlitz:
    def test_identity_pairing(self, pf2, pf3, pf4):
        for pf in (pf2, pf3, pf4):
            E = carlitz(pf, pf.theta())
            d = residue_pair(E, E.motive_basis[0], E.comotive_basis[0])
            assert d == minus_dt(pf)

    def test_tau_against_identity(self, pf3):
        th = pf3.theta()
        E = carlitz(pf3, th)
        d = residue_pair(E, row(pf3, [SkewLaurent.tau(pf3)]),
                         E.comotive_basis[0])
        expected = Differential(SPoly(pf3, {0: th.q_pow(),
                                            1: -(pf3.one())}))
        assert d == expected


class TestCarlitzTensor:
    def test_gram_is_minus_dt(self, pf2, pf3):
        for pf in (pf2, pf3):
            for d in (1, 2, 3, 4, 5):
                E = carlitz_tensor(pf, pf.theta(), d)
                g = gram(E)
                assert g.rank == 1
                assert g[0, 0] == minus_dt(pf)
                assert g.b_level == 0


class TestMaurischat:
    def test_inverse_coefficients(self, pf3):
        """The sigma^0 and sigma^1 coefficients of phi(t)^-1 on which the
        signs of maurischat_display rest, as literals."""
        E = maurischat(pf3, pf3.theta())
        x = invert_series_matrix(E.phi_t, 2)
        one, zero = pf3.one(), pf3.zero()
        c0 = [[x[i, j].coeff(0) for j in range(2)] for i in range(2)]
        assert c0 == [[zero, one], [zero, zero]]
        assert x[0, 0].coeff(-1) == -one
        assert x[1, 1].coeff(-1) == -one
        assert x[1, 0].coeff(-1) == zero

    def test_gram_regression(self, pf2, pf3):
        for pf in (pf2, pf3):
            E = maurischat(pf, pf.theta())
            g = gram(E)
            expected = maurischat_display(pf)
            for i in range(3):
                for j in range(3):
                    assert g[i, j] == expected[i][j], (i, j)
            assert g.b_level == 0
            assert measure_b(g) == 0

    def test_gram_symmetric(self, pf3):
        g = gram(maurischat(pf3, pf3.theta()))
        for i in range(3):
            for j in range(3):
                assert g[i, j] == g[j, i]

    def test_perfectness(self, pf2, pf3):
        for pf in (pf2, pf3):
            g = gram(maurischat(pf, pf.theta()))
            cert = check_perfectness(g)
            assert cert.status == "perfect"
            # det is the t-constant +1, as for maurischat_display
            assert cert.det == SPoly.const(pf, pf.one())


class TestClosedForm:
    def test_carlitz_value(self, pf3):
        assert drinfeld_closed_form(pf3, 1, [pf3.one()], 0, 0) == \
            minus_dt(pf3)

    def test_rank2_truncation(self, pf3):
        g = [pf3.one(), pf3.theta()]
        assert not drinfeld_closed_form(pf3, 2, g, 0, 0)

    def test_rank2_top_corner(self, pf3):
        th = pf3.theta()
        g = [pf3.one(), th]
        d = drinfeld_closed_form(pf3, 2, g, 1, 1)
        # (g1/g2) * dt / g2^(q^-1) with g1 = 1, g2 = theta
        expect = Differential(SPoly.const(
            pf3, (pf3.one() / th) * (pf3.one() / th.q_root())))
        assert d == expect

    def test_rank2_gram_antidiagonal(self, pf3):
        # entry (0,0) vanishes; the i+j = 1 entries are -dt / g2^(q^-j)
        th = pf3.theta()
        E = drinfeld(pf3, th, [pf3.one(), th])
        G = gram(E)
        assert not G[0, 0]
        for i, j in ((0, 1), (1, 0)):
            expect = Differential(SPoly.const(
                pf3, -(pf3.one() / th.q_power_iter(-j))))
            assert G[i, j] == expect

    def test_matches_series_small(self, pf2, pf3):
        rng = random.Random(51)
        for pf in (pf2, pf3):
            for r in (1, 2, 3):
                g = [rand_perf(rng, pf) for _ in range(r - 1)]
                g.append(pf.theta() + pf.one() if pf is pf2 and r <= 2
                         else pf.theta())
                E = drinfeld(pf, pf.theta(), g)
                ctx = PairingContext(E)
                for i in range(r):
                    for j in range(r):
                        assert drinfeld_closed_form(pf, r, g, i, j) == \
                            residue_pair(ctx, E.motive_basis[i],
                                         E.comotive_basis[j])

    def test_family_rank_5_and_6(self, pf2, pf3):
        # the family g_1..g_{r-1} = theta + 1, g_r = theta; each gram
        # should take well under a second at these ranks
        start = time.perf_counter()
        for pf in (pf2, pf3, PerfField(Fq(5))):
            th = pf.theta()
            for r in (5, 6):
                g = [th + pf.one()] * (r - 1) + [th]
                G = gram(drinfeld(pf, th, g))
                for i in range(r):
                    for j in range(r):
                        assert G[i, j] == drinfeld_closed_form(pf, r, g, i, j)
                assert check_perfectness(G).status == "perfect"
        assert time.perf_counter() - start < 20.0

    def test_index_errors(self, pf3):
        with pytest.raises(Exception):
            drinfeld_closed_form(pf3, 2, [pf3.one(), pf3.one()], 2, 0)
        with pytest.raises(FieldError):
            drinfeld_closed_form(pf3, 2, [pf3.one(), pf3.zero()], 0, 0)


def carlitz_closed_form(pf, i, j):
    """pair(tau^i, tau^j) on the Carlitz module, read off its motive:
    -prod_{a=1..i} (t - theta^(q^a)) * prod_{b=0..j-1} (t - theta^(q^-b)) dt.
    """
    t = SPoly.gen(pf)
    value = SPoly.const(pf, -pf.one())
    th = pf.theta()
    for a in range(1, i + 1):
        value = value * (t - SPoly.const(pf, th.q_power_iter(a)))
    for b in range(j):
        value = value * (t - SPoly.const(pf, th.q_power_iter(-b)))
    return Differential(value)


CARLITZ_FIELDS = {2: Fq(2), 3: Fq(3), 4: Fq(4, [1, 1, 1]), 5: Fq(5),
                  9: Fq(9, [1, 0, 1])}


@pytest.mark.parametrize("q, top", [(2, 6), (3, 6), (4, 4), (5, 4), (9, 4)])
def test_carlitz_closed_form(q, top):
    # an oracle for the pairing chain that shares no step with it
    pf = PerfField(CARLITZ_FIELDS[q])
    ctx = PairingContext(carlitz(pf, pf.theta()))
    for i in range(top + 1):
        for j in range(top + 1):
            value = residue_pair(ctx, row(pf, [SkewLaurent.tau(pf, i)]),
                                 col(pf, [SkewLaurent.tau(pf, j)]))
            assert value == carlitz_closed_form(pf, i, j), (i, j)


class TestSesquilinear:
    def test_unit_vectors_recover_entries(self, pf3):
        E = maurischat(pf3, pf3.theta())
        g = gram(E)
        zero = SPoly(pf3, {})
        one = SPoly.const(pf3, pf3.one())
        for i in range(3):
            for j in range(3):
                a = [one if k == i else zero for k in range(3)]
                b = [one if k == j else zero for k in range(3)]
                assert expand_sesquilinear(g, a, b) == g[i, j]

    def test_carlitz_twist(self, pf3):
        th = pf3.theta()
        E = carlitz(pf3, th)
        g = gram(E)
        a = [SPoly(pf3, {1: pf3.one(), 0: -th})]
        b = [SPoly.const(pf3, pf3.one())]
        got = expand_sesquilinear(g, a, b)
        direct = residue_pair(E, row(pf3, [SkewLaurent.tau(pf3)]),
                              E.comotive_basis[0])
        assert got == direct

    def test_scaling_is_twisted(self, pf3):
        # scaling a motive coordinate by c scales the output by c^q
        rng = random.Random(52)
        E = maurischat(pf3, pf3.theta())
        g = gram(E)
        one = SPoly.const(pf3, pf3.one())
        zero = SPoly(pf3, {})
        b = [one, one, zero]
        ref = expand_sesquilinear(g, [one, zero, zero], b)
        for _ in range(10):
            c = rand_perf(rng, pf3)
            scaled = expand_sesquilinear(
                g, [SPoly.const(pf3, c), zero, zero], b)
            assert scaled == ref.scale(c.q_pow())

    def test_matches_residue_on_random_coordinates(self, pf2, pf3):
        # t-degree <= 2 coordinates on rank 1, t-degree <= 1 on rank 2:
        # the required sigma-depth grows like rank * t-degree and the
        # series coefficients densify with it
        from taures.anderson import phi_of_poly
        rng = random.Random(53)
        for pf in (pf2, pf3):
            cases = [(drinfeld(pf, pf.theta(), [pf.one()]), 2),
                     (drinfeld(pf, pf.theta(), [pf.one(), pf.theta()]), 1)]
            for E, max_deg in cases:
                r = E.rank
                ctx = PairingContext(E)
                g = gram(ctx)
                for _ in range(4):
                    a = [SPoly(pf, {e: pf.from_fq(rand_fq(rng, pf.fq))
                                    for e in range(max_deg + 1)})
                         for _ in range(r)]
                    b = [SPoly(pf, {e: pf.from_fq(rand_fq(rng, pf.fq))
                                    for e in range(max_deg + 1)})
                         for _ in range(r)]
                    via_gram = expand_sesquilinear(g, a, b)
                    m_acc = SkewMatrix.zeros(pf, 1, 1)
                    n_acc = SkewMatrix.zeros(pf, 1, 1)
                    for i in range(r):
                        m_acc = m_acc + mat_mul(E.motive_basis[i],
                                                phi_of_poly(E, a[i]))
                        n_acc = n_acc + mat_mul(phi_of_poly(E, b[i]),
                                                E.comotive_basis[i])
                    assert via_gram == residue_pair(ctx, m_acc, n_acc)

    def test_matches_residue_constant_coordinates(self, pf3):
        rng = random.Random(57)
        E = maurischat(pf3, pf3.theta())
        ctx = PairingContext(E)
        g = gram(ctx)
        for _ in range(5):
            a = [SPoly.const(pf3, rand_perf(rng, pf3)) for _ in range(3)]
            b = [SPoly.const(pf3, rand_perf(rng, pf3)) for _ in range(3)]
            via_gram = expand_sesquilinear(g, a, b)
            m_acc = SkewMatrix.zeros(pf3, 1, 2)
            n_acc = SkewMatrix.zeros(pf3, 2, 1)
            for i in range(3):
                c = a[i].coeff(0)
                scal = SkewLaurent.scalar(pf3, c)
                m_acc = m_acc + E.motive_basis[i].map(
                    lambda e, s=scal: s * e)
                cb = SkewLaurent.scalar(pf3, b[i].coeff(0))
                n_acc = n_acc + E.comotive_basis[i].map(
                    lambda e, s=cb: e * s)
            assert via_gram == residue_pair(ctx, m_acc, n_acc)


class TestTauCommutation:
    def test_carlitz_identity(self, pf3):
        E = carlitz(pf3, pf3.theta())
        assert check_tau_commutation(E, E.motive_basis[0],
                                     E.comotive_basis[0])

    def test_maurischat_basis_pairs(self, pf3):
        E = maurischat(pf3, pf3.theta())
        ctx = PairingContext(E)
        for m in E.motive_basis:
            for n in E.comotive_basis:
                assert check_tau_commutation(ctx, m, n)

    def test_random_drinfeld(self, pf2, pf3):
        rng = random.Random(54)
        for pf in (pf2, pf3):
            for _ in range(5):
                r = rng.randint(1, 3)
                g = [rand_perf(rng, pf) for _ in range(r - 1)] + [pf.theta()]
                E = drinfeld(pf, pf.theta(), g)
                ctx = PairingContext(E)
                m = row(pf, [rand_skew(rng, pf, lo=0, hi=2)])
                n = col(pf, [rand_skew(rng, pf, lo=0, hi=2)])
                assert check_tau_commutation(ctx, m, n)


class TestBilinearity:
    def test_t_bilinear_and_sesquilinear(self, pf3):
        from taures.anderson import phi_of_poly
        rng = random.Random(55)
        for E in (carlitz(pf3, pf3.theta()),
                  carlitz_tensor(pf3, pf3.theta(), 2),
                  maurischat(pf3, pf3.theta())):
            ctx = PairingContext(E)
            t_mat = phi_of_poly(E, SPoly.gen(pf3))
            for _ in range(5):
                m = E.motive_basis[rng.randrange(E.rank)]
                n = E.comotive_basis[rng.randrange(E.rank)]
                base = residue_pair(ctx, m, n)
                t_poly = SPoly.gen(pf3)
                assert residue_pair(ctx, mat_mul(m, t_mat), n) == \
                    base.scale(t_poly)
                assert residue_pair(ctx, m, mat_mul(t_mat, n)) == \
                    base.scale(t_poly)
                c = rand_perf(rng, pf3)
                scal = SkewLaurent.scalar(pf3, c)
                m_scaled = m.map(lambda e: scal * e)
                n_scaled = n.map(lambda e: scal * e)
                assert residue_pair(ctx, m_scaled, n) == \
                    base.scale(c.q_pow())
                assert residue_pair(ctx, m, n_scaled) == base.scale(c)


class TestPerfectnessAndInverse:
    def test_drinfeld_det_formula(self, pf3):
        th = pf3.theta()
        for r in (1, 2, 3):
            g = [pf3.one()] * (r - 1) + [th]
            E = drinfeld(pf3, th, g)
            G = gram(E)
            cert = check_perfectness(G)
            assert cert.status == "perfect"
            prod = pf3.one()
            for j in range(r):
                prod = prod * (pf3.one() / th.q_power_iter(-j))
            det_c = cert.det.coeff(0)
            assert det_c == prod or det_c == -prod

    def test_measure_b(self, pf3):
        th = pf3.theta()
        assert measure_b(gram(carlitz(pf3, th))) == 0
        E = drinfeld(pf3, th, [pf3.one(), th])
        assert measure_b(gram(E)) == 1

    def test_pairing_inverse_columns(self, pf3):
        E = maurischat(pf3, pf3.theta())
        G = gram(E)
        one = SPoly.const(pf3, pf3.one())
        zero = SPoly(pf3, {})
        for j in range(3):
            eta = [G[i, j] for i in range(3)]
            b = pairing_inverse(G, eta)
            assert b == [one if k == j else zero for k in range(3)]

    def test_pairing_inverse_carlitz(self, pf3):
        E = carlitz(pf3, pf3.theta())
        G = gram(E)
        b = pairing_inverse(G, [minus_dt(pf3)])
        assert b == [SPoly.const(pf3, pf3.one())]

    def test_pairing_inverse_round_trip(self, pf3):
        # Cramer's rule on dense and sparse Grams: Maurischat, Drinfeld
        # r = 3, 4 (zero above the anti-diagonal) and carlitz-tensor d = 3
        rng = random.Random(56)
        th, one = pf3.theta(), pf3.one()
        modules = [maurischat(pf3, th), carlitz_tensor(pf3, th, 3)]
        modules += [drinfeld(pf3, th, [th + one] * (r - 1) + [th])
                    for r in (3, 4)]
        for E in modules:
            G = gram(E)
            mat = G.poly_matrix()
            r = G.rank
            for _ in range(5):
                b = [SPoly(pf3, {e: pf3.from_fq(rand_fq(rng, pf3.fq))
                                 for e in range(2)}) for _ in range(r)]
                eta = []
                for i in range(r):
                    acc = SPoly(pf3, {})
                    for j in range(r):
                        acc = acc + mat[i][j] * b[j]
                    eta.append(acc)
                assert pairing_inverse(G, eta) == b, E.name

    def test_not_certified_rejected(self, pf3):
        from taures.pairing import GramMatrix
        zero = Differential(SPoly(pf3, {}))
        G = GramMatrix(entries=[[zero]], k_cutoff=2, b_level=0)
        with pytest.raises(FieldError):
            pairing_inverse(G, [zero])


@pytest.mark.parametrize("bad", ["sigma", "two-columns"])
def test_invalid_declared_basis_is_refused(pf2, bad):
    # validate checks the declared bases' shapes and R[tau] membership
    # when the context is built, before any pairing
    E = carlitz(pf2, pf2.theta())
    one = SkewLaurent.one(pf2)
    if bad == "sigma":
        E.motive_basis = [row(pf2, [SkewLaurent.sigma(pf2)])]
    else:
        E.motive_basis = [row(pf2, [one, one])]
    m, n = row(pf2, [one]), col(pf2, [one])
    for call in (gram, lambda E: residue_pair(E, m, n)):
        with pytest.raises(FieldError, match="module does not validate"):
            call(E)


def test_gram_render(pf2):
    E = carlitz(pf2, pf2.theta())
    g = gram(E)
    assert g.render() == "1 dt\nK = 2, b = 0, det = 1, perfect = yes"


def test_values_are_spoly_over_perffield(pf3):
    # one sparse polynomial type: pairing values, Gram entries and the
    # Gram determinant all live in R^perf[t] = SPoly over PerfField
    E = maurischat(pf3, pf3.theta())
    g = gram(E)
    tau = SkewLaurent.tau(pf3)
    value = residue_pair(E, row(pf3, [tau, tau]), col(pf3, [tau, tau]))
    polys = [e.poly for r in g.entries for e in r] + [
        check_perfectness(g).det, value.poly]
    assert all(isinstance(p, SPoly) and p.ring is pf3 for p in polys)


def test_truncated_products_skip_discarded_terms(pf2, pf3, monkeypatch):
    """Deterministic operation counts: coefficient products made by the
    windowed k1 chain and by one pairing chain.  Forming every term pair
    before dropping those below the floor took 15145 and 545."""
    calls = [0]
    original = PerfElement.__mul__

    def counted(self, other):
        calls[0] += 1
        return original(self, other)

    monkeypatch.setattr(PerfElement, "__mul__", counted)

    def count(fn, *args):
        calls[0] = 0
        fn(*args)
        return calls[0]

    tensor = carlitz_tensor(pf3, pf3.theta(), 8)
    assert count(find_k1, tensor) <= 764
    ctx = PairingContext(carlitz(pf2, pf2.theta()))
    tau4 = SkewLaurent.tau(pf2, 4)
    assert count(residue_pair, ctx, row(pf2, [tau4]), col(pf2, [tau4])) \
        <= 213


def test_pair_chain_adds_no_perf_elements(pf2, monkeypatch):
    """Each coefficient of a chain product is one fused sum, so the chain
    of a Carlitz tau^6 pair makes no PerfElement sum; the fold of
    products made 286."""
    ctx = PairingContext(carlitz(pf2, pf2.theta()))
    tau6 = SkewLaurent.tau(pf2, 6)
    ctx.inverse_at(2 + 6 + 6)
    calls = [0]
    original = PerfElement._sum

    def counted(self, other, op):
        calls[0] += 1
        return original(self, other, op)

    monkeypatch.setattr(PerfElement, "_sum", counted)
    value = residue_pair(ctx, row(pf2, [tau6]), col(pf2, [tau6]))
    assert calls[0] == 0
    monkeypatch.undo()
    assert value == carlitz_closed_form(pf2, 6, 6)


def test_gram_kernel_counts(pf3, monkeypatch):
    """Deterministic counts for one carlitz-tensor d = 8, q = 3 `gram`:
    polynomial gcds, elimination passes and PerfElement constructions.
    Denominators there are units or theta-powers, which need no gcd;
    pivots sized from the target reach it in one pass, and the
    pairing's inverse at precision 3 serves find_k1 and
    termination_bound after it.
    Products over theta-power denominators summed in one numerator, a
    fused scalar recurrence and row updates that touch only the columns
    right of the pivot took the constructions from 1437 to 794; three
    passes, one per inversion, made 3957; before that, 2967 gcds, 6
    passes and 5743 constructions."""
    counts = {"gcd": 0, "eliminate": 0, "init": 0}

    def counted(owner, name, key):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    tensor = carlitz_tensor(pf3, pf3.theta(), 8)
    counted(SPoly, "gcd", "gcd")
    counted(skewmat, "_eliminate", "eliminate")
    counted(PerfElement, "__init__", "init")
    gram(tensor)
    assert counts["gcd"] == 0
    assert counts["eliminate"] <= 1
    assert counts["init"] <= 794


def _tensor_pair(pf, d, k):
    """The carlitz-tensor pair of tau^k in the first coordinate against
    tau^k in the last."""
    zero, tk = SkewLaurent.zero(pf), SkewLaurent.tau(pf, k)
    return (carlitz_tensor(pf, pf.theta(), d),
            row(pf, [tk] + [zero] * (d - 1)),
            col(pf, [zero] * (d - 1) + [tk]))


@pytest.mark.parametrize("case", ["maurischat", "drinfeld-4",
                                  "tensor-3-pair", "tensor-8"])
def test_gram_eliminates_once(pf3, case, monkeypatch):
    """The pairing inverts phi(t) first, at max(2 + dm + dn, 3): 4 for
    Maurischat, 2r = 8 for rank 4, 6 for a carlitz-tensor pair of tau^2,
    3 for a carlitz-tensor gram.  find_k1 and termination_bound then read
    truncations of it: one elimination pass, where asking at 3 first
    made two."""
    th = pf3.theta()
    if case == "maurischat":
        args = (maurischat(pf3, th),)
    elif case == "drinfeld-4":
        args = (drinfeld(pf3, th, [th + pf3.one()] * 3 + [th]),)
    elif case == "tensor-3-pair":
        args = _tensor_pair(pf3, 3, 2)
    else:
        args = (carlitz_tensor(pf3, th, 8),)
    passes = [0]
    eliminate = skewmat._eliminate

    def counted(phi, work):
        passes[0] += 1
        return eliminate(phi, work)

    monkeypatch.setattr(skewmat, "_eliminate", counted)
    (residue_pair if len(args) == 3 else gram)(*args)
    assert passes[0] == 1


@pytest.fixture
def inversions(monkeypatch):
    """Records (module, precision) of every phi(t) inversion that
    `anderson` and `pairing` make."""
    calls = []
    for mod in (anderson, pairing):
        def recorded(phi, precision, name=mod.__name__):
            calls.append((name, precision))
            return invert_series_matrix(phi, precision)
        monkeypatch.setattr(mod, "invert_series_matrix", recorded)
    return calls


def test_gram_inverts_phi_three_times(pf3, inversions):
    # deepest first: the pairing at 2 + dm + dn = 2r, then find_k1 at 3
    # and termination_bound at 2, both truncations of it
    th = pf3.theta()
    for r in (2, 3, 4):
        inversions.clear()
        gram(drinfeld(pf3, th, [th + pf3.one()] * (r - 1) + [th]))
        assert [p for _, p in inversions] == [2 * r, 3, 2], r


def test_pair_inverts_phi_three_times(pf2, inversions):
    # the context certifies k1 on first use, after the pair's request at
    # 2 + 2k, so find_k1 and termination_bound read truncations of it
    for k in (1, 2, 3):
        inversions.clear()
        ctx = PairingContext(carlitz(pf2, pf2.theta()))
        tk = SkewLaurent.tau(pf2, k)
        residue_pair(ctx, row(pf2, [tk]), col(pf2, [tk]))
        assert [p for _, p in inversions] == [2 + 2 * k, 3, 2], k
        inversions.clear()
        residue_pair(*_tensor_pair(pf2, 3, k))
        assert [p for _, p in inversions] == [2 + 2 * k, 3, 2], k


@pytest.mark.parametrize("q", [2, 3, 5])
def test_positive_degree_inverse_is_refused_once(q, inversions):
    # phi(t)^-1 of tau-degree 1 has no pairing precision that certifies
    # coeff_0; the pairing inverts once, at find_k1's precision 3 above
    # its own 2, and names the degree before k1 is read
    E = parse_manifest(positive_degree_manifest(q)).module
    pf = E.pf
    m = row(pf, [SkewLaurent.one(pf), SkewLaurent.zero(pf)])
    n = col(pf, [SkewLaurent.one(pf), SkewLaurent.zero(pf)])
    for call in (gram, lambda ctx: residue_pair(ctx, m, n)):
        ctx = PairingContext(E)
        inversions.clear()
        with pytest.raises(PrecisionError, match="tau-degree 1 > 0"):
            call(ctx)
        assert inversions == [("taures.pairing", 3)]


def _chain_modules(q):
    """The four families at q, and seeded Drinfeld modules of rank 1-4.
    Their leading coefficients are monomials: inverting past a two-term
    one costs exponentially in precision (README, "Performance notes")."""
    pf = PerfField(Fq(q))
    th = pf.theta()
    modules = [carlitz(pf, th), maurischat(pf, th),
               carlitz_tensor(pf, th, 2), carlitz_tensor(pf, th, 3)]
    modules += [drinfeld(pf, th, [th + pf.one()] * (r - 1) + [th])
                for r in (2, 3, 4)]
    rng = random.Random("chain-{}".format(q))
    for r in (1, 2, 3, 4):
        g = [rand_perf(rng, pf) for _ in range(r - 1)]
        lead = rand_fq(rng, pf.fq) or pf.fq.one()
        g.append(pf.from_fq(lead) * th ** rng.randrange(3))
        modules.append(drinfeld(pf, th, g))
    return modules


@pytest.mark.parametrize("q", [2, 3])
def test_chain_exit_matches_the_full_chain(q, monkeypatch):
    """The chain's early exit (see ``_pair_row``) and the cut-off K change
    no value: every gram, and every pair of tau^k in the first coordinate
    against tau^k in the last for k <= 4, equals what K + 5 steps of the
    chain give.  (A gram of the declared bases reads only chain step 1;
    the tau^k pairs are the ones a too small K would change.)"""
    for module in _chain_modules(q):
        pf, d = module.pf, module.dim
        zero = SkewLaurent.zero(pf)
        calls = [lambda: gram(module)]
        for k in range(1, 5):
            tk = SkewLaurent.tau(pf, k)
            m = row(pf, [tk] + [zero] * (d - 1))
            n = col(pf, [zero] * (d - 1) + [tk])
            calls.append(lambda m=m, n=n: residue_pair(module, m, n))
        for call in calls:
            value = call()
            with monkeypatch.context() as patch:
                patch.setattr(pairing, "_pair_row", pair_row_reference)
                assert value == call()


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
def test_drinfeld_gram_chain_products(q, r, monkeypatch):
    """A rank-r Drinfeld gram makes r chain products: per motive row,
    tau*m*phi(t)^-1, after which no acc reaches the window; its r
    pairings read coeff_0 of acc*n with no product.  All K steps, each
    with r pairing products, made 8704 at r = 16, q = 2 (16 now)."""
    pf = PerfField(Fq(q))
    th = pf.theta()
    module = drinfeld(pf, th, [th + pf.one()] * (r - 1) + [th])
    calls = [0]
    original = pairing.mat_mul

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(pairing, "mat_mul", counted)
    gram(module)
    assert calls[0] == r


@pytest.mark.parametrize("shallow", ["inverted", "truncated zero"])
def test_pair_row_refuses_a_too_shallow_inverse(shallow):
    """coeff_0 of acc*n needs acc down to -deg(n): with phi(t)^-1 known
    only to sigma^1, acc = -tau*phi(t)^-1 is known down to tau^0, so
    pairing against tau^3 raises where pairing against 1 does not, also
    when the shallow inverse stores no term."""
    pf = PerfField(Fq(2))
    module = carlitz(pf, pf.theta())
    inv = invert_series_matrix(module.phi_t, 1) if shallow == "inverted" \
        else SkewMatrix(pf, [[SkewLaurent(pf, {}, -1)]])
    one, tau3 = SkewLaurent.one(pf), SkewLaurent.tau(pf, 3)
    with pytest.raises(PrecisionError) as err:
        pairing._pair_row(pf, row(pf, [one]), [col(pf, [one]),
                                               col(pf, [tau3])], 4, inv, -3)
    assert str(err.value) == ("error[precision]: coefficient of tau^0 is "
                              "below the precision floor 3")
