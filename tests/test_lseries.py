"""T-deformation Fitting ideals over finite bases, with both oracle
routes: the tau^d determinant over k[t] and the t-action on E(k)."""

import random

import pytest

from taures.anderson import carlitz, carlitz_tensor, drinfeld
from taures.errors import DimensionError, FieldError
from taures.fields import ExtField, Fq, PerfField, SPoly, find_irreducible
from taures.lseries import (BivariatePoly, TauMatrix, brute_force_fitting,
                            charpoly, drinfeld_tau_matrices, fitting_ideal,
                            fitting_ideal_power_oracle, poly_unit_equiv,
                            restrict_tau)

from conftest import (charpoly_reference, degree_T, power_oracle_reference,
                      rand_fq)


def ext_of(fq, n):
    if n == 1:
        return ExtField(fq, SPoly(fq, {1: fq.one()}))
    return ExtField(fq, find_irreducible(fq, n))


def gauge_scaled(rng, tau, ext):
    """tau on the basis scaled by a random diagonal D over k:
    D^-1 M D^(tw), tw the side's Frobenius.  The tau^n matrix becomes
    D^-1 P D, with the same characteristic polynomial."""
    units = [x for x in ext.elements() if x]
    d = [rng.choice(units) for _ in range(tau.rank)]
    e = ext.q if tau.side == "motive" else ext.size // ext.q
    tw = [x ** e for x in d]
    return TauMatrix(side=tau.side, entries=[
        [e.scale(d[i].inverse() * tw[j]) for j, e in enumerate(row)]
        for i, row in enumerate(tau.entries)])


class TestCharpoly:
    def test_2x2(self, fq3):
        a, b, c, d = (fq3.from_int(x) for x in (1, 2, 2, 1))
        cp = charpoly([[a, b], [c, d]], fq3.one())
        assert cp[0].is_one()
        assert cp[1] == -(a + d)
        assert cp[2] == a * d - b * c

    def test_diagonal(self, fq2):
        one = fq2.one()
        zero = fq2.zero()
        cp = charpoly([[one, zero], [zero, one]], one)
        # (l - 1)^2 = l^2 + 1 over F_2
        assert cp[0].is_one() and not cp[1] and cp[2].is_one()


def rand_coeff(rng, ring):
    """Random element of F_q or of an extension k."""
    if isinstance(ring, ExtField):
        return ring.element([rand_fq(rng, ring.base) for _ in range(ring.n)])
    return rand_fq(rng, ring)


def rand_poly(rng, ring):
    """Random polynomial of degree < 3 over ring (possibly zero)."""
    return SPoly(ring, {e: rand_coeff(rng, ring)
                        for e in range(rng.randrange(1, 4))})


def rand_matrix(rng, ring, n, density, poly=True):
    """n x n matrix over ring[t] (poly) or ring, each entry nonzero with
    probability about density; a row and a column are sometimes zeroed."""
    zero = SPoly(ring, {}) if poly else ring.zero()
    make = rand_poly if poly else rand_coeff
    rows = [[make(rng, ring) if rng.random() < density else zero
             for _ in range(n)] for _ in range(n)]
    if rng.random() < 0.3:
        rows[rng.randrange(n)] = [zero] * n
    if rng.random() < 0.3:
        k = rng.randrange(n)
        for row in rows:
            row[k] = zero
    return rows


def unit_of(ring, poly):
    return SPoly.const(ring, ring.one()) if poly else ring.one()


class TestCharpolyOracle:
    """The sparse Berkowitz against the dense fold of
    ``charpoly_reference``: the same coefficients over F_q[t], F_q and
    k[t], on sparse and degenerate matrices.  F_q with operation tables
    runs the table-index kernel (F_9 with two-digit indices); F_521 has
    no tables, and it and k run the fused sparse sums."""

    RINGS = {
        "F2": lambda: Fq(2),
        "F3": lambda: Fq(3),
        "F4": lambda: Fq(4, [1, 1, 1]),
        "F5": lambda: Fq(5),
        "F9": lambda: Fq(9, [1, 0, 1]),
        "F521": lambda: Fq(521),
        "k": lambda: ExtField(Fq(3), find_irreducible(Fq(3), 2)),
    }

    def test_rings_cover_both_kernels(self):
        assert self.RINGS["F9"]()._tables
        assert not self.RINGS["F521"]()._tables

    @pytest.mark.parametrize("poly", [True, False])
    @pytest.mark.parametrize("name", sorted(RINGS))
    def test_matches_reference(self, name, poly):
        ring = self.RINGS[name]()
        rng = random.Random("charpoly:{}:{}".format(name, poly))
        one = unit_of(ring, poly)
        for trial in range(40):
            rows = rand_matrix(rng, ring, 1 + trial % 7,
                               rng.choice((0.1, 0.25, 0.6, 0.9)), poly=poly)
            assert charpoly(rows, one) == charpoly_reference(rows, one)

    def test_degenerate_matrices(self, fq3):
        one = SPoly.const(fq3, fq3.one())
        zero = SPoly(fq3, {})
        t = SPoly.gen(fq3)
        for n in (1, 2, 5):
            rows = [[zero] * n for _ in range(n)]
            cp = charpoly(rows, one)
            assert cp == charpoly_reference(rows, one)
            assert cp == [one] + [zero] * n
        assert charpoly([[t]], one) == [one, -t]
        # zero first row and column, nonzero elsewhere
        rows = [[zero, zero, zero], [zero, t, one], [zero, one, t]]
        assert charpoly(rows, one) == charpoly_reference(rows, one)

    def test_cancelling_products(self, fq3):
        # a rank-one matrix u v^T: every 2 x 2 minor cancels, so the
        # products in each dot sum to zero past the trace coefficient
        rng = random.Random(41)
        one = SPoly.const(fq3, fq3.one())
        for n in (2, 3, 6):
            u = [rand_poly(rng, fq3) for _ in range(n)]
            v = [rand_poly(rng, fq3) for _ in range(n)]
            rows = [[a * b for b in v] for a in u]
            cp = charpoly(rows, one)
            assert cp == charpoly_reference(rows, one)
            trace = SPoly.sum_of_products(
                fq3, [(a, 1, b, 1, 0) for a, b in zip(u, v)])
            assert cp[1] == -trace
            assert all(not c for c in cp[2:])

    def test_hypothesis_matches_reference(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        rings = [Fq(2), Fq(3), Fq(4, [1, 1, 1]), Fq(5), Fq(9, [1, 0, 1])]

        @hypothesis.settings(max_examples=60, deadline=None, database=None,
                             derandomize=True)
        @hypothesis.given(seed=st.integers(0, 2 ** 32 - 1),
                          ring=st.sampled_from(range(len(rings))),
                          n=st.integers(1, 6),
                          density=st.floats(0.0, 1.0),
                          poly=st.booleans())
        def check(seed, ring, n, density, poly):
            rows = rand_matrix(random.Random(seed), rings[ring], n, density,
                               poly=poly)
            one = unit_of(rings[ring], poly)
            assert charpoly(rows, one) == charpoly_reference(rows, one)

        check()

    def test_fused_sparse_construction_count(self, monkeypatch):
        """SPoly constructions in one fitting_ideal on a 16 x 16 restricted
        matrix (Drinfeld rank 2 over F_3, [k:F_3] = 8): the 256 entries of
        restrict_tau and a few around them, none in charpoly, which works
        on table indices over F_3.  The fused sparse sums made 769 on the
        motive side and 839 on the comotive side; folding every dot
        product over all entries, zeros included, made 32216 and 32200."""
        pf = PerfField(Fq(3))
        E = drinfeld(pf, pf.from_int(1), [pf.from_int(2), pf.one()])
        ext = ext_of(pf.fq, 8)
        calls = [0]
        original = SPoly.__init__

        def counted(self, ring, terms):
            calls[0] += 1
            original(self, ring, terms)

        monkeypatch.setattr(SPoly, "__init__", counted)
        for side in ("motive", "comotive"):
            calls[0] = 0
            fitting_ideal(E, ext, side)
            assert calls[0] <= 262, side


class TestTauMatrices:
    def test_carlitz_both_sides(self, pf3):
        E = carlitz(pf3, pf3.from_int(1))
        ext = ext_of(pf3.fq, 1)
        mot, com = drinfeld_tau_matrices(E, ext)
        t_minus_theta = SPoly(ext, {1: ext.one(),
                                    0: -ext.embed(pf3.fq.from_int(1))})
        assert mot.entries == [[t_minus_theta]]
        assert com.entries == [[t_minus_theta]]

    def test_rank2_companion_shape(self, pf3):
        # second column from tau^2 = g2^-1 (t - theta - g1 tau)
        theta = pf3.from_int(1)
        g1 = pf3.from_int(2)
        g2 = pf3.from_int(2)
        E = drinfeld(pf3, theta, [g1, g2])
        ext = ext_of(pf3.fq, 1)
        mot, com = drinfeld_tau_matrices(E, ext)
        zero = SPoly(ext, {})
        one = SPoly.const(ext, ext.one())
        g2k = ext.embed(g2.as_fq())
        g1k = ext.embed(g1.as_fq())
        thk = ext.embed(theta.as_fq())
        inv = g2k.inverse()
        assert mot.entries[1][0] == one
        assert mot.entries[0][0] == zero
        expect_top = SPoly(ext, {1: inv, 0: -(inv * thk)})
        assert mot.entries[0][1] == expect_top
        assert mot.entries[1][1] == SPoly.const(ext, -(inv * g1k))
        # over F_q the comotive twists are trivial (Frobenius fixes F_q)
        assert com.entries == mot.entries

    def test_requires_finite_base(self, pf3):
        E = carlitz(pf3, pf3.theta())
        with pytest.raises(FieldError):
            drinfeld_tau_matrices(E, ext_of(pf3.fq, 1))


class TestRestrictTau:
    @pytest.mark.parametrize("q,modulus", [(2, None), (3, None),
                                           (4, [1, 1, 1]), (5, None)])
    def test_power_basis_matches_explicit_basis(self, q, modulus):
        # the default basis skips the change of basis; handing the same
        # power basis in explicitly goes through _basis_inverse
        rng = random.Random(q)
        fq = Fq(q, modulus)
        pf = PerfField(fq)
        units = [c for c in fq.elements() if c]
        for n in range(1, 7):
            ext = ext_of(fq, n)
            E = drinfeld(pf, pf.from_fq(rng.choice(units)),
                         [pf.from_fq(rng.choice(units)) for _ in range(2)])
            for tau in drinfeld_tau_matrices(E, ext):
                scaled = TauMatrix(side=tau.side, entries=[
                    [e.scale(ext.element([rand_fq(rng, fq)
                                          for _ in range(n)]))
                     for e in row] for row in tau.entries])
                for tm in (tau, scaled):
                    basis = [ext.gen() ** a for a in range(n)]
                    assert restrict_tau(tm, ext) == \
                        restrict_tau(tm, ext, basis=basis)


class TestFittingIdeal:
    def test_carlitz_base_field(self, pf3):
        theta = pf3.from_int(1)
        E = carlitz(pf3, theta)
        ext = ext_of(pf3.fq, 1)
        fit = fitting_ideal(E, ext, "motive")
        # T - (t - theta)
        fq = pf3.fq
        expect = BivariatePoly(fq, [
            SPoly(fq, {1: -(fq.one()), 0: fq.from_int(1)}),
            SPoly(fq, {0: fq.one()})])
        assert fit == expect

    def test_f4_golden(self, pf2):
        E = carlitz(pf2, pf2.zero())
        ext = ext_of(pf2.fq, 2)
        fit = fitting_ideal(E, ext, "motive")
        fq = pf2.fq
        expect = BivariatePoly(fq, [SPoly(fq, {2: fq.one()}),
                                    SPoly(fq, {}),
                                    SPoly(fq, {0: fq.one()})])
        assert fit == expect
        assert str(fit) == "T^2 + t^2"

    def test_sides_agree(self, pf2, pf3):
        for pf in (pf2, pf3):
            E = carlitz(pf, pf.from_int(1))
            for n in (1, 2, 3):
                ext = ext_of(pf.fq, n)
                fm = fitting_ideal(E, ext, "motive")
                fc = fitting_ideal(E, ext, "comotive")
                assert fm.unit_equiv(fc)

    def test_power_oracle_agrees(self, pf2, pf3):
        for pf in (pf2, pf3):
            E = drinfeld(pf, pf.from_int(1), [pf.one(), pf.one()])
            for n in (1, 2):
                ext = ext_of(pf.fq, n)
                for side in ("motive", "comotive"):
                    fit = fitting_ideal(E, ext, side)
                    oracle = fitting_ideal_power_oracle(E, ext, side)
                    assert oracle.unit_equiv(fit)

    def test_power_oracle_matches_reference(self):
        # each step's twist is one Frobenius on the previous step's, in
        # place of s Frobenius powers of the original coefficients
        rng = random.Random(11)
        for q, modulus in ((2, None), (3, None), (4, [1, 1, 1]), (5, None)):
            fq = Fq(q, modulus)
            pf = PerfField(fq)
            nonzero = [c for c in fq.elements() if c]
            for _ in range(3):
                r = rng.randrange(1, 4)
                g = [pf.from_fq(rand_fq(rng, fq)) for _ in range(r - 1)]
                g.append(pf.from_fq(rng.choice(nonzero)))
                E = drinfeld(pf, pf.from_fq(rng.choice(nonzero)), g)
                for n in (1, 2, 3):
                    ext = ext_of(fq, n)
                    mot, com = drinfeld_tau_matrices(E, ext)
                    for side, tau in (("motive", mot), ("comotive", com)):
                        expected = power_oracle_reference(tau, ext)
                        assert fitting_ideal_power_oracle(
                            E, ext, side, tau_matrix=tau) == expected
                        assert fitting_ideal_power_oracle(
                            E, ext, side) == expected
                        # the same tau on a basis scaled by units of k:
                        # its entries leave F_q, so the twists count
                        scaled = gauge_scaled(rng, tau, ext)
                        assert fitting_ideal_power_oracle(
                            E, ext, side, tau_matrix=scaled) == \
                            power_oracle_reference(scaled, ext) == expected

    def test_T_degree(self, pf3):
        E = drinfeld(pf3, pf3.from_int(1), [pf3.one(), pf3.one()])
        for n in (1, 2, 3):
            ext = ext_of(pf3.fq, n)
            fit = fitting_ideal(E, ext, "motive")
            assert degree_T(fit) == 2 * n

    def test_basis_independence(self, pf2, pf3):
        E = carlitz(pf2, pf2.zero())
        ext = ext_of(pf2.fq, 2)
        w = ext.gen()
        one = ext.one()
        default = fitting_ideal(E, ext, "motive")
        other = fitting_ideal(E, ext, "motive",
                              basis=[one + w, w])
        assert default == other
        # a declared basis that is not triangular in the power basis: each
        # element twists as a combination of powers of twist(w)
        E = drinfeld(pf3, pf3.from_int(1), [pf3.from_int(2), pf3.one()])
        for n in (3, 4):
            ext = ext_of(pf3.fq, n)
            w = ext.gen()
            one = ext.one()
            basis = [one + w, w + w ** 2, one + w ** 2] if n == 3 else \
                [one + w, w + w ** 2, w ** 2 + w ** 3, one + w + w ** 3]
            for side in ("motive", "comotive"):
                default = fitting_ideal(E, ext, side)
                assert fitting_ideal(E, ext, side, basis=basis) == default

    def test_declared_tau_matrix(self, pf2):
        # tensor square with declared motive matrix [(t - theta)^2]
        E = carlitz_tensor(pf2, pf2.zero(), 2)
        ext = ext_of(pf2.fq, 1)
        tm = TauMatrix(side="motive",
                       entries=[[SPoly(ext, {2: ext.one()})]])
        fit = fitting_ideal(E, ext, "motive", tau_matrix=tm)
        assert str(fit) == "T + t^2"
        bf = brute_force_fitting(E, ext)
        assert poly_unit_equiv(fit.at_T_one(), bf)

    def test_non_drinfeld_needs_matrix(self, pf2):
        E = carlitz_tensor(pf2, pf2.zero(), 2)
        with pytest.raises(FieldError):
            fitting_ideal(E, ext_of(pf2.fq, 1), "motive")


class TestBruteForce:
    def test_carlitz_base(self, pf3):
        theta = pf3.from_int(1)
        E = carlitz(pf3, theta)
        bf = brute_force_fitting(E, ext_of(pf3.fq, 1))
        # t - theta - 1 = t - 2 = t + 1 mod 3
        fq = pf3.fq
        assert bf == SPoly(fq, {1: fq.one(), 0: fq.one()})

    def test_f4_frobenius(self, pf2):
        E = carlitz(pf2, pf2.zero())
        bf = brute_force_fitting(E, ext_of(pf2.fq, 2))
        fq = pf2.fq
        assert bf == SPoly(fq, {2: fq.one(), 0: fq.one()})

    def test_matches_T_one(self, pf2, pf3):
        for pf in (pf2, pf3):
            E = carlitz(pf, pf.from_int(1))
            for n in (1, 2, 3):
                ext = ext_of(pf.fq, n)
                fit = fitting_ideal(E, ext, "motive")
                bf = brute_force_fitting(E, ext)
                assert poly_unit_equiv(fit.at_T_one(), bf)

    def test_desk_bound(self, pf2):
        E = carlitz_tensor(pf2, pf2.zero(), 6)
        with pytest.raises(DimensionError):
            brute_force_fitting(E, ext_of(pf2.fq, 3))

    def test_requires_finite(self, pf2):
        E = carlitz(pf2, pf2.theta())
        with pytest.raises(FieldError):
            brute_force_fitting(E, ext_of(pf2.fq, 1))


def test_poly_unit_equiv_needs_one_ratio(fq3):
    one, two = fq3.one(), fq3.from_int(2)
    a = SPoly(fq3, {1: one, 0: one})
    assert poly_unit_equiv(a, SPoly(fq3, {1: two, 0: two}))
    # the same support, with ratios 1 and 2
    assert not poly_unit_equiv(a, SPoly(fq3, {1: one, 0: two}))
    assert not poly_unit_equiv(a, SPoly(fq3, {1: one}))


class TestBivariate:
    def test_unit_equiv(self, fq3):
        a = BivariatePoly(fq3, [SPoly(fq3, {1: fq3.from_int(1)}),
                                SPoly(fq3, {0: fq3.one()})])
        b = BivariatePoly(fq3, [SPoly(fq3, {1: fq3.from_int(2)}),
                                SPoly(fq3, {0: fq3.from_int(2)})])
        # monic normalization makes them literally equal
        assert a == b
        assert a.unit_equiv(b)
        c = BivariatePoly(fq3, [SPoly(fq3, {0: fq3.from_int(2)}),
                                SPoly(fq3, {0: fq3.one()})])
        assert not a.unit_equiv(c)

    def test_init_keeps_the_callers_list(self, fq3):
        p = SPoly(fq3, {1: fq3.one()})
        coeffs = [p, SPoly(fq3, {})]
        assert BivariatePoly(fq3, coeffs).coeffs == [p]
        assert len(coeffs) == 2

    def test_render(self, fq3):
        p = BivariatePoly(fq3, [
            SPoly(fq3, {1: fq3.from_int(2), 0: fq3.one()}),
            SPoly(fq3, {}),
            SPoly(fq3, {0: fq3.one()})])
        assert str(p) == "T^2 + 2*t + 1"
