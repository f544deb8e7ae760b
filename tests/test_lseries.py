"""T-deformation Fitting ideals over finite bases, with both oracle
routes: the tau^d determinant over k[t] and the t-action on E(k)."""

import itertools
import random

import pytest

from taures import cli, linalg
from taures.anderson import carlitz, carlitz_tensor, drinfeld
from taures.errors import DimensionError, FieldError
from taures.fields import ExtField, Fq, PerfField, SPoly, find_irreducible
from taures.lseries import (brute_force_fitting, charpoly,
                            drinfeld_tau_matrix, fitting_ideal,
                            fitting_ideal_power_oracle, render_fitting,
                            restrict_tau)
from taures.parsing import (manifest_ext_field, manifest_tau_matrix,
                            parse_manifest, render_manifest)

from conftest import (charpoly_reference, power_oracle_reference, rand_fq,
                      unit_equiv_reference)


def ext_of(fq, n):
    if n == 1:
        return ExtField(fq, SPoly(fq, {1: fq.one()}))
    return ExtField(fq, find_irreducible(fq, n))


def restrict_in_basis(tau_matrix, ext, side, basis, coords):
    """Test-only reference for ``restrict_tau`` on the basis (e_i b_a):
    each b_a twisted on its own, and each image read back by ``coords``,
    which maps an element of k to its F_q coordinates on ``basis``."""
    n = ext.n
    r = len(tau_matrix)
    j = 1 if side == "motive" else -1
    size = r * n
    terms = [[{} for _ in range(size)] for _ in range(size)]
    for i in range(r):
        for a, b in enumerate(basis):
            for l in range(r):
                for te, c in tau_matrix[l][i].terms.items():
                    for ap, comp in enumerate(coords(b.q_power_iter(j) * c)):
                        if comp:
                            terms[l * n + ap][i * n + a][te] = comp
    return [[SPoly(ext.base, entry) for entry in row] for row in terms]


def gauge_scaled(rng, tau, ext, side):
    """tau on the basis scaled by a random diagonal D over k:
    D^-1 M D^(tw), tw the side's Frobenius.  The tau^n matrix becomes
    D^-1 P D, with the same characteristic polynomial."""
    units = [x for x in ext.elements() if x]
    d = [rng.choice(units) for _ in range(len(tau))]
    e = ext.q if side == "motive" else ext.size // ext.q
    tw = [x ** e for x in d]
    return [[e.scale(d[i].inverse() * tw[j]) for j, e in enumerate(row)]
            for i, row in enumerate(tau)]


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
        # one matrix serves both sides: over F_q the comotive twists are
        # trivial (Frobenius fixes F_q)
        E = carlitz(pf3, pf3.from_int(1))
        ext = ext_of(pf3.fq, 1)
        t_minus_theta = SPoly(ext, {1: ext.one(),
                                    0: -ext.embed(pf3.fq.from_int(1))})
        assert drinfeld_tau_matrix(E, ext) == [[t_minus_theta]]

    def test_rank2_companion_shape(self, pf3):
        # second column from tau^2 = g2^-1 (t - theta - g1 tau)
        theta = pf3.from_int(1)
        g1 = pf3.from_int(2)
        g2 = pf3.from_int(2)
        E = drinfeld(pf3, theta, [g1, g2])
        ext = ext_of(pf3.fq, 1)
        tau = drinfeld_tau_matrix(E, ext)
        zero = SPoly(ext, {})
        one = SPoly.const(ext, ext.one())
        g2k = ext.embed(g2.as_fq())
        g1k = ext.embed(g1.as_fq())
        thk = ext.embed(theta.as_fq())
        inv = g2k.inverse()
        assert tau[1][0] == one
        assert tau[0][0] == zero
        expect_top = SPoly(ext, {1: inv, 0: -(inv * thk)})
        assert tau[0][1] == expect_top
        assert tau[1][1] == SPoly.const(ext, -(inv * g1k))

    def test_requires_finite_base(self, pf3):
        E = carlitz(pf3, pf3.theta())
        with pytest.raises(FieldError):
            drinfeld_tau_matrix(E, ext_of(pf3.fq, 1))


def coords_on(ext, basis):
    """Test-only coordinates on an F_q-basis of k: a lookup over all
    F_q-combinations of ``basis``, element -> coordinate tuple."""
    coords = {}
    for cs in itertools.product(list(ext.base.elements()), repeat=ext.n):
        v = ext.zero()
        for c, b in zip(cs, basis):
            v = v + ext.embed(c) * b
        coords[v] = cs
    return coords.__getitem__


def power_basis_fitting(tau_matrix, ext, side):
    """det(T - tau) restricted on the power basis (e_i w^a): the same
    generator as ``fitting_ideal``'s, through a dense restriction."""
    big = restrict_in_basis(tau_matrix, ext, side,
                            [ext.gen() ** a for a in range(ext.n)],
                            lambda x: x.coeffs)
    fq = ext.base
    return charpoly(big, SPoly.const(fq, fq.one()))[::-1]


class TestRestrictTau:
    @pytest.mark.parametrize("q,modulus", [(2, None), (3, None),
                                           (4, [1, 1, 1]), (5, None)])
    def test_normal_basis_matches_explicit_basis(self, q, modulus):
        # restrict_tau moves each F_q coefficient by an index shift; the
        # reference twists each normal basis element on its own and reads
        # every image's coordinates off a lookup
        rng = random.Random(q)
        fq = Fq(q, modulus)
        pf = PerfField(fq)
        units = [c for c in fq.elements() if c]
        for n in range(1, 6 if q < 5 else 5):
            ext = ext_of(fq, n)
            E = drinfeld(pf, pf.from_fq(rng.choice(units)),
                         [pf.from_fq(rng.choice(units)) for _ in range(2)])
            tau = drinfeld_tau_matrix(E, ext)
            scaled = [[e.scale(ext.element([rand_fq(rng, fq)
                                            for _ in range(n)]))
                       for e in row] for row in tau]
            basis = ext.normal_basis()
            coords = coords_on(ext, basis)
            for side, tm in itertools.product(("motive", "comotive"),
                                              (tau, scaled)):
                assert restrict_tau(tm, ext, side) == restrict_in_basis(
                    tm, ext, side, basis, coords)

    def test_charpoly_matches_power_basis_route(self):
        # seeded Drinfeld matrices have F_q coefficients; their gauge
        # scalings by units of k do not, so those read normal coordinates
        rng = random.Random(7)
        for q, modulus in ((2, None), (3, None), (4, [1, 1, 1]), (5, None)):
            fq = Fq(q, modulus)
            pf = PerfField(fq)
            nonzero = [c for c in fq.elements() if c]
            for _ in range(3):
                r = rng.randrange(1, 4)
                g = [pf.from_fq(rand_fq(rng, fq)) for _ in range(r - 1)]
                g.append(pf.from_fq(rng.choice(nonzero)))
                E = drinfeld(pf, pf.from_fq(rng.choice(nonzero)), g)
                n = rng.randrange(1, 6)
                ext = ext_of(fq, n)
                tau = drinfeld_tau_matrix(E, ext)
                for side in ("motive", "comotive"):
                    for tm in (tau, gauge_scaled(rng, tau, ext, side)):
                        assert fitting_ideal(E, ext, side, tau_matrix=tm) \
                            == power_basis_fitting(tm, ext, side)

    def test_drinfeld_matrix_is_a_block_shift(self):
        # each nonzero tau entry has F_q coefficients and becomes n
        # entries, one per column of its block (51 of them, not 24, on the
        # power basis at n = 8)
        pf = PerfField(Fq(3))
        E = drinfeld(pf, pf.from_int(1), [pf.from_int(2), pf.one()])
        for n in (1, 4, 8):
            ext = ext_of(pf.fq, n)
            tau = drinfeld_tau_matrix(E, ext)
            entries = sum(1 for row in tau for e in row if e)
            for side in ("motive", "comotive"):
                big = restrict_tau(tau, ext, side)
                assert sum(1 for row in big for e in row if e) == \
                    n * entries

    def test_berkowitz_pair_count(self, monkeypatch):
        """Entry pairs the Berkowitz dot products of one fitting_ideal are
        given, Drinfeld rank 2 over F_3 with [k:F_3] = 8: on the power
        basis they were 944 on the motive side and 1106 on the
        comotive."""
        pf = PerfField(Fq(3))
        E = drinfeld(pf, pf.from_int(1), [pf.from_int(2), pf.one()])
        ext = ext_of(pf.fq, 8)
        count = [0]
        original = linalg._berkowitz

        def counted(rows, one, dot, neg):
            def counting_dot(pairs):
                count[0] += len(pairs)
                return dot(pairs)
            return original(rows, one, counting_dot, neg)

        monkeypatch.setattr(linalg, "_berkowitz", counted)
        for side, pairs in (("motive", 79), ("comotive", 113)):
            count[0] = 0
            fitting_ideal(E, ext, side)
            assert count[0] == pairs, side


class TestFittingIdeal:
    def test_carlitz_base_field(self, pf3):
        theta = pf3.from_int(1)
        E = carlitz(pf3, theta)
        ext = ext_of(pf3.fq, 1)
        fit = fitting_ideal(E, ext, "motive")
        # T - (t - theta)
        fq = pf3.fq
        expect = [SPoly(fq, {1: -(fq.one()), 0: fq.from_int(1)}),
                  SPoly(fq, {0: fq.one()})]
        assert fit == expect

    def test_f4_golden(self, pf2):
        E = carlitz(pf2, pf2.zero())
        ext = ext_of(pf2.fq, 2)
        fit = fitting_ideal(E, ext, "motive")
        fq = pf2.fq
        expect = [SPoly(fq, {2: fq.one()}), SPoly(fq, {}),
                  SPoly(fq, {0: fq.one()})]
        assert fit == expect
        assert render_fitting(fit) == "T^2 + t^2"

    def test_sides_agree(self, pf2, pf3):
        for pf in (pf2, pf3):
            E = carlitz(pf, pf.from_int(1))
            for n in (1, 2, 3):
                ext = ext_of(pf.fq, n)
                fm = fitting_ideal(E, ext, "motive")
                fc = fitting_ideal(E, ext, "comotive")
                assert fm == fc

    def test_power_oracle_agrees(self, pf2, pf3):
        for pf in (pf2, pf3):
            E = drinfeld(pf, pf.from_int(1), [pf.one(), pf.one()])
            for n in (1, 2):
                ext = ext_of(pf.fq, n)
                for side in ("motive", "comotive"):
                    fit = fitting_ideal(E, ext, side)
                    oracle = fitting_ideal_power_oracle(E, ext, side)
                    assert oracle == fit

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
                    tau = drinfeld_tau_matrix(E, ext)
                    for side in ("motive", "comotive"):
                        expected = power_oracle_reference(tau, ext, side)
                        assert fitting_ideal_power_oracle(
                            E, ext, side, tau_matrix=tau) == expected
                        assert fitting_ideal_power_oracle(
                            E, ext, side) == expected
                        # the same tau on a basis scaled by units of k:
                        # its entries leave F_q, so the twists count
                        scaled = gauge_scaled(rng, tau, ext, side)
                        assert fitting_ideal_power_oracle(
                            E, ext, side, tau_matrix=scaled) == \
                            power_oracle_reference(scaled, ext, side) == \
                            expected

    def test_side_is_checked(self, pf2):
        E = carlitz(pf2, pf2.one())
        ext = ext_of(pf2.fq, 1)
        with pytest.raises(FieldError, match="side must be motive or "
                                             "comotive"):
            fitting_ideal(E, ext, "dual")
        with pytest.raises(FieldError, match="side must be motive or "
                                             "comotive"):
            fitting_ideal_power_oracle(E, ext, "dual")

    def test_T_degree(self, pf3):
        E = drinfeld(pf3, pf3.from_int(1), [pf3.one(), pf3.one()])
        for n in (1, 2, 3):
            ext = ext_of(pf3.fq, n)
            fit = fitting_ideal(E, ext, "motive")
            assert len(fit) - 1 == 2 * n

    def test_basis_independence(self, pf2, pf3):
        # det(T - tau) on the normal basis equals it on other F_q-bases
        # of k, whose coordinates are looked up among all their
        # combinations
        def check(E, ext, basis, sides):
            fq = ext.base
            coords = coords_on(ext, basis)
            tm = drinfeld_tau_matrix(E, ext)
            for side in sides:
                big = restrict_in_basis(tm, ext, side, basis, coords)
                lead_first = charpoly(big, SPoly.const(fq, fq.one()))
                assert fitting_ideal(E, ext, side) == lead_first[::-1]

        ext = ext_of(pf2.fq, 2)
        w, one = ext.gen(), ext.one()
        check(carlitz(pf2, pf2.zero()), ext, [one + w, w], ["motive"])
        # bases that are not triangular in the power basis
        E = drinfeld(pf3, pf3.from_int(1), [pf3.from_int(2), pf3.one()])
        for n in (3, 4):
            ext = ext_of(pf3.fq, n)
            w, one = ext.gen(), ext.one()
            basis = [one + w, w + w ** 2, one + w ** 2] if n == 3 else \
                [one + w, w + w ** 2, w ** 2 + w ** 3, one + w + w ** 3]
            check(E, ext, basis, ["motive", "comotive"])

    def test_declared_tau_matrix(self, pf2):
        # tensor square with declared motive matrix [(t - theta)^2]
        E = carlitz_tensor(pf2, pf2.zero(), 2)
        ext = ext_of(pf2.fq, 1)
        tm = [[SPoly(ext, {2: ext.one()})]]
        fit = fitting_ideal(E, ext, "motive", tau_matrix=tm)
        assert render_fitting(fit) == "T + t^2"
        bf = brute_force_fitting(E, ext)
        assert sum(fit[1:], fit[0]).monic() == bf

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
                assert sum(fit[1:], fit[0]).monic() == bf

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
    assert unit_equiv_reference(a, SPoly(fq3, {1: two, 0: two}))
    # the same support, with ratios 1 and 2
    assert not unit_equiv_reference(a, SPoly(fq3, {1: one, 0: two}))
    assert not unit_equiv_reference(a, SPoly(fq3, {1: one}))
    # coefficient lists: the support is keyed by (T-exponent, t-exponent)
    c = SPoly(fq3, {0: one})
    assert unit_equiv_reference([a, c], [a.scale(two), c.scale(two)])
    assert not unit_equiv_reference([a, c], [c, a])


class TestBivariate:
    """F_q[t][T] values: a generator is its list of F_q[t] coefficients
    by T-exponent, monic in T."""

    def test_render(self, fq3):
        p = [SPoly(fq3, {1: fq3.from_int(2), 0: fq3.one()}), SPoly(fq3, {}),
             SPoly(fq3, {0: fq3.one()})]
        assert render_fitting(p) == "T^2 + 2*t + 1"

    def test_cli_verdict_matches_the_reference_rule(self, capsys, tmp_path):
        """Over seeded finite-base manifests, some with declared blocks:
        every route's generator ends in 1, and the ``consistent:`` line
        is the verdict of the rule the routes were once compared by,
        equality up to F_q^x.  Some consistent cases have a det(1 - tau)
        that is not monic, so the CLI's ``.monic()`` is exercised."""
        verdicts, non_monic_yes = set(), 0
        for seed in range(200):
            text, n = seeded_lseries_manifest(random.Random(seed))
            man = parse_manifest(text)
            ext = manifest_ext_field(man, n)
            blocks = {side: manifest_tau_matrix(man, side, ext)
                      for side in ("motive", "comotive")}
            derived = drinfeld_tau_matrix(man.module, ext)
            fit_m = fitting_ideal(man.module, ext, "motive",
                                  tau_matrix=blocks["motive"] or derived)
            fit_c = fitting_ideal(man.module, ext, "comotive",
                                  tau_matrix=blocks["comotive"] or derived)
            routes = [fit_m, fit_c]
            if blocks["motive"] is None:
                routes.append(fitting_ideal_power_oracle(
                    man.module, ext, "motive", tau_matrix=derived))
            assert all(f[-1].is_one() for f in routes), seed
            at_one = sum(fit_m[1:], fit_m[0])
            verdict = all(unit_equiv_reference(f, fit_m) for f in routes) \
                and unit_equiv_reference(at_one,
                                         brute_force_fitting(man.module, ext))
            path = tmp_path / "{}.man".format(seed)
            path.write_text(text)
            code = cli.main(["lseries", str(path), "--ext-degree", str(n)])
            out = capsys.readouterr().out
            assert "consistent: {}\n".format("yes" if verdict else "no") \
                in out, (seed, text, out)
            assert code == (0 if verdict else 3)
            verdicts.add(verdict)
            non_monic_yes += verdict and not at_one.leading().is_one()
        assert verdicts == {True, False}
        assert non_monic_yes


LSERIES_UNITS = {2: ["1"], 3: ["1", "2"], 4: ["1", "z", "z + 1"],
                 5: ["1", "2", "3", "4"]}


def seeded_lseries_manifest(rng):
    """A Drinfeld manifest of rank 1-3 over a finite base F_q, q <= 5, and
    an ext degree n <= 3.  About a third declare tau-matrix blocks, for
    one side or both: either the derived matrix, rendered, or random
    entries over F_q[t], with w (k's generator) in some of them."""
    q = rng.choice(sorted(LSERIES_UNITS))
    units = LSERIES_UNITS[q]
    r, n = rng.randrange(1, 4), rng.randrange(1, 4)
    g = [rng.choice(units + ["0"]) for _ in range(r - 1)]
    man = cli.example_drinfeld(q=q, r=r, g_texts=g + [rng.choice(units)])
    man.base = "finite-field"
    man.theta_text = rng.choice(units + ["0"])
    text = render_manifest(man)
    if rng.random() < 0.35:
        derived = None
        if rng.random() < 0.5:
            parsed = parse_manifest(text)
            ext = manifest_ext_field(parsed, n)
            derived = drinfeld_tau_matrix(parsed.module, ext)
        for side in ("motive", "comotive"):
            if rng.random() < 0.3:
                continue
            text += "tau_matrix_{}:\n".format(side)
            for i in range(r):
                entries = [str(e) for e in derived[i]] if derived else [
                    " + ".join(["({})*t^{}".format(rng.choice(units), e)
                                for e in range(rng.randrange(3))]
                               + (["w"] if n > 1 and rng.random() < 0.3
                                  else [])) or "0"
                    for _ in range(r)]
                text += "row: {}\n".format(" | ".join(entries))
    return text, n
