"""Coefficient-field kernel: F_q arithmetic, sparse polynomials, and the
level-tagged perfection of F_q(theta)."""

import itertools
import random
import time

import pytest

from taures import fields
from taures.errors import FieldError
from taures.fields import (ExtField, Fq, PerfElement, PerfField, SPoly,
                           coprime, find_irreducible, irreducible_over)
from taures.parsing import ext_field_of_degree

from conftest import (divmod_reference, fq_str_reference,
                      fq_tables_reference, gcd_reference,
                      irreducible_reference, mulmod_reference,
                      perf_canonical_reference,
                      perf_op_reference, perf_str_reference,
                      q_power_iter_reference, rand_fq, rand_perf,
                      rand_perf_nonzero, spoly_mul_reference)


def field_of(q):
    """F_q with the first irreducible modulus in the search order."""
    p, m = fields._factor_prime_power(q)
    if m == 1:
        return Fq(p)
    mod = find_irreducible(Fq(p), m)
    return Fq(q, [mod.coeff(i).coeffs[0] for i in range(m + 1)])


class TestFq:
    def test_rejects_non_prime_power(self):
        with pytest.raises(FieldError):
            Fq(12, [1, 0, 1])
        with pytest.raises(FieldError):
            Fq(1)

    def test_extension_needs_modulus(self):
        with pytest.raises(FieldError):
            Fq(4)

    def test_rejects_reducible_modulus(self):
        # z^2 + 1 = (z + 1)^2 over F_2
        with pytest.raises(FieldError):
            Fq(4, [1, 0, 1])

    @pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (2, 3), (2, 4),
                                     (3, 1), (3, 2), (3, 3)])
    def test_accepted_moduli_match_gauss_count(self, p, m):
        # every monic degree-m modulus over F_p; Fq accepts exactly the
        # irreducible ones, (1/m) sum_{d | m} mu(d) p^(m/d) of them
        def mobius(n):
            sign, k = 1, 2
            while k * k <= n:
                if n % k == 0:
                    n //= k
                    if n % k == 0:
                        return 0
                    sign = -sign
                k += 1
            return -sign if n > 1 else sign

        gauss = sum(mobius(d) * p ** (m // d)
                    for d in range(1, m + 1) if m % d == 0) // m
        accepted = 0
        for idx in range(p ** m):
            tail = [idx // p ** i % p for i in range(m)]
            try:
                Fq(p ** m, tail + [1])
            except FieldError as err:
                assert "modulus is reducible over F_{}".format(p) in str(err)
                continue
            accepted += 1
        assert accepted == gauss

    def test_rabin_cost_cap(self):
        # Rabin's test costs about Q*n^3 field operations, capped at
        # 3*10^6: 2*114^3 is under it and 2*115^3 over it, and so is
        # 111119*3^3, a prime Q the old cap Q^(n//2) <= 10^5 refused too
        f2 = Fq(2)
        assert irreducible_over(f2, SPoly(f2, {114: f2.one(),
                                               0: f2.one()})) is False
        with pytest.raises(FieldError, match="modulus of degree 115 over "
                           "F_2 is too large for Rabin's test"):
            irreducible_over(f2, SPoly(f2, {115: f2.one(), 0: f2.one()}))
        big = Fq(111119)
        with pytest.raises(FieldError, match="degree 3 over F_111119 is too "
                           "large"):
            irreducible_over(big, SPoly(big, {3: big.one(), 0: big.one()}))

    def test_degree_34_over_f2_builds_fast(self):
        # the trial-division cap refused both, though Rabin's test takes
        # milliseconds on them
        start = time.perf_counter()
        modulus = find_irreducible(Fq(2), 34)
        field = Fq(2 ** 34, [int(str(modulus.coeff(i)))
                             for i in range(35)])
        assert field.m == 34 and time.perf_counter() - start < 1.0
        start = time.perf_counter()
        assert str(ext_field_of_degree(Fq(2), 34).modulus) == str(modulus)
        assert time.perf_counter() - start < 1.0

    def test_rejects_non_monic(self):
        with pytest.raises(FieldError):
            Fq(9, [1, 1, 2])

    def test_f4_multiplication_table(self, fq4):
        z = fq4.gen()
        assert str(z * z) == "z + 1"
        assert (z ** 3).is_one()
        assert (z + z) == fq4.zero()

    def test_inverse_round_trip(self):
        f = Fq(9, [1, 0, 1])
        for a in f.elements():
            if a:
                assert (a * a.inverse()).is_one()

    def test_element_count(self, fq4):
        elems = list(fq4.elements())
        assert len(elems) == 4
        assert len({e.idx for e in elems}) == 4

    def test_one_prime_field_per_p(self, monkeypatch):
        # the modulus check of every F_(p^m) shares one F_p and its tables
        built = []
        original = Fq._build_tables

        def counted(self):
            built.append(self.q)
            original(self)

        monkeypatch.setattr(Fq, "_build_tables", counted)
        for _ in range(3):
            Fq(25, [2, 0, 1])
            Fq(125, [1, 1, 0, 1])
        assert built.count(25) == 3 and built.count(125) == 3
        assert built.count(5) <= 1

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 49])
    def test_tables_match_pairwise_reference(self, q):
        # tables from discrete logs and base-p digits equal the tables
        # of every pair multiplied by _mul
        fq = field_of(q)
        assert (fq._add_t, fq._mul_t, fq._neg_t, fq._inv_t) == \
            fq_tables_reference(fq)

    def test_str_matches_reference(self):
        for q in (2, 3, 5, 7, 4, 8, 9, 25):
            fq = field_of(q)
            for a in fq.elements():
                assert str(a) == fq_str_reference(a)

    def test_frobenius_fixes_fq(self, fq4):
        # a^q = a for every a in F_q
        for a in fq4.elements():
            assert a ** 4 == a


class TestSPoly:
    def test_divmod_random(self, fq3):
        rng = random.Random(5)
        for _ in range(200):
            a = SPoly(fq3, {e: rand_fq(rng, fq3) for e in
                            rng.sample(range(12), rng.randint(0, 5))})
            b = SPoly(fq3, {e: rand_fq(rng, fq3) for e in
                            rng.sample(range(6), rng.randint(1, 3))})
            if not b:
                continue
            q, r = a.divmod(b)
            assert q * b + r == a
            assert r.degree() < b.degree()

    def test_divmod_matches_reference(self, fq2, fq3, fq4):
        """Divisors g(x^k) and dividends x^(iQ) are the shapes the
        irreducibility tests divide, monomial divisors c*x^k the last
        Euclid step of a gcd; random sparse pairs are the rest."""
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        fq9 = Fq(9, [1, 0, 1])

        @hypothesis.settings(max_examples=200, deadline=None, database=None,
                             derandomize=True)
        @hypothesis.given(seed=st.integers(0, 2 ** 32 - 1),
                          fq=st.sampled_from((fq2, fq3, fq4, fq9)))
        def check(seed, fq):
            rng = random.Random(seed)
            k = rng.randint(1, 4)
            b = SPoly(fq, {k * e: rand_fq(rng, fq) for e in
                           rng.sample(range(5), rng.randint(1, 4))})
            if not b:
                b = SPoly(fq, {k: fq.one()})
            if rng.random() < 0.3:
                c = rand_fq(rng, fq) or fq.one()
                b = SPoly(fq, {rng.randint(0, 6): c})
            if rng.random() < 0.5:
                a = SPoly(fq, {rng.randint(1, 6) * fq.q: fq.one()})
            else:
                a = SPoly(fq, {e: rand_fq(rng, fq) for e in
                               rng.sample(range(40), rng.randint(0, 6))})
            q, r = a.divmod(b)
            q_ref, r_ref = divmod_reference(a, b)
            assert (q.terms, r.terms) == (q_ref.terms, r_ref.terms)
            assert q * b + r == a
            assert r.degree() < b.degree()

        check()

    def test_gcd_properties(self, fq2):
        rng = random.Random(6)
        for _ in range(100):
            a = SPoly(fq2, {e: rand_fq(rng, fq2) for e in
                            rng.sample(range(8), rng.randint(0, 4))})
            b = SPoly(fq2, {e: rand_fq(rng, fq2) for e in
                            rng.sample(range(8), rng.randint(0, 4))})
            g = a.gcd(b)
            if a or b:
                assert g
                if a:
                    assert not (a % g)
                if b:
                    assert not (b % g)

    def test_frobenius_substitution_is_power(self, fq3):
        # f(x^q) = f(x)^q over F_q coefficients
        rng = random.Random(7)
        for _ in range(50):
            f = SPoly(fq3, {e: rand_fq(rng, fq3) for e in
                            rng.sample(range(5), rng.randint(1, 3))})
            assert f.subst_power(3) == f * f * f

    def test_sum_of_products(self, fq3):
        # one term dict for the whole sum: equal to the fold of products,
        # terms that cancel leave no zero coefficient behind
        rng = random.Random(8)
        for _ in range(100):
            pairs = [(SPoly(fq3, {e: rand_fq(rng, fq3) for e in
                                  rng.sample(range(5), rng.randint(0, 3))}),
                      SPoly(fq3, {e: rand_fq(rng, fq3) for e in
                                  rng.sample(range(5), rng.randint(0, 3))}))
                     for _ in range(rng.randint(1, 4))]
            fold = SPoly(fq3, {})
            for a, b in pairs:
                fold = fold + a * b
            assert SPoly.sum_of_products(
                fq3, [(a, 1, b, 1, 0) for a, b in pairs]) == fold
        t = SPoly.gen(fq3)
        one = SPoly.const(fq3, fq3.one())
        total = SPoly.sum_of_products(fq3, [(t, 1, t + one, 1, 0),
                                            (-t, 1, t, 1, 0)])
        assert total.terms == {1: fq3.one()}
        assert not SPoly.sum_of_products(fq3, [])

    def test_sum_of_products_scaled(self, fq2, fq3):
        # a(x^ka) * b(x^kb) * x^s summed: one-term and general b, unit and
        # non-unit coefficients, zero and positive shifts, keys that
        # collide across pairs and sums that cancel
        rng = random.Random(9)
        for fq in (fq2, fq3):
            nonzero = [c for c in fq.elements() if c]

            def poly(n_terms):
                return SPoly(fq, {e: rng.choice(nonzero) for e in
                                  rng.sample(range(12), n_terms)})

            for _ in range(150):
                pairs = []
                for _ in range(rng.randint(1, 4)):
                    a = poly(rng.randint(0, 10))
                    b = poly(rng.choice([0, 1, 1, 1, 2, 3]))
                    pairs.append((a, rng.choice([1, 1, fq.q]),
                                  b, rng.choice([1, 1, fq.q]),
                                  rng.choice([0, 0, 1, 5])))
                if rng.randrange(3) == 0:
                    a, ka, b, kb, s = pairs[0]
                    pairs.append((-a, ka, b, kb, s))
                fold = SPoly(fq, {})
                for a, ka, b, kb, s in pairs:
                    fold = fold + (a.subst_power(ka)
                                   * b.subst_power(kb)).shift(s)
                total = SPoly.sum_of_products(fq, pairs)
                assert total == fold
                assert all(total.terms.values())

    def test_irreducibility_search(self, fq2):
        mod = find_irreducible(fq2, 2)
        assert mod.degree() == 2
        assert irreducible_over(fq2, mod)
        assert mod.render("w") == "w^2 + w + 1"


class TestPerfElement:
    def test_arithmetic_golden_values(self, pf3, pf2):
        th = pf3.theta()
        assert not (th + (-th))
        # (theta^(1/2))^2 = theta at q = 2
        th2 = pf2.theta()
        root = th2.q_root()
        assert root * root == th2
        # div(theta^2 - 1, theta - 1) = theta + 1, against long division
        one = pf3.one()
        num = th * th - one
        den = th - one
        quotient = num / den
        assert quotient == th + one
        q_poly, r_poly = (num.num).divmod(den.num)
        assert not r_poly and q_poly == quotient.num

    def test_q_pow_examples(self, pf3):
        th = pf3.theta()
        assert th.q_pow() == th * th * th
        assert th.q_pow().level == 0
        assert th.q_root().q_pow() == th
        c = pf3.from_int(2)
        assert c.q_pow() == c

    def test_q_root_examples(self, pf3):
        th = pf3.theta()
        r = th.q_root()
        assert r.level == 1
        assert (th ** 3).q_root() == th  # level re-minimizes
        assert not pf3.zero().q_root()

    def test_perfection_level(self, pf3):
        th = pf3.theta()
        assert th.perfection_level() == 0
        assert th.q_root().perfection_level() == 1
        assert (th ** 3).perfection_level() == 0

    def test_tower_bijectivity(self, pf2, pf3):
        rng = random.Random(8)
        for pf in (pf2, pf3):
            for _ in range(200):
                a = rand_perf(rng, pf, max_deg=2, max_level=2,
                              allow_fraction=True)
                assert a.q_root().q_pow() == a
                assert a.q_pow().q_root() == a

    def test_q_pow_is_ring_homomorphism(self, pf2, pf3, pf4):
        rng = random.Random(9)
        for pf in (pf2, pf3, pf4):
            for _ in range(150):
                a = rand_perf(rng, pf, max_deg=2, max_level=1)
                b = rand_perf(rng, pf, max_deg=2, max_level=1)
                assert (a + b).q_pow() == a.q_pow() + b.q_pow()
                assert (a * b).q_pow() == a.q_pow() * b.q_pow()

    def test_equality_across_levels(self, pf3):
        th = pf3.theta()
        # same value built two ways
        a = th.q_root() * th.q_root() * th.q_root()
        assert a == th
        b = (th.q_root() + pf3.one()) - pf3.one()
        assert b == th.q_root()
        assert b.level == 1

    def test_level_strip_undoes_a_lift(self, pf2, pf3, pf4):
        """An element with its exponents scaled by q^s and its level raised
        by s, built through ``__init__`` and through ``_reduced``, is the
        original: equal, with the same hash, level and text.  s runs past
        the original level, and constants strip every level."""
        rng = random.Random(31)
        for pf in (pf2, pf3, pf4):
            samples = [pf.one(), pf.from_int(pf.fq.p - 1), pf.theta(),
                       pf.theta() ** pf.q]
            samples += [rand_perf_nonzero(rng, pf, max_deg=3, max_level=2,
                                          allow_fraction=True)
                        for _ in range(60)]
            for a in samples:
                for s in range(4):
                    k = pf.q ** s
                    num, den = a.num.subst_power(k), a.den.subst_power(k)
                    for b in (PerfElement(pf, num, den, a.level + s),
                              PerfElement._reduced(pf, num, den,
                                                   a.level + s)):
                        assert b == a
                        assert hash(b) == hash(a)
                        assert b.level == a.level
                        assert str(b) == str(a)

    def test_level_zero_subfield_closure(self, pf3):
        rng = random.Random(10)
        for _ in range(100):
            a = rand_perf(rng, pf3, max_deg=2, max_level=0)
            b = rand_perf_nonzero(rng, pf3, max_deg=2, max_level=0)
            assert (a * b).level == 0
            assert (a + b).level == 0
            assert (a / b).level == 0
            assert a.q_pow().level == 0

    def test_division_by_zero(self, pf3):
        with pytest.raises(FieldError):
            pf3.one() / pf3.zero()

    def test_rendering(self, pf3, pf2):
        th = pf3.theta()
        assert str(th) == "theta"
        assert str(th.q_root()) == "theta^(1/3)"
        assert str(th.q_root().q_root()) == "theta^(1/9)"
        assert str(th ** 2 + pf3.one()) == "theta^2 + 1"
        assert str(pf3.one() / th.q_root()) == "1/theta^(1/3)"
        assert str((pf2.theta() ** 3).q_root()) == "theta^(3/2)"
        val = (pf3.theta() + pf3.one()) / pf3.theta()
        assert str(val) == "(theta + 1)/theta"
        assert str(pf3.zero()) == "0"

    def test_rendering_matches_fraction_reference(self):
        # exponents of theta^(1/q^e) that reduce to 1, to an integer and
        # to a proper fraction, over unit, monomial and binomial
        # denominators with non-unit coefficients
        rng = random.Random(23)
        for q in (2, 3, 4):
            fq = field_of(q)
            pf = PerfField(fq)
            nonzero = [c for c in fq.elements() if c]
            for level in range(4):
                qe = q ** level
                for _ in range(30):
                    exps = {1, qe, 2 * qe, rng.randrange(3 * qe + 1)}
                    num = SPoly(fq, {e: rng.choice(nonzero) for e in exps})
                    k = rng.randrange(1, 2 * qe + 1)
                    den_exps = rng.choice([(0,), (k,), (0, k)])
                    den = SPoly(fq, {e: rng.choice(nonzero)
                                     for e in den_exps})
                    x = PerfElement(pf, num, den, level)
                    assert str(x) == perf_str_reference(x)

    def test_canonicalization_idempotent(self, pf3):
        rng = random.Random(11)
        for _ in range(100):
            a = rand_perf(rng, pf3, max_deg=2, max_level=2,
                          allow_fraction=True)
            b = PerfElement(pf3, a.num, a.den, a.level)
            assert a == b and a.level == b.level


def rand_nonzero_fq(rng, fq):
    c = rand_fq(rng, fq)
    return c if c else fq.one()


def rand_kernel_poly(rng, fq, shape):
    """A polynomial of the given shape: zero, a nonzero constant, a
    monomial c*x^k with k >= 1, or a general one of two or three terms."""
    if shape == "zero":
        return SPoly(fq, {})
    if shape == "constant":
        return SPoly(fq, {0: rand_nonzero_fq(rng, fq)})
    if shape == "monomial":
        return SPoly(fq, {rng.randint(1, 3): rand_nonzero_fq(rng, fq)})
    exps = rng.sample(range(5), rng.randint(2, 3))
    return SPoly(fq, {e: rand_nonzero_fq(rng, fq) for e in exps})


def snapshot(*elements):
    return [(dict(x.num.terms), dict(x.den.terms)) for x in elements]


def check_kernel_against_reference(rng, pf):
    """PerfElement canonical forms, coprime and + - * / against the
    gcd-based references, on constant, monomial and general denominators
    at levels 0..2; no operand's polynomials change."""
    fq = pf.fq
    shapes = ("constant", "monomial", "general")
    polys = [rand_kernel_poly(rng, fq, s) for s in shapes + ("zero",)]
    for a in polys:
        for b in polys:
            assert coprime(a, b) == a.gcd(b).is_one()
            assert a.gcd(b) == gcd_reference(a, b)
    elems = []
    for den_shape in shapes:
        num = rand_kernel_poly(rng, fq, rng.choice(shapes + ("zero",)))
        den = rand_kernel_poly(rng, fq, den_shape)
        level = rng.randint(0, 2)
        x = PerfElement(pf, num, den, level)
        assert (x.num.terms, x.den.terms, x.level) == \
            perf_canonical_reference(pf, num, den, level)
        if x:  # the swapped fraction needs no gcd, only a monic den
            y = x.inverse()
            assert (y.num.terms, y.den.terms, y.level) == \
                perf_canonical_reference(pf, x.den, x.num, x.level)
        elems.append(x)
    unit = dict(pf._one.terms)
    before = snapshot(*elems)
    for x in elems:
        for y in elems:
            for op, fn in (("+", PerfElement.__add__),
                           ("-", PerfElement.__sub__),
                           ("*", PerfElement.__mul__),
                           ("/", PerfElement.__truediv__)):
                if op == "/" and not y:
                    continue
                z = fn(x, y)
                assert (z.num.terms, z.den.terms, z.level) == \
                    perf_op_reference(x, y, op), (x, op, y)
    assert snapshot(*elems) == before
    assert pf._one.terms == unit == {0: fq.one()}


class TestKernelReference:
    def test_matches_reference(self, pf2, pf3, pf4):
        rng = random.Random(512)
        for pf in (pf2, pf3, pf4):
            for _ in range(40):
                check_kernel_against_reference(rng, pf)

    def test_unit_objects_are_shared(self, fq4, pf3):
        assert fq4.one() is fq4.one() and fq4.zero() is fq4.zero()
        assert pf3.one().den is pf3.zero().den is pf3._one


def canonical(x):
    return (x.num.terms, x.den.terms, x.level)


class TestOneStepKernel:
    """q_power_iter in one step and SPoly products with a one-term side,
    against |j| single Frobenius steps and the general term-pair product,
    on zero, constant, monomial and general numerators and denominators
    at levels 0..2."""

    SHAPES = ("constant", "monomial", "general")

    def elements(self, rng, pf):
        fq = pf.fq
        out = [pf.zero()]
        for den_shape in self.SHAPES:
            for num_shape in self.SHAPES:
                num = rand_kernel_poly(rng, fq, num_shape)
                den = rand_kernel_poly(rng, fq, den_shape)
                out.append(PerfElement(pf, num, den, rng.randint(0, 2)))
        return out

    def test_q_power_iter_matches_single_steps(self, pf2, pf3, pf4):
        rng = random.Random(513)
        for pf in (pf2, pf3, pf4):
            for x in self.elements(rng, pf) + self.elements(rng, pf):
                for j in range(-3, 4):
                    assert canonical(x.q_power_iter(j)) == \
                        canonical(q_power_iter_reference(x, j)), (x, j)

    def test_monomial_products_match_general_product(self, pf2, pf3, pf4):
        rng = random.Random(514)
        for pf in (pf2, pf3, pf4):
            fq = pf.fq
            polys = [rand_kernel_poly(rng, fq, shape)
                     for shape in self.SHAPES + ("zero",)]
            polys += [SPoly(fq, {0: fq.one()}), SPoly(fq, {2: fq.one()})]
            elems = self.elements(rng, pf)
            polys += [SPoly(pf, {e: c}) for e, c in enumerate(elems) if c]
            polys += [SPoly(pf, {3: pf.one()}),
                      SPoly(pf, dict(enumerate(elems[1:4])))]
            for a in polys:
                for b in polys:
                    if a.ring is b.ring:
                        assert (a * b).terms == \
                            spoly_mul_reference(a, b).terms, (a, b)


def test_kernel_reference_properties(pf2, pf3, pf4):
    """The same checks, searched by hypothesis (skipped without it)."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=100, deadline=None, database=None,
                         derandomize=True)
    @hypothesis.given(seed=st.integers(0, 2 ** 32 - 1),
                      pf=st.sampled_from((pf2, pf3, pf4)))
    def check(seed, pf):
        check_kernel_against_reference(random.Random(seed), pf)

    check()


class TestExtField:
    def test_f4_tower(self, fq2):
        ext = ExtField(fq2, find_irreducible(fq2, 2))
        w = ext.gen()
        assert w * w == w + ext.one()
        assert w.q_power_iter(1) == w * w
        assert w.q_power_iter(-1).q_power_iter(1) == w
        assert len(list(ext.elements())) == 4

    def test_inverse(self, fq3):
        ext = ExtField(fq3, find_irreducible(fq3, 2))
        for a in ext.elements():
            if a:
                assert (a * a.inverse()).is_one()

    def test_rejects_reducible(self, fq2):
        # w^2 + 1 = (w+1)^2 over F_2
        bad = SPoly(fq2, {2: fq2.one(), 0: fq2.one()})
        with pytest.raises(FieldError):
            ExtField(fq2, bad)

    def test_degree_search_checks_each_candidate_once(self, fq2, fq3,
                                                      monkeypatch):
        # find_irreducible proves its result irreducible, so the field it
        # builds does not test the modulus again
        checked = []
        original = fields.irreducible_over

        def counted(field, poly):
            checked.append(frozenset(poly.terms.items()))
            return original(field, poly)

        monkeypatch.setattr(fields, "irreducible_over", counted)
        for fq, n in ((fq2, 4), (fq3, 3), (fq3, 1)):
            checked.clear()
            ext = ext_field_of_degree(fq, n)
            assert ext.n == n
            assert len(checked) == len(set(checked))
            if n > 1:
                assert checked[-1] == frozenset(ext.modulus.terms.items())

    def test_str_names_w_and_z(self, fq4):
        # k = F_4[w]/(w^2 + w + z), so w^2 = w + z
        ext = ExtField(fq4, SPoly(fq4, {2: fq4.one(), 1: fq4.one(),
                                        0: fq4.gen()}))
        w, z, one = ext.gen(), ext.embed(fq4.gen()), ext.one()
        assert [str(x) for x in (w * w, (z + one) * w, ext.zero(), one)] \
            == ["w + z", "(z + 1)*w", "0", "1"]

    def test_frobenius_fixes_base(self, fq3):
        ext = ExtField(fq3, find_irreducible(fq3, 3))
        for c in fq3.elements():
            for j in (-1, 1, 2):
                assert ext.embed(c).q_power_iter(j) == ext.embed(c)


def monic_polys(field, degree):
    """Every monic polynomial of the degree, constant term varying
    fastest: the order ``find_irreducible`` searches in."""
    elems = list(field.elements())
    for tail in itertools.product(elems, repeat=degree):
        terms = dict(enumerate(reversed(tail)))
        terms[degree] = field.one()
        yield SPoly(field, terms)


class TestIrreducible:
    @pytest.mark.parametrize("q,top", [(2, 6), (3, 6), (4, 4), (5, 4),
                                       (9, 3)])
    def test_agrees_with_trial_division(self, q, top):
        field = field_of(q)
        for n in range(1, top + 1):
            for poly in monic_polys(field, n):
                assert irreducible_over(field, poly) == \
                    irreducible_reference(field, poly), poly

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_search_returns_first_irreducible(self, q):
        field = field_of(q)
        n = 1
        while q ** n <= 10 ** 4:
            first = next(p for p in monic_polys(field, n)
                         if irreducible_reference(field, p))
            assert find_irreducible(field, n) == first
            n += 1

    def test_factor_prime_power_matches_trial_division(self):
        for q in range(2, 3000):
            p = next(d for d in range(2, q + 1) if q % d == 0)
            m = 0
            while q % p ** (m + 1) == 0:
                m += 1
            if p ** m == q:
                assert fields._factor_prime_power(q) == (p, m)
            else:
                with pytest.raises(FieldError, match="not a prime power"):
                    fields._factor_prime_power(q)

    def test_factor_prime_power_of_large_q(self):
        assert fields._factor_prime_power(2 ** 61 - 1) == (2 ** 61 - 1, 1)
        assert fields._factor_prime_power(3 ** 40) == (3, 40)
        # 3215031751 is a strong pseudoprime to the bases 2, 3, 5 and 7
        for q in (2 ** 61 + 1, 6 ** 20, 3215031751):
            with pytest.raises(FieldError, match="not a prime power"):
                fields._factor_prime_power(q)


def schoolbook(a, b):
    """Test-only reference for ``ExtField._mul``: the product of the two
    coefficient polynomials, reduced mod the extension modulus."""
    ext = a.field
    prod = SPoly(ext.base, dict(enumerate(a.coeffs))) * \
        SPoly(ext.base, dict(enumerate(b.coeffs)))
    rem = prod % ext.modulus
    return ext.element([rem.coeff(i) for i in range(ext.n)])


class TestExtFieldScalars:
    """Elements of F_q inside k take O(1)/O(n) shortcuts; each must agree
    with the generic route."""

    @pytest.mark.parametrize("q,n", [(2, 3), (3, 2), (4, 3), (5, 2)])
    def test_inverse_and_frobenius_of_fq(self, q, n):
        base = field_of(q)
        ext = ExtField(base, find_irreducible(base, n))
        for c in base.elements():
            x = ext.embed(c)
            assert x.q_power_iter(1) == x ** q
            assert x.q_power_iter(-1) == x ** (ext.size // q)
            if c:
                assert x.inverse() == x ** (ext.size - 2)

    @pytest.mark.parametrize("q,n", [(2, 4), (3, 3), (4, 2), (5, 3)])
    def test_scalar_product_matches_schoolbook(self, q, n):
        rng = random.Random(q * 10 + n)
        base = field_of(q)
        ext = ExtField(base, find_irreducible(base, n))
        for _ in range(60):
            a = ext.element([rand_fq(rng, base) for _ in range(n)])
            c = ext.embed(rand_fq(rng, base))
            assert a * c == schoolbook(a, c)
            assert c * a == schoolbook(c, a)
            b = ext.element([rand_fq(rng, base) for _ in range(n)])
            assert a * b == schoolbook(a, b)


def derandomized(**strategies):
    """A derandomized hypothesis search over the given strategies
    (skipped without hypothesis)."""
    hypothesis = pytest.importorskip("hypothesis")
    return lambda fn: hypothesis.settings(
        max_examples=100, deadline=None, database=None,
        derandomize=True)(hypothesis.given(**strategies)(fn))


class TestOneArithmetic:
    """The multiply modulo a polynomial that F_q and k share, and the
    ``inverse()`` and ``q_power_iter`` every field element type has."""

    @pytest.mark.parametrize("q", [4, 9, 25, 729, 1024])
    def test_fq_mul_matches_reference(self, q):
        st = pytest.importorskip("hypothesis.strategies")
        fq = field_of(q)
        assert fq._tables == (q <= 512)

        @derandomized(seed=st.integers(0, 2 ** 32 - 1))
        def check(seed):
            rng = random.Random(seed)
            a, b = rand_fq(rng, fq), rand_fq(rng, fq)
            expected = mulmod_reference(a.coeffs, b.coeffs, fq.modulus, fq.p)
            assert fq._mul(a, b).coeffs == (a * b).coeffs == expected

        check()

    @pytest.mark.parametrize("q,n", [(2, 13), (3, 7), (4, 6), (5, 5)])
    def test_ext_mul_matches_spoly_product(self, q, n):
        st = pytest.importorskip("hypothesis.strategies")
        base = field_of(q)
        ext = ExtField(base, find_irreducible(base, n))

        @derandomized(seed=st.integers(0, 2 ** 32 - 1))
        def check(seed):
            rng = random.Random(seed)
            a, b = (ext.element([rand_fq(rng, base) for _ in range(n)])
                    for _ in range(2))
            assert ext._mul(a, b) == schoolbook(a, b)

        check()

    def test_inverse_protocol(self, fq4, pf3):
        st = pytest.importorskip("hypothesis.strategies")
        fq1024 = field_of(1024)
        ext = ExtField(fq4, find_irreducible(fq4, 3))
        shapes = ("constant", "monomial", "general")

        def draw(rng, kind):
            if kind == "ext":
                return ext.element([rand_fq(rng, fq4) for _ in range(3)])
            if kind == "perf":
                fq = pf3.fq
                return PerfElement(
                    pf3, rand_kernel_poly(rng, fq, rng.choice(shapes)),
                    rand_kernel_poly(rng, fq, rng.choice(shapes)),
                    rng.randint(0, 2))
            return rand_fq(rng, {"fq4": fq4, "fq1024": fq1024}[kind])

        @derandomized(seed=st.integers(0, 2 ** 32 - 1),
                      kind=st.sampled_from(("fq4", "fq1024", "ext", "perf")))
        def check(seed, kind):
            rng = random.Random(seed)
            x, y = draw(rng, kind), draw(rng, kind)
            if not y:
                return
            assert x / y == x * y.inverse()
            assert y ** -3 == y.inverse() ** 3
            assert y.inverse().inverse() == y
            assert (y * y.inverse()).is_one()

        check()
        for field in (fq4, fq1024, ext, pf3):
            with pytest.raises(FieldError):
                field.zero().inverse()
            with pytest.raises(FieldError):
                field.one() / field.zero()
            with pytest.raises(FieldError):
                field.zero() ** -1

    @pytest.mark.parametrize("q,n", [(2, 4), (3, 3), (4, 2), (5, 2)])
    def test_ext_q_power_iter_is_repeated_q_power(self, q, n):
        base = field_of(q)
        ext = ExtField(base, find_irreducible(base, n))
        for x in ext.elements():
            for j in range(-n, 2 * n + 1):
                y = x.q_power_iter(j)
                # j-fold q-th powers of x give y; of y they give x back
                z = x if j >= 0 else y
                for _ in range(abs(j)):
                    z = z ** q
                assert z == (y if j >= 0 else x), (x, j)
