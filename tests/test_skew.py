"""Twisted Laurent kernel: normal form, the product rule, coefficient
extraction, precision floors, and scalar inversion."""

import random

import pytest

from taures.errors import FieldError, PrecisionError
from taures.fields import PerfElement, SPoly
from taures.skew import SkewLaurent, invert_scalar, sum_of_products

from conftest import (apply_skew, from_right_coeffs,
                      invert_scalar_geometric, rand_fq,
                      rand_perf, rand_perf_nonzero, rand_skew,
                      rand_kernel_coeff, rand_kernel_skew,
                      rand_skew_monomial_lead, rand_skew_nonzero,
                      skew_mul_reference, sum_of_products_reference)


class TestNormalForm:
    def test_left_coeff_tau(self, pf3):
        th = pf3.theta()
        f = SkewLaurent.from_left_coeffs(pf3, [(th, 1)])
        assert f.coeff(1) == th.q_root()
        assert str(f) == "tau * theta^(1/3)"

    def test_degree_zero_side_independent(self, pf3):
        a = pf3.theta() + pf3.one()
        left = SkewLaurent.from_left_coeffs(pf3, [(a, 0)])
        right = from_right_coeffs(pf3, [(a, 0)])
        assert left == right

    def test_left_coeff_sigma(self, pf3):
        # theta * sigma normalizes to sigma * theta^q
        th = pf3.theta()
        f = SkewLaurent.from_left_coeffs(pf3, [(th, -1)])
        assert f.coeff(-1) == th.q_pow()

    def test_normal_form_unique(self, pf3):
        rng = random.Random(21)
        for _ in range(100):
            f = rand_skew(rng, pf3)
            g = from_right_coeffs(
                pf3, [(c, e) for e, c in f.coeffs.items()])
            assert f == g


class TestMul:
    def test_defining_relations(self, pf3):
        tau = SkewLaurent.tau(pf3)
        sigma = SkewLaurent.sigma(pf3)
        one = SkewLaurent.one(pf3)
        assert tau * sigma == one
        assert sigma * tau == one

    def test_sigma_theta_squared(self, pf3):
        th = pf3.theta()
        f = from_right_coeffs(pf3, [(th, -1)])
        prod = f * f
        assert prod.coeffs == {-2: th.q_pow() * th}

    def test_operator_semantics_oracle(self, pf2, pf3):
        # mul must agree with composition of the twisted operators on
        # random field points
        rng = random.Random(22)
        for pf in (pf2, pf3):
            for _ in range(60):
                f = rand_skew(rng, pf, lo=-2, hi=2)
                g = rand_skew(rng, pf, lo=-2, hi=2)
                prod = f * g
                for _ in range(3):
                    x = rand_perf(rng, pf, max_deg=1, max_level=1)
                    assert apply_skew(prod, x) == \
                        apply_skew(f, apply_skew(g, x))

    def test_tau_a_tau_b(self, pf3):
        # (tau a)(tau b) = tau^2 a^(1/q) b
        rng = random.Random(23)
        for _ in range(20):
            a = rand_perf(rng, pf3)
            b = rand_perf(rng, pf3)
            f = from_right_coeffs(pf3, [(a, 1)])
            g = from_right_coeffs(pf3, [(b, 1)])
            assert (f * g).coeff(2) == a.q_root() * b


def check_mul_against_reference(rng, pf):
    """One random case of the skew product against the all-pairs
    reference: exact x exact, exact x truncated (either side) and
    truncated x truncated, with and without a caller's floor."""
    f = rand_skew(rng, pf)
    g = rand_skew(rng, pf)
    kind = rng.randrange(3)
    if kind:
        g = g.truncate(rng.randint(-5, 4))
    if kind == 2:
        f = f.truncate(rng.randint(-5, 4))
    if rng.randrange(2):
        f, g = g, f
    ref = skew_mul_reference(f, g)
    assert f * g == ref
    w = rng.randint(-6, 6)
    assert sum_of_products(pf, [(f, g)], w) == ref.truncate(w)
    # floors never overstate knowledge: truncating first agrees with the
    # product above the floor it reports
    ft = f.truncate(rng.randint(-5, 4))
    gt = g.truncate(rng.randint(-5, 4))
    assert (ft * gt).agrees_with(ref)
    assert (ft * g).agrees_with(ref)


class TestSumOfProducts:
    """The fused kernel against the product-by-product fold: unit,
    monomial and general denominators, levels 0..3, tau-exponents of both
    signs, truncated operands and callers' floors."""

    def test_matches_fold(self, pf2, pf3, pf4):
        rng = random.Random(61)
        for pf in (pf2, pf3, pf4):
            for _ in range(80):
                pairs = [(rand_kernel_skew(rng, pf), rand_kernel_skew(rng, pf))
                         for _ in range(rng.randint(0, 4))]
                for w in (None, rng.randint(-6, 6)):
                    assert sum_of_products(pf, pairs, w) == \
                        sum_of_products_reference(pf, pairs, w)
                if pairs:
                    x, y = pairs[0]
                    w = rng.randint(-6, 6)
                    assert sum_of_products(pf, [(x, y)], w) == \
                        sum_of_products_reference(pf, [(x, y)], w)

    def test_cancels_to_zero_at_q2(self, pf2):
        # x*y + x*y = 0 in characteristic 2, for large numerators too,
        # with and without a general denominator beside
        rng = random.Random(62)
        fq = pf2.fq
        big = PerfElement(pf2, SPoly(fq, {e: fq.one() for e in range(9)}),
                          pf2.one().den, 0)
        for _ in range(60):
            x = SkewLaurent(pf2, {rng.randint(-3, 3): big.q_power_iter(
                -rng.randint(0, 3))})
            y = rand_kernel_skew(rng, pf2)
            z = rand_kernel_skew(rng, pf2)
            u = rand_kernel_skew(rng, pf2)
            assert not sum_of_products(pf2, [(x, y), (x, y)]).coeffs
            got = sum_of_products(pf2, [(x, y), (z, u), (x, y)])
            assert got == sum_of_products_reference(pf2, [(z, u), (x, y),
                                                          (x, y)])
            assert got.coeffs == \
                sum_of_products(pf2, [(z, u)], got.floor).coeffs

    def test_twisted_sum_matches_fold(self, pf2, pf3, pf4):
        # a^(q^j) * b summed over triples whose twists land on levels on
        # both sides of 0, each coefficient reduced once
        rng = random.Random(63)
        for pf in (pf2, pf3, pf4):
            for _ in range(60):
                triples = [(rand_kernel_coeff(rng, pf), rng.randint(-2, 2),
                            rand_kernel_coeff(rng, pf))
                           for _ in range(rng.randint(1, 4))]
                fold = pf.zero()
                for a, j, b in triples:
                    fold = fold + a.q_power_iter(j) * b
                assert PerfElement.twisted_sum(pf, triples) == fold
                a, j, b = triples[0]
                assert not PerfElement.twisted_sum(
                    pf, [(a, j, b), (-a, j, b)])


    def test_twisted_sum_fuses_monomial_denominators(self, pf2, pf3,
                                                      monkeypatch):
        # one call mixing unit, monomial and two-term denominators: only
        # the two-term products are folded by +, every other product is
        # summed over the largest monomial denominator and reduced once
        for pf in (pf2, pf3):
            fq = pf.fq
            one = fq.one()
            th = pf.theta()

            def frac(num, den, root=0):
                x = PerfElement(pf, SPoly(fq, num), SPoly(fq, den), 0)
                return x.q_power_iter(-root)

            mono = [frac({1: one, 4: one}, {2: one}),
                    frac({0: one, 3: one}, {1: one}, 1),
                    frac({2: one}, {5: one}, 2)]
            unit = th * th + th
            two = [frac({0: one}, {0: one, 1: one}),
                   frac({2: one}, {0: one, 3: one}, 1)]
            triples = [(mono[0], 1, mono[1]), (two[0], 0, unit),
                       (mono[2], -2, unit), (unit, 1, mono[0]),
                       (mono[1], 0, two[1]), (mono[2], 3, mono[2])]
            fold = pf.zero()
            for a, j, b in triples:
                fold = fold + a.q_power_iter(j) * b
            sums = [0]
            original = PerfElement._sum

            def counted(self, other, op):
                sums[0] += 1
                return original(self, other, op)

            monkeypatch.setattr(PerfElement, "_sum", counted)
            total = PerfElement.twisted_sum(pf, triples)
            monkeypatch.undo()
            assert total == fold
            assert sums[0] == 2

    def test_twisted_sum_monomial_cancellation(self, pf2, pf3, pf4):
        # products over monomial denominators that cancel, at one level or
        # at two, give the canonical zero: no numerator, denominator 1,
        # level 0
        for pf in (pf2, pf3, pf4):
            fq = pf.fq
            one = fq.one()
            a = PerfElement(pf, SPoly(fq, {0: one, 2: one}),
                            SPoly(fq, {3: one}), 0).q_root()
            b = PerfElement(pf, SPoly(fq, {1: one}), SPoly(fq, {2: one}), 0)
            for triples in ([(a, 1, b), (-a, 1, b)],
                            [(a, 2, b), (a.q_pow(), 1, -b)],
                            [(b, -1, a), (a, 0, b.q_root()),
                             (-b, -1, a), (-a, 0, b.q_root())]):
                total = PerfElement.twisted_sum(pf, triples)
                assert not total
                assert total.den.is_one() and total.level == 0
                assert total == pf.zero()


class TestPow:
    def test_matches_repeated_products(self, pf2, pf3):
        # unit monomials take the shortcut (tau^e)^n = tau^(e n); other
        # monomials, sums and truncated elements multiply out
        th = pf3.theta()
        bases = [SkewLaurent.tau(pf3, e) for e in (-2, -1, 0, 1, 3)]
        bases += [SkewLaurent(pf3, {2: th}),
                  SkewLaurent.tau(pf3) + SkewLaurent.scalar(pf3, th),
                  SkewLaurent.tau(pf3).truncate(-1),
                  SkewLaurent.tau(pf2, 2)]
        for base in bases:
            acc = SkewLaurent.one(base.pf)
            for n in range(6):
                power = base ** n
                assert power == acc
                assert power.floor == acc.floor
                acc = acc * base


class TestMulOracle:
    def test_matches_reference(self, pf2, pf3, pf4):
        rng = random.Random(310)
        for pf in (pf2, pf3, pf4):
            for _ in range(150):
                check_mul_against_reference(rng, pf)


def test_mul_reference_properties(pf2, pf3, pf4):
    """The same cases, searched by hypothesis (skipped without it)."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=200, deadline=None, database=None,
                         derandomize=True)
    @hypothesis.given(seed=st.integers(0, 2 ** 32 - 1),
                      pf=st.sampled_from((pf2, pf3, pf4)))
    def check(seed, pf):
        check_mul_against_reference(random.Random(seed), pf)

    check()


class TestCoeff:
    def test_coeff_examples(self, pf3):
        th = pf3.theta()
        c = rand_perf(random.Random(1), pf3)
        f = from_right_coeffs(pf3, [(th, 0), (c, 1)])
        assert f.coeff(0) == th
        assert f.coeff(1) == c
        assert not f.coeff(5)
        # coeff(a sigma, -1) = a^q via normal form
        g = SkewLaurent.from_left_coeffs(pf3, [(th + pf3.one(), -1)])
        assert g.coeff(-1) == (th + pf3.one()).q_pow()

    def test_coeff_shift_identity(self, pf3):
        # coeff_i(p) = coeff_0(tau^-i p)
        rng = random.Random(24)
        for _ in range(100):
            f = rand_skew(rng, pf3)
            for i in list(f.coeffs):
                shifted = SkewLaurent.tau(pf3, -i) * f
                assert f.coeff(i) == shifted.coeff(0)

    def test_precision_error(self, pf3):
        f = SkewLaurent(pf3, {0: pf3.one()}, floor=-1)
        assert f.coeff(-1) == pf3.zero()
        with pytest.raises(PrecisionError):
            f.coeff(-2)


class TestDegree:
    def test_examples(self, pf3):
        assert SkewLaurent.tau(pf3).deg_tau() == 1
        assert SkewLaurent.sigma(pf3).deg_tau() == -1
        assert SkewLaurent.zero(pf3).deg_tau() == float("-inf")
        f = from_right_coeffs(
            pf3, [(pf3.theta(), 0), (pf3.one(), 3)])
        assert f.deg_tau() == 3

    def test_multiplicative_over_domain(self, pf3):
        rng = random.Random(25)
        for _ in range(100):
            f = rand_skew_nonzero(rng, pf3)
            g = rand_skew_nonzero(rng, pf3)
            assert (f * g).deg_tau() == f.deg_tau() + g.deg_tau()


class TestFloors:
    def test_truncated_mul_floor(self, pf3):
        # exact f of degree 1 against g known to sigma^3: the product is
        # contaminated below floor_g + deg(f)
        th = pf3.theta()
        f = from_right_coeffs(pf3, [(th, 0), (pf3.one(), 1)])
        g = SkewLaurent(pf3, {-1: pf3.one(), -2: th}, floor=-3)
        prod = f * g
        assert prod.floor == -3 + 1
        assert all(e >= prod.floor for e in prod.coeffs)

    def test_add_floor(self, pf3):
        f = SkewLaurent(pf3, {0: pf3.one()}, floor=-2)
        g = SkewLaurent(pf3, {-5: pf3.theta()})
        s = f + g
        assert s.floor == -2
        assert -5 not in s.coeffs

    def test_equal_to_precision(self, pf3):
        f = SkewLaurent(pf3, {0: pf3.one(), -1: pf3.theta()}, floor=-1)
        g = SkewLaurent(pf3, {0: pf3.one(), -1: pf3.theta(), -2: pf3.one()},
                        floor=-2)
        assert f.agrees_with(g)
        h = SkewLaurent(pf3, {0: pf3.one(), -1: pf3.one()}, floor=-1)
        assert not f.agrees_with(h)

    def test_a_term_only_one_side_has(self, pf3):
        # above the common floor it disagrees, from either side; below it
        # it is not compared
        f = SkewLaurent(pf3, {0: pf3.one()}, floor=-1)
        g = SkewLaurent(pf3, {0: pf3.one(), -1: pf3.theta()}, floor=-1)
        assert not f.agrees_with(g)
        assert not g.agrees_with(f)
        h = SkewLaurent(pf3, {0: pf3.one(), -2: pf3.theta()}, floor=-2)
        assert f.agrees_with(h) and h.agrees_with(f)

    def test_zero_to_precision_is_legal(self, pf3):
        f = SkewLaurent(pf3, {}, floor=-3)
        assert not f
        assert f.agrees_with(SkewLaurent.zero(pf3))


class TestInvertScalar:
    def test_tau_inverse(self, pf3):
        inv = invert_scalar(SkewLaurent.tau(pf3), 1)
        assert inv.coeffs == {-1: pf3.one()}

    def test_exact_monomial_inverse(self, pf3):
        # an exact monomial tau^d * a inverts exactly: no floor, whatever
        # the precision asked for
        one = SkewLaurent.one(pf3)
        inv = invert_scalar(one, 2)
        assert inv == one and inv.is_exact()
        th = pf3.theta()
        f = from_right_coeffs(pf3, [(th, 2)])
        for precision in (1, 4):
            inv = invert_scalar(f, precision)
            assert inv.is_exact()
            assert inv.coeffs == {-2: pf3.one() / th.q_power_iter(2)}
            assert f * inv == one and inv * f == one
        # a truncated monomial is known only to its floor
        g = SkewLaurent(pf3, {0: pf3.one()}, floor=-3)
        assert invert_scalar(g, 2).floor == -1

    def test_geometric_example(self, pf3):
        th = pf3.theta()
        one = SkewLaurent.one(pf3)
        f = one - from_right_coeffs(pf3, [(th, -1)])
        inv = invert_scalar(f, 3)
        assert inv.coeff(0).is_one()
        assert inv.coeff(-1) == th
        assert inv.coeff(-2) == th.q_pow() * th
        assert inv.floor == -2
        assert (f * inv).agrees_with(one)
        assert (inv * f).agrees_with(one)

    def test_drinfeld_example(self, pf3):
        th = pf3.theta()
        f = from_right_coeffs(pf3, [(th, 0), (pf3.one(), 1)])
        inv = invert_scalar(f, 3)
        assert inv.coeff(-1).is_one()
        assert inv.coeff(-2) == -(th.q_pow())
        assert inv.coeff(-3) == th.q_pow().q_pow() * th.q_pow()
        assert inv.floor == -3

    def test_round_trip_random(self, pf2, pf3):
        rng = random.Random(26)
        for pf in (pf2, pf3):
            one = SkewLaurent.one(pf)
            for trial in range(60):
                # arbitrary leading coefficients and monomial leads (the
                # pipeline case)
                if trial % 5 == 0:
                    f = rand_skew_nonzero(rng, pf, lo=-2, hi=2)
                    precision = 6
                else:
                    f = rand_skew_monomial_lead(rng, pf)
                    precision = 5
                inv = invert_scalar(f, precision)
                assert (f * inv).agrees_with(one)
                assert (inv * f).agrees_with(one)

    def test_precision_extension_is_stable(self, pf3):
        rng = random.Random(27)
        for _ in range(40):
            f = rand_skew_monomial_lead(rng, pf3)
            small = invert_scalar(f, 3)
            big = invert_scalar(f, 8)
            assert big.agrees_with(small)

    def test_errors(self, pf3):
        with pytest.raises(FieldError):
            invert_scalar(SkewLaurent.zero(pf3), 3)
        shallow = SkewLaurent(pf3, {0: pf3.one()}, floor=0)
        with pytest.raises(PrecisionError):
            invert_scalar(shallow, 3)


def with_lead(rng, pf, lead):
    """Random element with the given leading coefficient and one to three
    lower terms within three sigma-orders of it."""
    d = rng.randint(-2, 2)
    terms = [(lead, d)]
    for e in rng.sample(range(d - 3, d), rng.randint(1, 3)):
        terms.append((rand_perf_nonzero(rng, pf), e))
    return from_right_coeffs(pf, terms)


def random_lead(rng, pf, multi_term):
    """c * theta^m, or theta + c with two terms, for a random unit c."""
    c = pf.from_fq(rand_fq(rng, pf.fq) or pf.fq.one())
    return pf.theta() + c if multi_term else c * pf.theta() ** rng.randrange(3)


class TestInvertScalarOracle:
    """The recurrence against the geometric-series reference: the same
    coefficients and the same floor, for exact and truncated operands."""

    @pytest.mark.parametrize("precision", range(1, 9))
    def test_matches_geometric(self, pf2, pf3, pf4, precision):
        rng = random.Random(300 + precision)
        # a two-term lead makes the inverse's denominators grow like
        # q^precision, and the reference's cost much faster (q = 4,
        # precision 4: up to 8 s), so those operands stop at the depth
        # the reference affords
        for pf, multi_depth in ((pf2, 6), (pf3, 3), (pf4, 3)):
            for multi_term in (False, True):
                if multi_term and precision > multi_depth:
                    continue
                for truncated in (False, True):
                    f = with_lead(rng, pf, random_lead(rng, pf, multi_term))
                    if truncated:
                        # known to exactly the depth the inverse needs,
                        # or one order deeper
                        f = f.truncate(f.deg_tau() - precision + 1
                                       - rng.randrange(2))
                    assert invert_scalar(f, precision) == \
                        invert_scalar_geometric(f, precision)


@pytest.mark.parametrize("precision", range(1, 5))
def test_invert_scalar_kernel_coefficients(pf2, pf3, pf4, precision):
    """The recurrence against the geometric series when the lower
    coefficients have unit, monomial and two-term denominators at levels
    0..3, below a theta-power lead, exact and truncated.  Two-term
    denominators twisted to level 3 make the reference's cost grow fast
    (q = 3 at precision 4: over a second for one operand), so q = 3, 4
    stop at precision 3."""
    rng = random.Random(400 + precision)
    for pf in (pf2, pf3, pf4):
        if precision > 3 and pf.q > 2:
            continue
        for _ in range(8):
            d = rng.randint(-2, 2)
            lead = pf.from_fq(rand_fq(rng, pf.fq) or pf.fq.one()) * \
                pf.theta() ** rng.randrange(3)
            terms = [(lead, d)] + [
                (rand_kernel_coeff(rng, pf), e)
                for e in rng.sample(range(d - 3, d), rng.randint(1, 3))]
            f = from_right_coeffs(pf, terms)
            if rng.randrange(3) == 0:
                f = f.truncate(d - precision + 1 - rng.randrange(2))
            assert invert_scalar(f, precision) == \
                invert_scalar_geometric(f, precision)


def test_invert_scalar_properties(pf2, pf3):
    """Extending the precision only adds terms below the old floor, and
    f * f^-1 agrees with 1 above its floor."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=60, deadline=None, database=None,
                         derandomize=True)
    @hypothesis.given(seed=st.integers(0, 2 ** 32 - 1),
                      q3=st.booleans(),
                      multi_term=st.booleans(),
                      precision=st.integers(1, 4),
                      extra=st.integers(0, 2))
    def check(seed, q3, multi_term, precision, extra):
        pf = pf3 if q3 else pf2
        rng = random.Random(seed)
        f = with_lead(rng, pf, random_lead(rng, pf, multi_term))
        inv = invert_scalar(f, precision)
        assert invert_scalar(f, precision + extra).truncate(inv.floor) \
            == inv
        assert (f * inv).agrees_with(SkewLaurent.one(pf))

    check()


class TestRingAxioms:
    def test_associativity_distributivity(self, pf2, pf3):
        rng = random.Random(28)
        for pf in (pf2, pf3):
            for _ in range(80):
                f = rand_skew(rng, pf)
                g = rand_skew(rng, pf)
                h = rand_skew(rng, pf)
                assert (f * g) * h == f * (g * h)
                assert f * (g + h) == f * g + f * h
                assert (f + g) * h == f * h + g * h

    def test_coeff0_bilinear(self, pf3):
        rng = random.Random(29)
        for _ in range(100):
            f = rand_skew(rng, pf3)
            r = rand_perf(rng, pf3)
            scal = SkewLaurent.scalar(pf3, r)
            assert (scal * f).coeff(0) == r * f.coeff(0)
            assert (f * scal).coeff(0) == f.coeff(0) * r

    def test_perfection_rewriting(self, pf2, pf3):
        # sigma^e a tau^e = a^(1/q^e) for level-0 a
        rng = random.Random(30)
        for pf in (pf2, pf3):
            for _ in range(50):
                a = rand_perf(rng, pf, max_deg=2, max_level=0)
                for e in (1, 2, 3):
                    lhs = SkewLaurent.sigma(pf, e) * \
                        SkewLaurent.scalar(pf, a) * SkewLaurent.tau(pf, e)
                    assert lhs == SkewLaurent.scalar(
                        pf, a.q_power_iter(-e))


def test_rendering(pf2):
    th = pf2.theta()
    f = from_right_coeffs(
        pf2, [(th.q_root(), -2), (pf2.one(), 0), (th, 1)])
    assert str(f) == "sigma^2 * theta^(1/2) + 1 + tau * theta"
    g = SkewLaurent(pf2, {0: pf2.one()}, floor=-2)
    assert str(g) == "1 + O(sigma^3)"
    assert str(SkewLaurent.zero(pf2)) == "0"
