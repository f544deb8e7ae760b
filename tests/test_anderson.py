"""Anderson module layer: axiom validation, the F_q[t]-action and its
negative powers, and the convergence constant."""

import random
import re

import pytest

from taures import anderson, linalg, skewmat
from taures.errors import ConvergenceError, FieldError
from taures.fields import Fq, PerfField, SPoly
from taures.parsing import parse_manifest
from taures.anderson import (AndersonModule, Differential, carlitz,
                             carlitz_tensor, drinfeld, find_k1, max_level,
                             maurischat, phi_inverse_power, phi_of_poly,
                             termination_bound, twist, validate)
from taures.skew import SkewLaurent
from taures.skewmat import SkewMatrix, invert_series_matrix, mat_mul

from conftest import NON_NILPOTENT_C0_MANIFEST, find_k1_reference, \
    positive_degree_manifest, rand_fq, rand_perf, rand_perf_nonzero


class TestValidate:
    def test_maurischat_passes(self, pf3):
        report = validate(maurischat(pf3, pf3.theta()))
        assert report.ok

    def test_carlitz_tensor_passes(self, pf2):
        for d in (1, 2, 4):
            assert validate(carlitz_tensor(pf2, pf2.theta(), d)).ok

    def test_non_nilpotent_fails(self, pf3):
        one = SkewLaurent.one(pf3)
        bad = AndersonModule(
            pf=pf3, theta=pf3.theta(), dim=1,
            phi_t=SkewMatrix(pf3, [[SkewLaurent.tau(pf3)]]),
            motive_basis=[SkewMatrix(pf3, [[one]])],
            comotive_basis=[SkewMatrix(pf3, [[one]])])
        report = validate(bad)
        assert not report.ok
        assert "nilpotent" in report.failure

    def test_sigma_in_phi_fails(self, pf3):
        one = SkewLaurent.one(pf3)
        th = SkewLaurent.scalar(pf3, pf3.theta())
        bad = AndersonModule(
            pf=pf3, theta=pf3.theta(), dim=1,
            phi_t=SkewMatrix(pf3, [[th + SkewLaurent.sigma(pf3)]]),
            motive_basis=[SkewMatrix(pf3, [[one]])],
            comotive_basis=[SkewMatrix(pf3, [[one]])])
        report = validate(bad)
        assert not report.ok
        assert "R[tau]" in report.failure

    def test_basis_length_mismatch_fails(self, pf3):
        car = carlitz(pf3, pf3.theta())
        bad = AndersonModule(
            pf=pf3, theta=pf3.theta(), dim=1,
            phi_t=car.phi_t,
            motive_basis=car.motive_basis + car.motive_basis,
            comotive_basis=car.comotive_basis)
        report = validate(bad)
        assert not report.ok


class TestPhiOfPoly:
    def test_t_and_one(self, pf3):
        car = carlitz(pf3, pf3.theta())
        assert phi_of_poly(car, SPoly.gen(pf3)) == car.phi_t
        assert phi_of_poly(car, SPoly.const(pf3, pf3.one())) == \
            SkewMatrix.identity(pf3, 1)

    def test_carlitz_t_squared(self, pf3):
        th = pf3.theta()
        car = carlitz(pf3, th)
        m = phi_of_poly(car, SPoly(pf3, {2: pf3.one()}))
        e = m[0, 0]
        assert e.coeff(0) == th * th
        assert e.coeff(1).q_pow() == th.q_pow() + th  # left coeff theta^q+theta
        assert e.coeff(2).is_one()

    def test_ring_homomorphism(self, pf2, pf3):
        rng = random.Random(41)
        for pf in (pf2, pf3):
            E = carlitz_tensor(pf, pf.theta(), 2)
            for _ in range(10):
                a = SPoly(pf, {e: pf.from_fq(rand_fq(rng, pf.fq))
                               for e in range(rng.randint(1, 4))})
                b = SPoly(pf, {e: pf.from_fq(rand_fq(rng, pf.fq))
                               for e in range(rng.randint(1, 4))})
                left = phi_of_poly(E, a * b)
                right = mat_mul(phi_of_poly(E, a), phi_of_poly(E, b))
                assert left == right
                assert phi_of_poly(E, a + b) == \
                    phi_of_poly(E, a) + phi_of_poly(E, b)

    def test_rejects_non_constant_coefficients(self, pf3):
        car = carlitz(pf3, pf3.theta())
        bad = SPoly(pf3, {1: pf3.theta()})
        with pytest.raises(FieldError):
            phi_of_poly(car, bad)


class TestPhiInversePower:
    def test_round_trips(self, pf3):
        E = carlitz(pf3, pf3.theta())
        eye = SkewMatrix.identity(pf3, 1)
        for k in (1, 2, 3, 4):
            inv_k = phi_inverse_power(E, k, 4)
            tk = phi_of_poly(E, SPoly(pf3, {k: pf3.one()}))
            assert mat_mul(tk, inv_k).agrees_with(eye)
            assert mat_mul(inv_k, tk).agrees_with(eye)

    def test_tensor_c0_sigma_d(self, pf3):
        E = carlitz_tensor(pf3, pf3.theta(), 3)
        inv = phi_inverse_power(E, 1, 3)
        assert mat_mul(E.phi_t, inv).agrees_with(
            SkewMatrix.identity(pf3, 3))


class TestFindK1:
    def test_drinfeld_is_one(self, pf3):
        rng = random.Random(42)
        for r in (1, 2, 3):
            g = [pf3.from_fq(rand_fq(rng, pf3.fq)) for _ in range(r - 1)]
            g.append(pf3.theta())
            E = drinfeld(pf3, pf3.theta(), g)
            assert find_k1(E) == 1

    def test_tensor_is_d(self, pf2, pf3):
        for pf in (pf2, pf3):
            for d in (1, 2, 3, 4, 5):
                assert find_k1(carlitz_tensor(pf, pf.theta(), d)) == d

    def test_maurischat_frozen(self, pf2, pf3):
        # regression: the search finds 2 (and stays under the bound 3)
        for pf in (pf2, pf3):
            k1 = find_k1(maurischat(pf, pf.theta()))
            assert k1 == 2
            assert k1 <= 3

    def test_window_keeps_cutoffs(self, pf2, pf3):
        # the power chain keeps only tau-exponents >= -1; k1 and K must be
        # those of the full chain
        th = pf2.theta()
        for d in range(1, 11):
            E = carlitz_tensor(pf2, th, d)
            assert find_k1(E) == d
            assert termination_bound(E, d) == 2 * d
        for pf in (pf2, pf3):
            th = pf.theta()
            mau = maurischat(pf, th)
            assert find_k1(mau) == 2
            assert termination_bound(mau, 2) == 8
            for r in (2, 3, 4):
                E = drinfeld(pf, th, [th + pf.one()] * (r - 1) + [th])
                assert find_k1(E) == 1
                assert termination_bound(E, 1) == 2 * r

    def test_matches_unwindowed_reference(self, pf2, pf3):
        # the window at exponent 0 decides the same k1 as the full powers
        cases = [carlitz_tensor(pf2, pf2.theta(), d) for d in range(1, 11)]
        cases += [carlitz_tensor(pf3, pf3.theta(), d) for d in range(1, 7)]
        rng = random.Random(44)
        for pf in (pf2, pf3, PerfField(Fq(5))):
            th = pf.theta()
            cases.append(maurischat(pf, th))
            for r in range(2, 7):
                cases.append(drinfeld(pf, th,
                                      [th + pf.one()] * (r - 1) + [th]))
            for r in (1, 2, 3):
                g = [rand_perf(rng, pf) for _ in range(r - 1)]
                cases.append(drinfeld(pf, th,
                                      g + [rand_perf_nonzero(rng, pf)]))
        for E in cases:
            assert find_k1(E) == find_k1_reference(E), E.name

    def test_minimality(self, pf3):
        for d in (2, 3):
            E = carlitz_tensor(pf3, pf3.theta(), d)
            k1 = find_k1(E)
            inv = invert_series_matrix(E.phi_t, 3)
            acc = inv
            for _ in range(k1 - 2):
                acc = mat_mul(acc, inv)
            assert acc.max_deg_tau() >= 0

    def test_cap_error(self, pf2, pf3):
        # k1 = d is the nilpotency index of C0: any cap below it fails
        E = carlitz_tensor(pf3, pf3.theta(), 4)
        with pytest.raises(ConvergenceError):
            find_k1(E, cap=2)
        for pf in (pf2, pf3):
            E = carlitz_tensor(pf, pf.theta(), 5)
            for cap in (0, 1, 4):
                with pytest.raises(ConvergenceError,
                                   match="within cap {}$".format(cap)):
                    find_k1(E, cap=cap)
            assert find_k1(E, cap=5) == find_k1(E, cap=64) == 5

    def test_non_nilpotent_c0_fails_at_once(self, monkeypatch):
        # C0 = diag(1/theta, 0) is not nilpotent: C0^dim != 0 settles the
        # error after dim - 1 products, without running the cap out
        E = parse_manifest(NON_NILPOTENT_C0_MANIFEST).module
        assert validate(E).ok
        products = []

        def counted(*args, _mul=linalg.mat_mul):
            products.append(1)
            return _mul(*args)

        monkeypatch.setattr(linalg, "mat_mul", counted)
        with pytest.raises(ConvergenceError, match=re.escape(
                "C0 = coeff_0(phi(t)^-1) is not nilpotent: C0^2 != 0 at "
                "dim 2, so no k1 exists")):
            find_k1(E)
        assert len(products) == E.dim - 1

    def test_no_power_chain_without_positive_degree(self, pf2, pf3,
                                                    monkeypatch):
        # tau-degree D <= 0: k1 is read off powers of the constant matrix
        # C0, so no skew matrix product is formed
        calls = []
        for mod in (anderson, skewmat):
            def counted(*args, _mul=mod.mat_mul, **kwargs):
                calls.append(1)
                return _mul(*args, **kwargs)
            monkeypatch.setattr(mod, "mat_mul", counted)
        for pf in (pf2, pf3):
            th = pf.theta()
            cases = [(carlitz_tensor(pf, th, d), d) for d in range(1, 9)]
            cases += [(maurischat(pf, th), 2)]
            cases += [(drinfeld(pf, th, [th + pf.one()] * (r - 1) + [th]), 1)
                      for r in range(1, 5)]
            for E, k1 in cases:
                assert find_k1(E) == k1, E.name
        assert calls == []
        # D > 0 keeps the chain of rebuilt powers
        E = parse_manifest(positive_degree_manifest(2)).module
        assert find_k1(E) == 2 and calls


class TestConstMatMul:
    def test_matches_dense_product(self, pf2, pf3):
        rng = random.Random(46)
        for pf in (pf2, pf3):
            for n in (1, 2, 3, 5):
                a, b = ([[rand_perf(rng, pf) if rng.randrange(3) else
                          pf.zero() for _ in range(n)] for _ in range(n)]
                        for _ in range(2))
                dense = [[sum((a[i][k] * b[k][j] for k in range(n)),
                              pf.zero()) for j in range(n)]
                         for i in range(n)]
                assert linalg.mat_mul(a, b, pf.zero()) == dense


class TestPositiveDegreeInverse:
    """phi(t)^-1 of tau-degree D = 1: powers lose D floor per factor, so
    both phi_inverse_power and find_k1 need the inversion deepened."""

    @pytest.mark.parametrize("q,k1", [(2, 2), (3, 3), (5, 3)])
    def test_find_k1_matches_reference(self, q, k1):
        E = parse_manifest(positive_degree_manifest(q)).module
        assert validate(E).ok
        assert invert_series_matrix(E.phi_t, 3).max_deg_tau() == 1
        assert find_k1(E) == find_k1_reference(E, precision=8) == k1

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_powers_match_deep_inverse(self, q):
        E = parse_manifest(positive_degree_manifest(q)).module
        inv = invert_series_matrix(E.phi_t, 12)
        acc = inv
        for k in (2, 3, 4):
            acc = mat_mul(acc, inv)
            assert phi_inverse_power(E, k, 3) == acc.truncate(-3), k


class TestTermination:
    def test_bounds(self, pf3):
        th = pf3.theta()
        assert termination_bound(carlitz(pf3, th), 1) == 2
        assert termination_bound(carlitz_tensor(pf3, th, 4), 4) == 8
        mau = maurischat(pf3, th)
        assert termination_bound(mau, find_k1(mau)) == 8


class TestRPolyHelpers:
    """R^perf[t] values are SPoly over PerfField; twist and max_level are
    the helpers the pairing adds."""

    def test_arithmetic(self, pf3):
        th = pf3.theta()
        t = SPoly.gen(pf3)
        a = t * t + SPoly.const(pf3, th)
        b = t - SPoly.const(pf3, pf3.one())
        assert (a * b).coeff(3).is_one()
        assert (a - a) == SPoly(pf3, {})
        assert twist(a, 1).coeff(0) == th.q_pow()
        assert twist(a, 1).coeff(2).is_one()
        assert twist(twist(a, 1), -1) == a

    def test_render(self, pf3):
        th = pf3.theta()
        g = SPoly(pf3, {0: th.q_pow() + th, 1: -(pf3.from_int(2))})
        assert str(g) == "t + theta^3 + theta"
        assert str(Differential(g)) == "t + theta^3 + theta dt"
        assert str(SPoly(pf3, {})) == "0"

    def test_render_fraction_coefficient(self, pf3):
        inv_th = pf3.one() / pf3.theta()
        g = SPoly(pf3, {1: inv_th})
        assert str(Differential(g)) == "(1/theta)*t dt"
        assert str(SPoly(pf3, {1: inv_th, 0: inv_th})) == \
            "(1/theta)*t + 1/theta"

    def test_max_level(self, pf3):
        th = pf3.theta()
        assert max_level(SPoly(pf3, {})) == 0
        assert max_level(SPoly(pf3, {0: th, 2: th.q_root().q_root()})) == 2
