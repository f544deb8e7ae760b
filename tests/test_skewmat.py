"""Matrices over the twisted ring: products, sigma-order bookkeeping, and
series inversion by left-row-operation elimination."""

import random

import pytest

from taures import skewmat
from taures.anderson import carlitz_tensor, drinfeld, maurischat
from taures.errors import DimensionError, NotInvertibleError, PrecisionError
from taures.fields import Fq, PerfField
from taures.parsing import parse_skew_row
from taures.skew import NEG_INF, SkewLaurent
from taures.skewmat import (SkewMatrix, _eliminate, invert_series_matrix,
                            mat_mul)

from conftest import (eliminate_reference, from_right_coeffs,
                      invert_series_matrix_reference, mat_mul_reference,
                      rand_kernel_skew, rand_perf, rand_perf_nonzero,
                      rand_skew, rand_skew_monomial_lead)


def carlitz_tensor_matrix(pf, d):
    zero = SkewLaurent.zero(pf)
    one = SkewLaurent.one(pf)
    th = SkewLaurent.scalar(pf, pf.theta())
    ent = [[zero for _ in range(d)] for _ in range(d)]
    for i in range(d):
        ent[i][i] = th
        if i + 1 < d:
            ent[i][i + 1] = one
    ent[d - 1][0] = ent[d - 1][0] + SkewLaurent.tau(pf)
    return SkewMatrix(pf, ent)


class TestMatMul:
    def test_identity(self, pf3):
        rng = random.Random(31)
        a = SkewMatrix(pf3, [[rand_skew(rng, pf3) for _ in range(3)]
                             for _ in range(3)])
        eye = SkewMatrix.identity(pf3, 3)
        assert mat_mul(eye, a) == a
        assert mat_mul(a, eye) == a

    def test_1x1_reduces_to_mul(self, pf3):
        rng = random.Random(32)
        f = rand_skew(rng, pf3)
        g = rand_skew(rng, pf3)
        prod = mat_mul(SkewMatrix(pf3, [[f]]), SkewMatrix(pf3, [[g]]))
        assert prod[0, 0] == f * g

    def test_dimension_mismatch(self, pf3):
        a = SkewMatrix.identity(pf3, 2)
        b = SkewMatrix.identity(pf3, 3)
        with pytest.raises(DimensionError):
            mat_mul(a, b)

    def test_floor_equals_truncated_product(self, pf2, pf3):
        rng = random.Random(33)

        def entry(pf):
            e = rand_skew(rng, pf)
            return e.truncate(rng.randint(-5, 4)) if rng.randrange(2) else e

        for pf in (pf2, pf3):
            for _ in range(20):
                n, m, p = (rng.randint(1, 3) for _ in range(3))
                a = SkewMatrix(pf, [[entry(pf) for _ in range(m)]
                                    for _ in range(n)])
                b = SkewMatrix(pf, [[entry(pf) for _ in range(p)]
                                    for _ in range(m)])
                w = rng.randint(-6, 6)
                assert mat_mul(a, b, floor=w) == mat_mul(a, b).truncate(w)

    def test_sparse_sum_matches_fold(self, pf2, pf3):
        # skipping exact zeros and summing each entry in one dict gives
        # the fold of every product: same terms, same floor
        rng = random.Random(35)

        def entry(pf):
            kind = rng.randrange(4)
            if kind == 0:
                return SkewLaurent.zero(pf)
            if kind == 1:
                return SkewLaurent(pf, {}, rng.randint(-4, 2))
            e = rand_skew(rng, pf)
            return e.truncate(rng.randint(-5, 4)) if kind == 2 else e

        for pf in (pf2, pf3):
            for _ in range(40):
                n, m, p = (rng.randint(1, 4) for _ in range(3))
                a = SkewMatrix(pf, [[entry(pf) for _ in range(m)]
                                    for _ in range(n)])
                b = SkewMatrix(pf, [[entry(pf) for _ in range(p)]
                                    for _ in range(m)])
                for w in (NEG_INF, rng.randint(-6, 6)):
                    assert mat_mul(a, b, floor=w) == \
                        mat_mul_reference(a, b, floor=w)

    def test_kernel_matches_fold(self, pf2, pf3, pf4):
        # entries with unit, monomial and general denominators at levels
        # 0..3, exact zeros and truncated entries, each entry one fused
        # sum against the product-by-product fold
        rng = random.Random(36)
        for pf in (pf2, pf3, pf4):
            for _ in range(12):
                n, m, p = (rng.randint(1, 3) for _ in range(3))
                a = SkewMatrix(pf, [[rand_kernel_skew(rng, pf)
                                     for _ in range(m)] for _ in range(n)])
                b = SkewMatrix(pf, [[rand_kernel_skew(rng, pf)
                                     for _ in range(p)] for _ in range(m)])
                for w in (NEG_INF, rng.randint(-6, 6)):
                    assert mat_mul(a, b, floor=w) == \
                        mat_mul_reference(a, b, floor=w)

    def test_noncommutative_order(self, pf3):
        # scalar theta times tau: order matters entrywise
        th = SkewMatrix(pf3, [[SkewLaurent.scalar(pf3, pf3.theta())]])
        tau = SkewMatrix(pf3, [[SkewLaurent.tau(pf3)]])
        assert mat_mul(th, tau) != mat_mul(tau, th)


class TestInvert:
    def test_1x1_drinfeld(self, pf3):
        th = pf3.theta()
        phi = SkewMatrix(pf3, [[from_right_coeffs(
            pf3, [(th, 0), (pf3.one(), 1)])]])
        x = invert_series_matrix(phi, 3)
        e = x[0, 0]
        assert e.coeff(-1).is_one()
        assert e.coeff(-2) == -(th.q_pow())
        assert e.coeff(-3) == th.q_pow().q_pow() * th.q_pow()
        eye = SkewMatrix.identity(pf3, 1)
        assert mat_mul(phi, x).agrees_with(eye)
        assert mat_mul(x, phi).agrees_with(eye)

    def test_carlitz_tensor_structure(self, pf3):
        # inverse decomposes as strictly-lower C0 plus sigma * D with the
        # displayed power pattern and unit upper-right sigma-coefficient
        th = pf3.theta()
        for d in (2, 3, 4):
            phi = carlitz_tensor_matrix(pf3, d)
            x = invert_series_matrix(phi, 3)
            for i in range(d):
                for j in range(d):
                    c0 = x[i, j].coeff(0)
                    if i > j:
                        assert c0 == (-th) ** (i - 1 - j)
                    else:
                        assert not c0
            assert x[0, d - 1].coeff(-1).is_one()
            eye = SkewMatrix.identity(pf3, d)
            assert mat_mul(phi, x).agrees_with(eye)
            assert mat_mul(x, phi).agrees_with(eye)

    def test_round_trip_random_drinfeld(self, pf2, pf3):
        rng = random.Random(33)
        for pf in (pf2, pf3):
            eye = SkewMatrix.identity(pf, 1)
            for _ in range(10):
                r = rng.randint(1, 4)
                terms = [(pf.theta(), 0)]
                for i in range(1, r):
                    terms.append((rand_perf(rng, pf), i))
                terms.append((pf.theta() ** rng.randrange(2) *
                              pf.from_int(1), r))
                phi = SkewMatrix(pf, [[SkewLaurent.from_left_coeffs(
                    pf, terms)]])
                x = invert_series_matrix(phi, 4)
                assert mat_mul(phi, x).agrees_with(eye)
                assert mat_mul(x, phi).agrees_with(eye)

    def test_precision_monotonicity(self, pf3):
        phi = carlitz_tensor_matrix(pf3, 3)
        small = invert_series_matrix(phi, 3)
        big = invert_series_matrix(phi, 8)
        assert big.agrees_with(small)

    def test_drinfeld_inverse_series_expansion(self, pf3):
        # 1x1 inversion against the explicit expansion: the coefficient of
        # sigma^(r+m) is sum over compositions v_1+..+v_n = m (parts <= r,
        # n >= 0) of (-1)^n prod_s (g_(r-v_s)/g_r)^(q^(v_s+..+v_n)), all
        # times 1/g_r on the right
        th = pf3.theta()
        g = [th + pf3.one(), pf3.one(), th]  # g_1, g_2, g_3 = theta
        r = 3
        full = [th] + g  # g_0 = theta
        terms = [(full[i], i) for i in range(r + 1)]
        phi = SkewMatrix(pf3, [[SkewLaurent.from_left_coeffs(pf3, terms)]])
        x = invert_series_matrix(phi, 6)[0, 0]

        def comps(total):
            if total == 0:
                yield ()
                return
            for v in range(1, min(r, total) + 1):
                for rest in comps(total - v):
                    yield (v,) + rest

        g_r = g[-1]
        for m in range(0, 4):
            acc = pf3.zero()
            for comp in comps(m):
                term = pf3.one()
                suffix = sum(comp)
                for v in comp:
                    ratio = full[r - v] / g_r
                    term = term * ratio.q_power_iter(suffix)
                    suffix -= v
                if len(comp) % 2:
                    term = -term
                acc = acc + term
            expect = acc * (pf3.one() / g_r)
            assert x.coeff(-(r + m)) == expect, m

    def test_not_invertible(self, pf3):
        zero = SkewLaurent.zero(pf3)
        sing = SkewMatrix(pf3, [[SkewLaurent.one(pf3), zero],
                                [SkewLaurent.one(pf3), zero]])
        with pytest.raises(NotInvertibleError):
            invert_series_matrix(sing, 2)

    def test_monomial_pivots_prove_singularity(self, pf3):
        # the pivot 1 has an exact inverse, so eliminating row 2 of
        # [[1, tau], [1, tau]] leaves an exactly zero column
        one = SkewLaurent.one(pf3)
        tau = SkewLaurent.tau(pf3)
        sing = SkewMatrix(pf3, [[one, tau], [one, tau]])
        with pytest.raises(NotInvertibleError, match="column 1 is zero"):
            invert_series_matrix(sing, 2)

    def test_binomial_pivot_singularity_stays_a_precision_error(self, pf3):
        # the pivot theta + tau has no exact inverse, only a truncated one,
        # so the second column is known to vanish only above the working
        # floor at every escalation: pinned as PrecisionError
        th = SkewLaurent.scalar(pf3, pf3.theta())
        tau = SkewLaurent.tau(pf3)
        row = [th + tau, tau * th]
        sing = SkewMatrix(pf3, [row, row])
        with pytest.raises(PrecisionError, match="column 1 vanishes"):
            invert_series_matrix(sing, 2)

    def test_truncated_zero_column_escalates(self, pf2, pf3):
        # after the exact pivot 1 clears row 1, the second column is known
        # only to vanish above its floors: a precision shortfall, which
        # the escalation loop retries, not a proof of non-invertibility
        for pf in (pf2, pf3):
            one = SkewLaurent.one(pf)
            tau = SkewLaurent.tau(pf)
            for floor in (-3, 0, 1):
                phi = SkewMatrix(pf, [[one, tau],
                                      [one, tau + SkewLaurent(pf, {},
                                                              floor)]])
                with pytest.raises(PrecisionError,
                                   match="column 1 vanishes"):
                    _eliminate(phi, 1)
            # Maurischat inverts at precision 1 and agrees with precision 2
            phi = maurischat(pf, pf.theta()).phi_t
            x1 = invert_series_matrix(phi, 1)
            assert x1.max_floor() <= -1
            assert x1.agrees_with(invert_series_matrix(phi, 2))

    @pytest.mark.parametrize("q,rows,works", [
        (3, ["theta + tau^2 | tau^2", "1 | 1"], [1, 2, 5]),
        (2, ["tau * theta^2 + tau^2 * theta^2 | tau + tau^2 | 1 + tau * theta",
             "theta^2 | theta | 0",
             "tau * (theta^2 + theta) | tau + tau^2 * theta^2 | 0"],
         [1, 2, 3]),
    ])
    def test_escalation_succeeds(self, monkeypatch, q, rows, works):
        # precision 1 needs both retries of the escalation: at q = 3 the
        # pass at work 1 finds column 1 vanished (work doubles) and the
        # one at work 2 ends at floor 2 (work grows by the deficit 3); at
        # q = 2 the passes at work 1 and 2 each miss the floor by 1
        pf = PerfField(Fq(q))
        phi = SkewMatrix(pf, [parse_skew_row(r, pf) for r in rows])
        seen = []
        eliminate = skewmat._eliminate

        def counted(phi, work):
            seen.append(work)
            return eliminate(phi, work)

        monkeypatch.setattr(skewmat, "_eliminate", counted)
        x = invert_series_matrix(phi, 1)
        assert seen == works
        assert x == invert_series_matrix_reference(
            SkewMatrix(pf, phi.entries), 1)

    def test_rejects_non_square(self, pf3):
        mat = SkewMatrix.zeros(pf3, 2, 3)
        with pytest.raises(DimensionError):
            invert_series_matrix(mat, 2)


def reference_modules():
    """Carlitz-tensor d = 1..10 at q = 2 and 1..6 at q = 3, Maurischat
    and the Drinfeld family r = 1..6 at q = 2, 3, 5, and seeded random
    Drinfeld modules of rank 1..3."""
    pf2, pf3, pf5 = (PerfField(Fq(q)) for q in (2, 3, 5))
    cases = [carlitz_tensor(pf2, pf2.theta(), d) for d in range(1, 11)]
    cases += [carlitz_tensor(pf3, pf3.theta(), d) for d in range(1, 7)]
    rng = random.Random(71)
    for pf in (pf2, pf3, pf5):
        th = pf.theta()
        cases.append(maurischat(pf, th))
        for r in range(1, 7):
            cases.append(drinfeld(pf, th, [th + pf.one()] * (r - 1) + [th]))
        for r in (1, 2, 3):
            # a theta-power leading coefficient keeps precision 6 cheap
            g = [rand_perf(rng, pf) for _ in range(r - 1)]
            lead = rand_perf_nonzero(rng, pf, max_deg=0, max_level=0)
            g.append(lead * th ** rng.randrange(3))
            cases.append(drinfeld(pf, th, g, name="random-drinfeld"))
    return cases


class TestInvertReference:
    def test_matches_relative_depth_reference(self):
        # sizing pivots from the target changes the work, not the inverse
        for E in reference_modules():
            for precision in range(1, 7):
                assert invert_series_matrix(E.phi_t, precision) == \
                    invert_series_matrix_reference(E.phi_t, precision), \
                    (E.name, E.pf.q, precision)

    def test_matches_reference_with_two_term_leads(self):
        rng = random.Random(72)
        for q in (2, 3):
            pf = PerfField(Fq(q))
            th = pf.theta()
            for r in (1, 2, 3):
                g = [rand_perf(rng, pf) for _ in range(r - 1)]
                g.append(th + pf.one())
                phi = drinfeld(pf, th, g).phi_t
                for precision in range(1, 4):
                    assert invert_series_matrix(phi, precision) == \
                        invert_series_matrix_reference(phi, precision)

    def test_sparse_elimination_matches_dense(self):
        # seeded matrices of dim 1..4 at q = 2, 3, 4: a third or more of
        # the entries exact zeros, a quarter of the rest truncated, and in
        # each row one entry of tau-degree 3..4 with a theta-power lead in
        # a random column, over entries of degree <= 1; so every pivot has
        # a monomial lead, many columns pivot on a row swap, and a cleared
        # entry left of a pivot can have a higher degree than the live
        # rest of its row.  Each pass, floors included, is the dense one,
        # and so is each inverse
        rng = random.Random(74)
        fields = [PerfField(Fq(2)), PerfField(Fq(3)),
                  PerfField(Fq(4, [1, 1, 1]))]

        def outcome(fn, *args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except (NotInvertibleError, PrecisionError) as err:
                return type(err), str(err)

        swaps = 0
        for trial in range(60):
            pf = fields[trial % 3]
            n = 1 + trial % 4
            perm = rng.sample(range(n), n)
            swaps += perm[0] != 0
            off = [(i, j) for i in range(n) for j in range(n)
                   if j != perm[i]]
            zeros = set(rng.sample(off, -(-n * n // 3) if n > 1 else 0))
            entries = [[SkewLaurent.zero(pf)] * n for _ in range(n)]
            for i in range(n):
                for j in range(n):
                    if (i, j) in zeros:
                        continue
                    lo, hi = (3, 4) if j == perm[i] else (-2, 1)
                    e = rand_skew_monomial_lead(rng, pf, lo=lo, hi=hi,
                                                max_deg=0)
                    if rng.random() < 0.25:
                        e = e.truncate(int(e.deg_tau()) - rng.randint(2, 6))
                    entries[i][j] = e
            phi = SkewMatrix(pf, entries)
            for precision in range(1, 6):
                assert outcome(_eliminate, phi, precision) == \
                    outcome(eliminate_reference, phi, precision, sized=True), \
                    (trial, precision)
                assert outcome(invert_series_matrix,
                               SkewMatrix(pf, entries), precision) == \
                    outcome(invert_series_matrix_reference, phi, precision), \
                    (trial, precision)
        assert swaps >= 20

    def test_one_elimination_pass_per_call(self, monkeypatch):
        passes = []
        eliminate = skewmat._eliminate

        def counted(phi, work):
            passes[-1] += 1
            return eliminate(phi, work)

        monkeypatch.setattr(skewmat, "_eliminate", counted)
        for E in reference_modules():
            for precision in range(1, 7):
                passes.append(0)
                invert_series_matrix(E.phi_t, precision)
                assert passes[-1] <= 1, (E.name, E.pf.q, precision)


class TestInverseCache:
    """phi keeps the deepest inverse certified for it; shallower requests
    are truncations of it, deeper ones eliminate again."""

    def test_either_order_matches_reference(self):
        for E in reference_modules():
            ref = {p: invert_series_matrix_reference(E.phi_t, p)
                   for p in range(1, 7)}
            for deep in range(2, 7):
                for shallow in range(1, deep):
                    for order in ((deep, shallow), (shallow, deep)):
                        # a fresh copy of phi(t), with nothing kept on it
                        phi = SkewMatrix(E.pf, E.phi_t.entries)
                        for p in order:
                            assert invert_series_matrix(phi, p) == ref[p], \
                                (E.name, E.pf.q, order, p)

    def test_deeper_request_eliminates_again(self, pf2, pf3, monkeypatch):
        passes = [0]
        eliminate = skewmat._eliminate

        def counted(phi, work):
            passes[0] += 1
            return eliminate(phi, work)

        monkeypatch.setattr(skewmat, "_eliminate", counted)
        for pf in (pf2, pf3):
            th = pf.theta()
            for E in (maurischat(pf, th), carlitz_tensor(pf, th, 3),
                      drinfeld(pf, th, [th + pf.one(), th])):
                passes[0] = 0
                for p, total in ((3, 1), (1, 1), (2, 1), (3, 1), (4, 2),
                                 (2, 2), (4, 2), (6, 3)):
                    invert_series_matrix(E.phi_t, p)
                    assert passes[0] == total, (E.name, pf.q, p)


class TestMaxDegTau:
    def test_examples(self, pf3):
        eye = SkewMatrix.identity(pf3, 2)
        assert eye.max_deg_tau() == 0
        s_eye = eye.map(lambda e: SkewLaurent.sigma(pf3) * e)
        assert s_eye.max_deg_tau() == -1
        assert SkewMatrix.zeros(pf3, 2, 2).max_deg_tau() == float("-inf")
        th = pf3.theta()
        phi = SkewMatrix(pf3, [[from_right_coeffs(
            pf3, [(th, 0), (pf3.one(), 1)])]])
        assert invert_series_matrix(phi, 3).max_deg_tau() == -1

    def test_subadditive(self, pf3):
        rng = random.Random(34)
        for _ in range(50):
            a = SkewMatrix(pf3, [[rand_skew(rng, pf3, lo=-3, hi=1)
                                  for _ in range(2)] for _ in range(2)])
            b = SkewMatrix(pf3, [[rand_skew(rng, pf3, lo=-3, hi=1)
                                  for _ in range(2)] for _ in range(2)])
            assert mat_mul(a, b).max_deg_tau() <= \
                a.max_deg_tau() + b.max_deg_tau()


def test_render(pf3):
    th = SkewLaurent.scalar(pf3, pf3.theta())
    m = SkewMatrix(pf3, [[th, SkewLaurent.one(pf3)],
                         [SkewLaurent.tau(pf3), SkewLaurent.zero(pf3)]])
    assert m.render() == "theta | 1\ntau | 0"
