"""The commutative linear-algebra kernel against dense references:
cofactor det against the Leibniz sum, and the nilpotency index against
naive powers."""

import random

import pytest

from taures import linalg
from taures.errors import DimensionError
from taures.fields import Fq, SPoly

from conftest import det_reference, nilpotency_index_reference, rand_fq

FIELDS = [(2, None), (3, None), (4, [1, 1, 1]), (5, None)]


def rand_entry(rng, fq, poly, density):
    if rng.random() >= density:
        return SPoly(fq, {}) if poly else fq.zero()
    if not poly:
        return rand_fq(rng, fq)
    return SPoly(fq, {e: rand_fq(rng, fq) for e in range(rng.randrange(3))})


@pytest.mark.parametrize("q,modulus", FIELDS)
def test_det_matches_leibniz(q, modulus):
    # over F_q and F_q[t], sparse to dense, n <= 4
    rng = random.Random("det:{}".format(q))
    fq = Fq(q, modulus)
    for poly in (False, True):
        zero = SPoly(fq, {}) if poly else fq.zero()
        for n in range(1, 5):
            for density in (0.3, 0.7, 1.0):
                rows = [[rand_entry(rng, fq, poly, density)
                         for _ in range(n)] for _ in range(n)]
                assert linalg.det(rows) == det_reference(rows, zero)


def test_det_of_empty_matrix_is_refused():
    with pytest.raises(DimensionError, match="empty matrix"):
        linalg.det([])


def test_nilpotency_index_matches_naive_powers():
    rng = random.Random(7)
    for q, modulus in FIELDS:
        fq = Fq(q, modulus)
        zero = fq.zero()
        for n in range(1, 7):
            for density in (0.2, 0.6, 1.0):
                strict = [[rand_fq(rng, fq) if j > i and
                           rng.random() < density else zero
                           for j in range(n)] for i in range(n)]
                full = [[rand_fq(rng, fq) if rng.random() < density
                         else zero for _ in range(n)] for _ in range(n)]
                for a in (strict, full):
                    for limit in (n, max(n - 2, 0)):
                        assert linalg.nilpotency_index(a, zero, limit) == \
                            nilpotency_index_reference(a, limit)
                # a strictly triangular matrix is nilpotent by a^n
                assert linalg.nilpotency_index(strict, zero, n) is not None
        # the identity is not nilpotent
        one = fq.one()
        eye = [[one if i == j else zero for j in range(3)] for i in range(3)]
        assert linalg.nilpotency_index(eye, zero, 3) is None


def test_nilpotency_index_stops_at_first_zero_power(monkeypatch):
    # a single Jordan block of size n has index n: n - 1 products
    fq = Fq(3)
    one, zero = fq.one(), fq.zero()
    products = []

    def counted(*args, _mul=linalg.mat_mul):
        products.append(1)
        return _mul(*args)

    monkeypatch.setattr(linalg, "mat_mul", counted)
    shift = [[one if j == i + 1 else zero for j in range(4)]
             for i in range(4)]
    assert linalg.nilpotency_index(shift, zero, 10) == 4
    assert len(products) == 3
