"""Naturality oracles for the Gram matrix: a module isomorphic to phi by
an elementary change of coordinates has phi's Gram matrix, and a module
whose data are raised to the q^j power has the q^j twist of it."""

import re

import pytest

from taures import anderson
from taures.anderson import (AndersonModule, carlitz, carlitz_tensor,
                             drinfeld, maurischat)
from taures.errors import PrecisionError
from taures.fields import Fq, PerfField
from taures.pairing import gram
from taures.skew import SkewLaurent
from taures.skewmat import SkewMatrix, mat_mul


def elementary(pf, d, x, i, j):
    """I + x*E_ij over R{tau}; for i != j its inverse is I - x*E_ij."""
    one, zero = SkewLaurent.one(pf), SkewLaurent.zero(pf)
    return SkewMatrix(pf, [[one if a == b else x if (a, b) == (i, j)
                            else zero for b in range(d)] for a in range(d)])


def conjugate(module, x, i, j):
    """phi' = U phi U^-1, U = I + x*E_ij, with bases m*U^-1 and U*n:
    isomorphic to phi, so every pairing of its bases is phi's."""
    pf, d = module.pf, module.dim
    u = elementary(pf, d, x, i, j)
    u_inv = elementary(pf, d, -x, i, j)
    return AndersonModule(
        pf=pf, theta=module.theta, dim=d,
        phi_t=mat_mul(mat_mul(u, module.phi_t), u_inv),
        motive_basis=[mat_mul(m, u_inv) for m in module.motive_basis],
        comotive_basis=[mat_mul(u, n) for n in module.comotive_basis])


def frobenius(module, j):
    """theta, every coefficient of phi(t) and both bases raised to the
    q^j power."""
    pf = module.pf

    def twist(f):
        return SkewLaurent(pf, {e: c.q_power_iter(j)
                                for e, c in f.coeffs.items()}, f.floor)

    return AndersonModule(
        pf=pf, theta=module.theta.q_power_iter(j), dim=module.dim,
        phi_t=module.phi_t.map(twist),
        motive_basis=[m.map(twist) for m in module.motive_basis],
        comotive_basis=[n.map(twist) for n in module.comotive_basis])


def polys(g):
    return [[e.poly for e in row] for row in g.entries]


@pytest.mark.parametrize("q", [2, 3])
def test_gram_is_invariant_under_isomorphism(q):
    """Maurischat and carlitz-tensor d = 2, 3, conjugated by each
    I + c*tau^e*E_ij (i != j, c in {1, theta}, e in {0, 1, 2}): gram
    either refuses phi'(t)^-1 for a positive tau-degree, or returns phi's
    entries; K may differ, since k1 and the bases' degrees do."""
    pf = PerfField(Fq(q))
    th = pf.theta()
    equal = refused = 0
    for module in (maurischat(pf, th), carlitz_tensor(pf, th, 2),
                   carlitz_tensor(pf, th, 3)):
        expected = polys(gram(module))
        d = module.dim
        for c in (pf.one(), th):
            for e in (0, 1, 2):
                x = SkewLaurent.from_left_coeffs(pf, [(c, e)])
                for i in range(d):
                    for j in range(d):
                        if i == j:
                            continue
                        try:
                            g = gram(conjugate(module, x, i, j))
                        except PrecisionError as err:
                            found = re.search(r"tau-degree (\d+) > 0",
                                              str(err))
                            assert found and int(found.group(1)) > 0
                            refused += 1
                            continue
                        assert polys(g) == expected, (module.name, c, e,
                                                      i, j)
                        equal += 1
    assert equal and refused


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("j", [1, 2, -1])
def test_gram_commutes_with_frobenius(q, j):
    """Raising theta, phi(t) and both bases to the q^j power twists every
    Gram entry by q^j, with the same cut-off K."""
    pf = PerfField(Fq(q))
    th = pf.theta()
    modules = [carlitz(pf, th), carlitz_tensor(pf, th, 2),
               carlitz_tensor(pf, th, 3), maurischat(pf, th),
               drinfeld(pf, th, [th + pf.one(), th]),
               drinfeld(pf, th, [th + pf.one(), th + pf.one(), th])]
    for module in modules:
        g = gram(module)
        g_j = gram(frobenius(module, j))
        assert g_j.k_cutoff == g.k_cutoff
        assert polys(g_j) == [[anderson.twist(e, j) for e in row]
                              for row in polys(g)], module.name
