"""The four workloads: case matrices built from a seed.

A case is one `taures` CLI invocation on one manifest.  Every manifest is
written by a `taures.cli.example_*` constructor; the seed only picks the
random coefficients (drinfeld-gram, lseries-finite) and the order in which
a sweep visits the cases, so the same seed always gives the same inputs.
The family and size grid of each workload is fixed, which keeps the cost
of a sweep nearly independent of the seed.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from taures import cli

QS = (2, 3, 4, 5, 9)

def family_g(r):
    """g_1..g_{r-1} = theta + 1, g_r = theta: the Drinfeld family of the
    ROADMAP baseline, where inversion of phi(t) dominates."""
    return ["theta + 1"] * (r - 1) + ["theta"]


@dataclass(frozen=True)
class Case:
    name: str       # unique and spells out every input
    manifest: str   # manifest text
    args: tuple     # CLI arguments after the manifest path
    check: str      # oracle kind, see oracles.py

    @property
    def command(self):
        return self.args[0]

    @property
    def manifest_file(self):
        return "m-{}.man".format(
            hashlib.sha256(self.manifest.encode()).hexdigest()[:16])

    def argv(self, workdir):
        return [self.args[0], "{}/{}".format(workdir, self.manifest_file)] \
            + list(self.args[1:])


def _phi(man):
    return " || ".join(man.phi_rows)


def fq_units(q):
    """The elements of F_q^x as manifest text, for q = p or p^2: the
    element a + b*z is written `b*z + a`."""
    p = 2
    while q % p:
        p += 1
    units = []
    for idx in range(1, q):
        b, a = divmod(idx, p)
        terms = []
        if b:
            terms.append("z" if b == 1 else "{}*z".format(b))
        if a:
            terms.append(str(a))
        units.append(" + ".join(terms))
    return units


def random_g(rng, q, r):
    """Seeded coefficients of the family's shape, other than the family:
    g_i = theta + c_i and g_r = c_r * theta with units c.  Degrees in theta
    match the family, so the cost of a case barely depends on the seed
    (free degrees swing a rank-4 case by 8x).  None for q = 2, where the
    family is the only module of its shape."""
    units = fq_units(q)
    if len(units) == 1:
        return None
    while True:
        g = ["theta + {}".format(rng.choice(units)) for _ in range(r - 1)]
        lead = rng.choice(units)
        g.append("theta" if lead == "1" else "({})*theta".format(lead))
        if g != family_g(r):
            return g


DRINFELD_CHECKS = {"gram": "drinfeld-gram", "perfectness": "perfect"}


def drinfeld_gram(rng):
    """gram, perfectness and invert --order 2r on Drinfeld modules of rank
    2..4: the family module at every (q, r), and one seeded random module
    per q > 2 at rank 3.

    Rank 4 inverts phi(t) deep enough for inversion to dominate (0.3-0.9 s
    a case), so these cases set latency_p90_ms and most of a sweep's
    time.  Rank 3 sets the median: the case counts put both percentiles
    inside a rank's cluster of case times, not in the gap between two.
    Seeded rank-4 modules, even of the family's shape, vary 2x in cost
    with the seed, so rank 4 runs the family only.
    """
    cases = []
    for q in QS:
        for r, family_commands, random_commands in (
                (2, ("gram", "perfectness", "invert"), ()),
                (3, ("gram", "perfectness", "invert"), ("gram", "invert")),
                (4, ("gram", "invert"), ())):
            seeded = random_g(rng, q, r) if random_commands else None
            for g, commands in ((family_g(r), family_commands),
                                (seeded, random_commands)):
                if g is None:
                    continue
                man = cli.example_drinfeld(q=q, r=r, g_texts=g)
                text = cli.render_manifest(man)
                base = "drinfeld q={} phi={}".format(q, _phi(man))
                for command in commands:
                    if command == "invert":
                        order = str(2 * r)
                        cases.append(Case(
                            "invert --order {} {}".format(order, base),
                            text, ("invert", "--order", order), "invert"))
                    else:
                        cases.append(Case(
                            "{} {}".format(command, base), text, (command,),
                            DRINFELD_CHECKS[command]))
    return cases


# Tensor powers with find_k1 work growing in d; d = 7..10 cost 1-4 s each,
# so only one of d = 8 and d = 10 enters a sweep.
TENSOR_GRID = {2: (2, 3, 4, 5, 6, 10), 3: (2, 3, 4, 5, 6, 8),
               4: (2, 3, 4, 5), 5: (2, 3, 4, 5), 9: (2, 3, 4, 5)}
TENSOR_PERFECTNESS_MAX_D = 4


def tensor_gram(rng):
    """gram and perfectness on carlitz-tensor and maurischat."""
    cases = []
    for q in QS:
        for d in TENSOR_GRID[q]:
            text = cli.render_manifest(cli.example_carlitz_tensor(q=q, d=d))
            base = "carlitz-tensor q={} d={}".format(q, d)
            cases.append(Case("gram " + base, text, ("gram",),
                              "tensor-gram"))
            if d <= TENSOR_PERFECTNESS_MAX_D:
                cases.append(Case("perfectness " + base, text,
                                  ("perfectness",), "perfect"))
        text = cli.render_manifest(cli.example_maurischat(q=q))
        base = "maurischat q={}".format(q)
        cases.append(Case("gram " + base, text, ("gram",), "gram"))
        cases.append(Case("perfectness " + base, text, ("perfectness",),
                          "perfect"))
    return cases


# Deepest tau^k per q: Carlitz k = 8 takes 12 s at q = 2, and q >= 4
# reaches the same coefficient sizes one step earlier.
PAIR_MAX_K = {2: 6, 3: 6, 4: 5, 5: 5, 9: 5}
TENSOR_PAIR_MAX_K = 2


def pair_depth(rng):
    """pair --m tau^k --n tau^k on Carlitz and on carlitz-tensor d = 2, 3."""
    cases = []
    for q in QS:
        text = cli.render_manifest(cli.example_carlitz(q=q))
        for k in range(1, PAIR_MAX_K[q] + 1):
            t = "tau^{}".format(k)
            cases.append(Case("pair carlitz q={} m={} n={}".format(q, t, t),
                              text, ("pair", "--m", t, "--n", t), "golden"))
        for d in (2, 3):
            text = cli.render_manifest(cli.example_carlitz_tensor(q=q, d=d))
            zeros = " | ".join(["0"] * (d - 1))
            for k in range(1, TENSOR_PAIR_MAX_K + 1):
                m = "tau^{} | {}".format(k, zeros)
                n = "{} | tau^{}".format(zeros, k)
                cases.append(Case(
                    "pair carlitz-tensor q={} d={} m={} n={}".format(
                        q, d, m, n),
                    text, ("pair", "--m", m, "--n", n), "golden"))
    return cases


LSERIES_QS = (2, 3, 4, 5)
LSERIES_MAX_EXT_SIZE = 10 ** 4  # q^n; q = 4, n = 14 already takes 8 s


def lseries_finite(rng):
    """lseries --ext-degree n on Drinfeld modules over a finite base."""
    cases = []
    for q in LSERIES_QS:
        units = tuple(fq_units(q))
        for r in range(1, 5):
            n = 1
            while r * n <= 16 and q ** n <= LSERIES_MAX_EXT_SIZE:
                g = [rng.choice(units + ("0",)) for _ in range(r - 1)]
                g.append(rng.choice(units))
                man = cli.example_drinfeld(q=q, r=r, g_texts=g)
                man.base = "finite-field"
                man.theta_text = rng.choice(units)
                text = cli.render_manifest(man)
                cases.append(Case(
                    "lseries --ext-degree {} q={} theta={} phi={}".format(
                        n, q, man.theta_text, _phi(man)),
                    text, ("lseries", "--ext-degree", str(n)), "lseries"))
                n += 1
    return cases


WORKLOADS = {
    "drinfeld-gram": drinfeld_gram,
    "tensor-gram": tensor_gram,
    "pair-depth": pair_depth,
    "lseries-finite": lseries_finite,
}


def build(workload, seed):
    """The cases of one workload in the order a sweep runs them."""
    rng = random.Random("{}:{}".format(workload, seed))
    cases = WORKLOADS[workload](rng)
    rng.shuffle(cases)
    return cases


def write_manifests(cases, workdir):
    for case in cases:
        with open("{}/{}".format(workdir, case.manifest_file), "w",
                  encoding="utf-8") as fh:
            fh.write(case.manifest)
