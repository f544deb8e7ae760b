"""Command-line interface: manifest-driven computations with canonical,
byte-stable text output.

Commands: validate, invert, pair, gram, perfectness, lseries, examples.
Exit codes: 0 success, 3 a failed check; an error exits with its type's
``exit_code``: 2 parse error, 3 validation failure, 4 convergence-cap
exceeded, 5 precision not reached or not certified.

gram, perfectness and pair fail in one order: a sigma-precision above
--precision-cap exits 5, then a phi(t)^-1 of positive tau-degree exits 5
and names the degree, and only then can a k1 above --k-cap exit 4.

A plain call is read from COMMANDS without argparse; any other call, and
all help and error text, goes to the argparse tree built from COMMANDS.
"""

from __future__ import annotations

import random
import sys
from types import SimpleNamespace

from .errors import FieldError, SkewParseError, TauresError
from . import anderson, lseries, pairing
from .fields import Fq, _factor_prime_power, find_irreducible
from .parsing import (Manifest, manifest_ext_degree, manifest_ext_field,
                      manifest_tau_matrix, parse_manifest, parse_skew_expr,
                      parse_skew_row, render_manifest)
from .skewmat import SkewMatrix, invert_series_matrix

EXIT_VALIDATION = 3

WEIGHT_NOTE = ("note: b is measured from the gram coefficients; module "
               "weights are not computed, so no bound involving weights "
               "is checked")


# --- built-in example registry ---

def _manifest_skeleton(q):
    """q and, for q = p^m with m > 1, the first irreducible modulus."""
    if q < 2:
        raise SkewParseError("example needs q >= 2", 0, 0)
    try:
        p, m = _factor_prime_power(q)
    except FieldError as err:
        raise SkewParseError(err.args[0], 0, 0) from None
    man = Manifest()
    man.q = q
    if m > 1:
        man.modulus = find_irreducible(Fq(p), m).render(Fq.gen_name)
    return man


def example_carlitz(q):
    return example_drinfeld(q, 1, g_texts=["1"])


def example_carlitz_tensor(q, d):
    if d < 1:
        raise SkewParseError(
            "carlitz-tensor example needs d >= 1, got {}".format(d), 0, 0)
    man = _manifest_skeleton(q)
    man.dim = d
    man.rank = 1
    rows = []
    for i in range(d):
        entries = ["0"] * d
        entries[i] = "theta"
        if i + 1 < d:
            entries[i + 1] = "1"
        if i == d - 1:
            entries[0] = "tau" if d > 1 else "theta + tau"
        rows.append(" | ".join(entries))
    man.phi_rows = rows
    man.motive_rows = [" | ".join(["1"] + ["0"] * (d - 1))]
    man.comotive_cols = [" | ".join(["0"] * (d - 1) + ["1"])]
    return man


def example_maurischat(q):
    man = _manifest_skeleton(q)
    man.dim = 2
    man.rank = 3
    man.phi_rows = ["theta + tau^2 | tau^3", "1 + tau | theta + tau^2"]
    man.motive_rows = ["0 | tau", "0 | 1", "1 | 0"]
    man.comotive_cols = ["tau | 0", "1 | 0", "0 | 1"]
    return man


def example_drinfeld(q, r, seed=None, g_texts=None):
    if r < 1:
        raise SkewParseError(
            "drinfeld example needs r >= 1, got {}".format(r), 0, 0)
    man = _manifest_skeleton(q)
    man.dim = 1
    man.rank = r
    if g_texts is None:
        rng = random.Random(seed if seed is not None else 0)
        pool = ["1", "theta", "theta + 1", "theta^2"]
        if q % 2:  # p > 2
            pool += ["2", "2*theta"]
        g_texts = [pool[rng.randrange(len(pool))] for _ in range(r - 1)]
        lead_pool = ["1", "theta", "theta^2"]
        g_texts.append(lead_pool[rng.randrange(len(lead_pool))])
    if len(g_texts) != r:
        raise SkewParseError("drinfeld example needs {} coefficients"
                             .format(r), 0, 0)
    terms = ["theta"]
    for i, g in enumerate(g_texts, start=1):
        tau_pow = "tau" if i == 1 else "tau^{}".format(i)
        if g.strip() == "1":
            terms.append(tau_pow)
        else:
            terms.append("({})*{}".format(g.strip(), tau_pow))
    man.phi_rows = [" + ".join(terms)]
    man.motive_rows = ["1" if i == 0 else ("tau" if i == 1 else
                                           "tau^{}".format(i))
                       for i in range(r)]
    man.comotive_cols = list(man.motive_rows)
    return man


def _example_drinfeld(args):
    """`examples drinfeld`, checking each --g text is a scalar of the
    example's field and g_r nonzero (example_drinfeld only writes text)."""
    if args.g is None:
        return example_drinfeld(q=args.q, r=args.r, seed=args.seed)
    g_texts = args.g.split(",")
    man = example_drinfeld(q=args.q, r=args.r, g_texts=g_texts)
    pf = parse_manifest(render_manifest(example_carlitz(args.q))).pf
    for i, text in enumerate(g_texts, start=1):
        try:
            g = parse_skew_expr(text, pf)
        except SkewParseError:
            g = None
        if g is None or not g.sigma_free() or g.deg_tau() > 0 or \
                not g and i == args.r:
            raise SkewParseError("drinfeld example needs g_{} to be a {}"
                                 "scalar, got {!r}".format(
                                     i, "nonzero " * (i == args.r), text),
                                 0, 0)
    return man


EXAMPLES = {
    "carlitz": lambda args: example_carlitz(q=args.q),
    "carlitz-tensor": lambda args: example_carlitz_tensor(q=args.q,
                                                          d=args.d),
    "maurischat": lambda args: example_maurischat(q=args.q),
    "drinfeld": _example_drinfeld,
}


# --- command implementations ---

def _load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise SkewParseError("cannot read manifest: {}".format(err), 0, 0)
    return parse_manifest(text)


def cmd_validate(args):
    man = _load(args.manifest)
    report = anderson.validate(man.module)
    print(report)
    return 0 if report.ok else EXIT_VALIDATION


def cmd_invert(args):
    man = _load(args.manifest)
    report = anderson.validate(man.module)
    if not report.ok:
        print(report, file=sys.stderr)
        return EXIT_VALIDATION
    inv = invert_series_matrix(man.module.phi_t, args.order)
    print(inv.render())
    return 0


def _context(args, module):
    return pairing.PairingContext(module, k_cap=args.k_cap,
                                  precision_cap=args.precision_cap)


def cmd_pair(args):
    man = _load(args.manifest)
    module = man.module
    pf = module.pf
    theta = module.theta if man.base == "finite-field" else None
    m_entries = parse_skew_row(args.m, pf, theta=theta)
    n_entries = parse_skew_row(args.n, pf, theta=theta)
    if len(m_entries) != module.dim or len(n_entries) != module.dim:
        raise SkewParseError(
            "--m and --n need {} '|'-separated entries".format(module.dim),
            0, 0)
    m = SkewMatrix(pf, [m_entries])
    n = SkewMatrix(pf, [[e] for e in n_entries])
    print(pairing.residue_pair(_context(args, module), m, n))
    return 0


def cmd_gram(args):
    g = pairing.gram(_context(args, _load(args.manifest).module))
    print(g.render())
    print(WEIGHT_NOTE)
    return 0


def cmd_perfectness(args):
    g = pairing.gram(_context(args, _load(args.manifest).module))
    cert = pairing.check_perfectness(g)
    print(pairing.certificate_line(g, cert))
    return 0 if cert else EXIT_VALIDATION


def cmd_lseries(args):
    man = _load(args.manifest)
    module = man.module
    report = anderson.validate(module)
    if not report.ok:
        print(report, file=sys.stderr)
        return EXIT_VALIDATION
    # E(k) past the desk bound is refused before k is built
    lseries.check_desk_bound(module.dim,
                             manifest_ext_degree(man, args.ext_degree))
    ext = manifest_ext_field(man, args.ext_degree)
    tau_mot = manifest_tau_matrix(man, "motive", ext)
    tau_com = manifest_tau_matrix(man, "comotive", ext)
    bf = lseries.brute_force_fitting(module, ext)
    run_oracle = tau_mot is None
    if run_oracle:
        # one build of the Drinfeld matrix serves every route below
        tau_mot = lseries.drinfeld_tau_matrix(module, ext)
        if tau_com is None:
            tau_com = tau_mot
    fit_m = lseries.fitting_ideal(module, ext, "motive", tau_matrix=tau_mot)
    fit_c = lseries.fitting_ideal(module, ext, "comotive",
                                  tau_matrix=tau_com)
    at_one = sum(fit_m[1:], fit_m[0])  # det(1 - tau)
    consistent = fit_m == fit_c and at_one.monic() == bf
    if run_oracle:
        oracle = lseries.fitting_ideal_power_oracle(module, ext, "motive",
                                                    tau_matrix=tau_mot)
        consistent = consistent and oracle == fit_m
    print("motive: {}".format(lseries.render_fitting(fit_m)))
    print("comotive: {}".format(lseries.render_fitting(fit_c)))
    print("E(k) fitting: {}".format(bf))
    print("consistent: {}".format("yes" if consistent else "no"))
    return 0 if consistent else EXIT_VALIDATION


def cmd_examples(args):
    if args.name not in EXAMPLES:
        raise SkewParseError(
            "unknown example {!r}; available: {}".format(
                args.name, ", ".join(sorted(EXAMPLES))), 0, 0)
    man = EXAMPLES[args.name](args)
    sys.stdout.write(render_manifest(man))
    return 0


_MANIFEST = (("manifest", dict(help="path to a module manifest")),)
_PAIRING = _MANIFEST + (
    ("--precision-cap", dict(
        type=int, default=pairing.PRECISION_CAP,
        help="max sigma-precision of the pairing's phi(t)^-1")),
    ("--k-cap", dict(type=int, default=anderson.K1_CAP,
                     help="search cap for the convergence exponent k1")),
)

# (name, help, [(flag, add_argument options)], handler), in usage order
COMMANDS = (
    ("validate", "check the module axioms", _MANIFEST, cmd_validate),
    ("invert", "phi(t)^-1 as a truncated matrix", _MANIFEST + (
        ("--order", dict(type=int, default=6,
                         help="sigma-precision of the inverse")),),
     cmd_invert),
    ("pair", "pair a motive row with a comotive column", _PAIRING + (
        ("--m", dict(required=True,
                     help="motive element ('|'-separated entries)")),
        ("--n", dict(required=True,
                     help="comotive element ('|'-separated entries)"))),
     cmd_pair),
    ("gram", "all pairings of the declared bases", _PAIRING, cmd_gram),
    ("perfectness", "gram determinant certificate", _PAIRING,
     cmd_perfectness),
    ("lseries", "T-deformation fitting ideals over a finite base",
     _MANIFEST + (("--ext-degree", dict(
         type=int, help="degree of k over F_q (overrides the manifest)")),),
     cmd_lseries),
    ("examples", "write a built-in example manifest to stdout", (
        ("name", dict(help="carlitz | carlitz-tensor | drinfeld | "
                           "maurischat")),
        ("--q", dict(type=int, default=2)),
        ("--d", dict(type=int, default=2, help="tensor power")),
        ("--r", dict(type=int, default=2, help="drinfeld rank")),
        ("--seed", dict(type=int, help="seed for drinfeld coefficients")),
        ("--g", dict(help="comma-separated drinfeld coefficients g_1..g_r"))),
     cmd_examples),
)


def build_arg_parser():
    """The full argument parser, one subparser per command."""
    import argparse
    ap = argparse.ArgumentParser(
        prog="taures",
        description="Exact residue-in-tau pairings for Anderson t-modules")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, help_text, arguments, func in COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.set_defaults(func=func)
    return ap


def _read_args(argv):
    """A plain call read straight from COMMANDS, or None: the command, its
    positionals, and each long option at most once, as its exact flag and
    a value not starting with '-' that its type accepts.  argparse reads
    such a call to the same values; anything else is left to it."""
    row = next((c for c in COMMANDS if argv and argv[0] == c[0]), None)
    if row is None:
        return None
    name, _, arguments, func = row
    options = dict(arguments)  # each read pops its flag: no repeats
    positionals = [flag for flag in options if not flag.startswith("-")]
    values = {flag: opts.get("default") for flag, opts in arguments}
    tokens = iter(argv[1:])
    for token in tokens:
        if token.startswith("-"):
            flag, value = token, next(tokens, "-")
        else:
            flag, value = positionals.pop(0) if positionals else None, token
        opts = options.pop(flag, None)
        if opts is None or value.startswith("-"):
            return None
        try:
            values[flag] = opts.get("type", str)(value)
        except ValueError:
            return None
    if positionals or any(opts.get("required") for opts in options.values()):
        return None
    return SimpleNamespace(command=name, func=func, **{
        flag.lstrip("-").replace("-", "_"): v for flag, v in values.items()})


def _parse_args(argv):
    """_read_args, else the full tree, which settles help and errors; it
    also refuses the [] that argparse (3.11) reads from `--flag=--`."""
    args = _read_args(argv)
    if args is not None:
        return args
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    for dest, value in vars(args).items():
        if isinstance(value, list):
            parser.error("argument --{}: expected one argument".format(
                dest.replace("_", "-")))
    return args


def main(argv=None):
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args)
    except TauresError as err:
        print(err, file=sys.stderr)
        return err.exit_code


if __name__ == "__main__":
    sys.exit(main())
