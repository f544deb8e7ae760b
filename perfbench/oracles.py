"""Output checks, one per case kind.

Each check takes the case and its captured stdout and returns None when
the output is right, else a one-line reason.  The oracles are independent
of the route the CLI took: the Drinfeld closed form for Gram entries, the
identities phi(t) X = X phi(t) = 1 for an inverse, the CLI's own
three-route `consistent:` verdict for L-series data, and the Gram unit
-dt for Carlitz tensor powers.  Golden digests are checked separately.
"""

from __future__ import annotations

from taures import (TauresError, drinfeld_closed_form, parse_manifest,
                    parse_skew_expr)
from taures.skew import SkewLaurent


def _gram_rows(out):
    lines = out.splitlines()
    rows = []
    for line in lines:
        if line.startswith("K = "):
            return rows, line
        if not line.endswith(" dt"):
            return rows, None
        rows.append(line[:-len(" dt")].split(" | "))
    return rows, None


def _perfect_footer(footer):
    return footer is not None and footer.endswith(", perfect = yes")


def check_perfect(case, out):
    lines = out.splitlines()
    if len(lines) != 1 or not _perfect_footer(lines[0]):
        return "perfectness did not certify: {!r}".format(out[:200])
    return None


def check_gram(case, out):
    rows, footer = _gram_rows(out)
    if not rows or not _perfect_footer(footer):
        return "gram footer is not perfect: {!r}".format(footer)
    return None


def check_drinfeld_gram(case, out):
    rows, footer = _gram_rows(out)
    if not _perfect_footer(footer):
        return "gram footer is not perfect: {!r}".format(footer)
    module = parse_manifest(case.manifest).module
    entry = module.phi_t[0, 0]
    r = int(entry.deg_tau())
    # right-normal coefficient of tau^i back to the left coefficient g_i
    g = [entry.coeff(i).q_power_iter(i) for i in range(1, r + 1)]
    if len(rows) != r or any(len(row) != r for row in rows):
        return "gram is not {0}x{0}".format(r)
    for i in range(r):
        for j in range(r):
            want = str(drinfeld_closed_form(module.pf, r, g, i, j).poly)
            if rows[i][j] != want:
                return "entry ({},{}) is {!r}, closed form {!r}".format(
                    i, j, rows[i][j], want)
    return None


def _split_top(text, sep=" + "):
    """Split at separators outside parentheses."""
    parts, depth, start, i = [], 0, 0, 0
    while i < len(text):
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and text.startswith(sep, i):
            parts.append(text[start:i])
            i += len(sep)
            start = i
            continue
        i += 1
    parts.append(text[start:])
    return parts


def _parse_series(text, pf):
    """Read back a rendered truncated series `... + O(sigma^P)`."""
    parts = _split_top(text.strip())
    tail = parts.pop()
    if not (tail.startswith("O(sigma^") and tail.endswith(")")):
        raise ValueError("no O(sigma^P) tail")
    order = int(tail[len("O(sigma^"):-1])
    acc = SkewLaurent.zero(pf)
    for part in parts:
        # rendered as `sigma^k * c`; c may itself contain '/'
        var, sep, coeff = part.partition(" * ")
        term = parse_skew_expr(var, pf)
        if sep:
            term = term * parse_skew_expr(coeff, pf)
        acc = acc + term
    return acc.truncate(1 - order), order


def check_invert(case, out):
    man = parse_manifest(case.manifest)
    order = int(case.args[case.args.index("--order") + 1])
    try:
        x, shown = _parse_series(out, man.pf)
    except (ValueError, TauresError) as err:
        return "cannot read the inverse back: {}".format(err)
    if shown != order + 1:
        return "inverse shown to O(sigma^{}), asked {}".format(shown, order)
    phi = man.module.phi_t[0, 0]
    one = SkewLaurent.one(man.pf)
    # phi has tau-degree r, so both products pin every shown coefficient
    if not ((phi * x).agrees_with(one) and (x * phi).agrees_with(one)):
        return "phi(t) X != 1 above the floor"
    return None


def check_tensor_gram(case, out):
    problem = check_gram(case, out)
    if problem:
        return problem
    rows, _ = _gram_rows(out)
    p = parse_manifest(case.manifest).field.p
    want = [["1" if p == 2 else str(p - 1)]]   # the Gram unit -dt
    if rows != want:
        return "carlitz-tensor gram is {!r}, expected -dt".format(rows)
    return None


def check_lseries(case, out):
    if not out.endswith("consistent: yes\n"):
        return "lseries routes disagree: {!r}".format(out[-200:])
    return None


def check_golden_only(case, out):
    return None


CHECKS = {
    "drinfeld-gram": check_drinfeld_gram,
    "gram": check_gram,
    "tensor-gram": check_tensor_gram,
    "perfect": check_perfect,
    "invert": check_invert,
    "lseries": check_lseries,
    "golden": check_golden_only,
}


def check(case, out):
    return CHECKS[case.check](case, out)
