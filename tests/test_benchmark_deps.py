"""What the benchmark in perfbench/ uses of taures: every function its
tracer wraps still exists under the name it looks up, and its Gram oracle
accepts what the CLI prints.  A rename that would break only the
benchmark fails here."""

import contextlib
import hashlib
import io
import json
import os
import re
import sys

from taures import carlitz, cli, fields, lseries, pairing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import oracles  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def test_tracer_installs_and_uninstalls_clean():
    originals = [getattr(owner, attr)
                 for _, owner, attr, _, _ in tracer.TARGETS]
    pf = fields.PerfField(fields.Fq(3))
    one = fields.Fq(2).one()
    t = tracer.Tracer().install()
    try:
        assert all(getattr(owner, attr) is not original
                   for (_, owner, attr, _, _), original
                   in zip(tracer.TARGETS, originals))
        pairing.gram(carlitz(pf, pf.theta()))
        lseries.charpoly([[one]], one)
    finally:
        t.uninstall()
    assert [getattr(owner, attr)
            for _, owner, attr, _, _ in tracer.TARGETS] == originals
    snap = t.snapshot()
    assert snap["pairing.gram.calls"] == 1
    assert snap["skewmat.invert_series_matrix.calls"] > 0
    assert snap["lseries.charpoly.calls"] == 1


def test_tracer_sees_charpoly_inside_fitting_ideal():
    # the tracer replaces lseries.charpoly by name, so fitting_ideal must
    # call it through that name for the per-layer table to count it
    pf = fields.PerfField(fields.Fq(3))
    fq = pf.fq
    ext = fields.ExtField(fq, fields.SPoly(fq, {1: fq.one()}))
    module = carlitz(pf, pf.from_int(1))
    t = tracer.Tracer().install()
    try:
        lseries.fitting_ideal(module, ext, "motive")
    finally:
        t.uninstall()
    snap = t.snapshot()
    assert snap["lseries.fitting_ideal.calls"] == 1
    assert snap["lseries.charpoly.calls"] == 1


def test_drinfeld_gram_oracle_accepts_cli_output(capsys, tmp_path):
    code, text = run(capsys, "examples", "drinfeld", "--q", "3", "--r", "3",
                     "--seed", "7")
    assert code == 0
    path = tmp_path / "drinfeld.man"
    path.write_text(text)
    code, out = run(capsys, "gram", str(path))
    assert code == 0
    case = workloads.Case(name="drinfeld q=3 r=3 seed=7", manifest=text,
                          args=("gram",), check="drinfeld_gram")
    assert oracles.check_drinfeld_gram(case, out) is None
    # the oracle reads the entries: a wrong one is reported
    first, rest = out.split("\n", 1)
    entry, tail = first.split(" | ", 1)
    wrong = "{} | {}\n{}".format("1" if entry == "0" else "0", tail, rest)
    assert oracles.check_drinfeld_gram(case, wrong) is not None


def test_seed_zero_outputs_match_golden_digests(tmp_path):
    """Every seed-0 case of the four workloads, run in-process through
    `cli.main`, prints exactly the bytes `perfbench/golden.json` records
    (the file is only read here)."""
    with open(os.path.join(ROOT, "perfbench", "golden.json"),
              encoding="utf-8") as fh:
        golden = json.load(fh)
    mismatches, checked = [], 0
    for workload in workloads.WORKLOADS:
        cases = workloads.build(workload, 0)
        workloads.write_manifests(cases, str(tmp_path))
        for case in cases:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = cli.main(case.argv(str(tmp_path)))
            digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
            checked += 1
            if code != 0 or digest != golden[workload][case.name]["sha256"]:
                mismatches.append((workload, case.name, code))
    assert checked == sum(len(g) for g in golden.values())
    assert mismatches == []


def test_every_case_is_read_without_argparse(tmp_path):
    """Every seed-0 case argv of the four workloads is a plain call, which
    `cli._read_args` reads straight from the command table: no benchmark
    case builds an argparse parser."""
    fallbacks, checked = [], 0
    for workload in workloads.WORKLOADS:
        for case in workloads.build(workload, 0):
            argv = case.argv(str(tmp_path))
            checked += 1
            if cli._read_args(argv) is None:
                fallbacks.append(argv)
    assert checked > 0
    assert fallbacks == []


def src_lines_matching(pattern):
    """(file, line number) of every `src/taures` line the regex matches."""
    src = os.path.join(ROOT, "src", "taures")
    hits = []
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                hits += [(name, no) for no, line in enumerate(fh, 1)
                         if re.search(pattern, line)]
    return hits


def test_src_never_calls_the_frobenius_aliases():
    """`PerfElement.q_pow` and `q_root` call `q_power_iter`, and the tracer
    wraps all three under `fields.frobenius`: a call to an alias from the
    library would count twice there."""
    assert src_lines_matching(r"\.q_(pow|root)\(") == []


def test_src_spells_an_exact_floor_one_way():
    """An exact element's floor is `NEG_INF`, never `None`: no source line
    stores, passes or tests `None` as a floor, nor calls the deleted
    translators between the two spellings."""
    assert src_lines_matching(
        r"floor is (not )?None|floor=None|floor_value|_add_floor") == []
