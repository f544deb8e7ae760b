"""The benchmark's own checks: layer isolation, repeatable counts, the
inversion count of a Gram run, and the oracles.

    python3 -m pytest -q perfbench/tests
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import taures.parsing  # noqa: E402

import oracles  # noqa: E402
import run  # noqa: E402
import runner  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SEED = 0


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("manifests"))


def traced(cases, workdir):
    """Per-case tracer snapshots of one traced pass over `cases`."""
    workloads.write_manifests(cases, workdir)
    snaps = []
    for case in cases:
        out = runner.run_case(case.argv(workdir), 60.0, traced=True)
        assert out.status == runner.OK, (case.name, out.detail)
        snaps.append(out.trace["metrics"])
    return snaps


def quick(workload, n):
    """The first `n` cases of the workload, skipping its slowest sizes."""
    slow = ("d=8", "d=10", "tau^4", "tau^5", "tau^6")
    return [c for c in workloads.build(workload, SEED)
            if not any(s in c.name for s in slow)][:n]


def total(snaps):
    acc = {}
    for snap in snaps:
        tracer.add_snapshots(acc, snap)
    return acc


def counts(snap):
    return {k: v for k, v in snap.items() if run.PER_LAYER.get(k) == "count"}


def test_lseries_finite_never_enters_the_pairing_stack(workdir):
    cases = workloads.build("lseries-finite", SEED)
    t = total(traced(cases, workdir))
    for key in ("skew.invert_scalar.calls",
                "skewmat.invert_series_matrix.calls", "skewmat.mat_mul.calls",
                "anderson.find_k1.calls", "pairing.context.calls",
                "pairing.gram.calls", "pairing.residue_pair.calls",
                "pairing.check_perfectness.calls", "pairing.inverse_at.calls"):
        assert t[key] == 0, key
    # the manifest parser builds phi(t) with skew products; nothing else may
    parse_only = tracer.Tracer().install()
    try:
        for case in cases:
            taures.parsing.parse_manifest(case.manifest)
    finally:
        parse_only.uninstall()
    assert t["skew.mul.calls"] == \
        parse_only.snapshot()["skew.mul.calls"]
    assert t["lseries.charpoly.calls"] > 0


@pytest.mark.parametrize("workload", ["drinfeld-gram", "tensor-gram",
                                      "pair-depth"])
def test_pairing_workloads_make_no_lseries_calls(workload, workdir):
    cases = quick(workload, 12)
    t = total(traced(cases, workdir))
    for key in ("lseries.fitting_ideal.calls", "lseries.charpoly.calls"):
        assert t[key] == 0, key
    for key in ("lseries.power_oracle.s", "lseries.brute_force.s"):
        assert t[key] == 0.0, key


@pytest.mark.parametrize("workload, n_cases", [
    ("drinfeld-gram", 6), ("tensor-gram", 4), ("pair-depth", 15),
    ("lseries-finite", 15)])
def test_traced_counts_repeat_exactly(workload, n_cases, workdir):
    cases = quick(workload, n_cases)
    first = [counts(s) for s in traced(cases, workdir)]
    second = [counts(s) for s in traced(cases, workdir)]
    assert first == second


def test_each_gram_inverts_phi_three_times(workdir):
    cases = [c for c in workloads.build("drinfeld-gram", SEED)
             if c.command == "gram"]
    assert cases
    for case, snap in zip(cases, traced(cases, workdir)):
        rank = int(case.manifest.split("rank: ")[1].split("\n")[0])
        # find_k1 at 3, termination_bound at 2, the context at dm+dn+2 = 2r
        assert snap["skewmat.invert_series_matrix.calls"] == 3, case.name
        assert snap["skewmat.invert_series_matrix.precision_sum"] == \
            3 + 2 + 2 * rank, case.name


def test_workloads_are_seeded():
    for name in workloads.WORKLOADS:
        a = workloads.build(name, 7)
        assert a == workloads.build(name, 7)
        assert len({c.name for c in a}) == len(a)
    assert workloads.build("lseries-finite", 1) != \
        workloads.build("lseries-finite", 2)


def test_oracles_reject_wrong_outputs(workdir):
    cases = {c.check: c for c in workloads.build("drinfeld-gram", SEED)
             if "tau^4" not in c.name}
    workloads.write_manifests(list(cases.values()), workdir)
    for kind, case in cases.items():
        out = runner.run_case(case.argv(workdir), 60.0)
        assert out.status == runner.OK
        assert oracles.check(case, out.stdout) is None, kind
        if kind == "drinfeld-gram":
            wrong = out.stdout.replace(" dt\n", " + 1 dt\n", 1)
        elif kind == "invert":
            wrong = "sigma^2 * theta + " + out.stdout
        else:
            wrong = out.stdout.replace("perfect = yes", "perfect = no")
        assert oracles.check(case, wrong) is not None, kind

