"""Seeded fuzzing of the manifest parser and the argument parser through
`main`: a damaged manifest or a random command line ends in an exit code,
never in an uncaught exception."""

import contextlib
import io
import random

import pytest

from taures.cli import (COMMANDS, example_carlitz_tensor, example_drinfeld,
                        example_maurischat, main, render_manifest)

MANIFESTS = {
    "maurischat": lambda: example_maurischat(q=2),
    "drinfeld-q4": lambda: example_drinfeld(q=4, r=3, seed=1),
    "carlitz-tensor": lambda: example_carlitz_tensor(q=3, d=3),
}
MUTATIONS_PER_MANIFEST = 300
# what a damaged manifest may contain: its own characters and some others
EXTRA_CHARS = "0123456789+-*/^()|:._ \n\tzqwxθ#²٣\u00a0"


def call(argv):
    """Exit code of `main(argv)`, with its output swallowed."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:  # argparse ends usage errors and help
            return exc.code


def mutate(rng, text, alphabet):
    """Delete, insert or replace one to three characters."""
    chars = list(text)
    for _ in range(rng.randrange(1, 4)):
        i = rng.randrange(len(chars) + 1)
        op = rng.randrange(3)
        if op == 0 and i < len(chars):
            del chars[i]
        elif op == 1 or i == len(chars):
            chars.insert(i, rng.choice(alphabet))
        else:
            chars[i] = rng.choice(alphabet)
    return "".join(chars)


@pytest.mark.parametrize("name", sorted(MANIFESTS))
def test_damaged_manifests_exit_cleanly(name, tmp_path):
    text = render_manifest(MANIFESTS[name]())
    alphabet = sorted(set(text) | set(EXTRA_CHARS))
    rng = random.Random("fuzz-" + name)
    path = tmp_path / "m.man"
    codes = set()
    for _ in range(MUTATIONS_PER_MANIFEST):
        damaged = mutate(rng, text, alphabet)
        path.write_text(damaged, encoding="utf-8")
        code = call(["validate", str(path)])
        assert code in (0, 2, 3), damaged
        codes.add(code)
    assert 2 in codes  # the mutations do reach the error paths


ARGV_TOKENS = ([name for name, *_ in COMMANDS]
               + ["gra", "--order", "--m", "--n", "--q", "--d", "--r",
                  "--seed", "--g", "--precision-cap", "--k-cap",
                  "--ext-degree", "--bogus", "-h", "--", "-", "0", "1",
                  "-1", "2", "3", "x", "tau", "theta | 1", "carlitz",
                  "carlitz-tensor", "drinfeld", "maurischat", "--k-cap=3",
                  "--k", " 4", "", "1_0"])


def test_random_argv_exit_cleanly(tmp_path):
    # every path names a missing file, so no case starts a computation
    missing = str(tmp_path / "missing.man")
    rng = random.Random("fuzz-argv")
    tokens = ARGV_TOKENS + [missing]
    for _ in range(400):
        argv = [rng.choice(tokens) for _ in range(rng.randrange(7))]
        code = call(argv)
        assert isinstance(code, int), argv
