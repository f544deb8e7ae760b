"""Per-layer instrumentation of taures, installed from the benchmark.

`src/taures` is not edited.  `Tracer.install` replaces each traced function
by a wrapper, on its class or in every taures module namespace that holds
it (`skewmat` imports `invert_scalar` by name, `pairing` imports `find_k1`,
and so on).  The kernels keep in-memory aggregates only: calls, inclusive
time and self time.  The coarse boundaries also record one span per call,
with the id of the enclosing span.  Self time is a frame's duration minus
the time of the traced frames it called.
"""

from __future__ import annotations

import functools
import sys
import time

from taures import (anderson, cli, fields, lseries, pairing, parsing, skew,
                    skewmat)

COUNT, TIME, SPAN = "count", "time", "span"


def _precision(args, kwargs):
    return kwargs["precision"] if "precision" in kwargs else args[1]


def _term_pairs(tracer, args, kwargs):
    tracer.extra["fields.spoly_mul.term_pairs"] += \
        len(args[0].terms) * len(args[1].terms)


def _invert_scalar_precision(tracer, args, kwargs):
    key = "skew.invert_scalar.precision_max"
    tracer.extra[key] = max(tracer.extra[key], _precision(args, kwargs))


def _invert_matrix_precision(tracer, args, kwargs):
    tracer.extra["skewmat.invert_series_matrix.precision_sum"] += \
        _precision(args, kwargs)


# (metric key, owner, attribute, mode, hook run on entry)
TARGETS = (
    ("fields.spoly_mul", fields.SPoly, "__mul__", TIME, _term_pairs),
    ("fields.spoly_divmod", fields.SPoly, "divmod", COUNT, None),
    ("fields.spoly_gcd", fields.SPoly, "gcd", TIME, None),
    ("fields.perf_element", fields.PerfElement, "__init__", COUNT, None),
    ("fields.frobenius", fields.PerfElement, "q_pow", TIME, None),
    ("fields.frobenius", fields.PerfElement, "q_root", TIME, None),
    ("fields.frobenius", fields.PerfElement, "q_power_iter", TIME, None),
    ("fields.frobenius", fields.SPoly, "subst_power", TIME, None),
    ("fields.fq_mul", fields.FqElement, "__mul__", COUNT, None),
    ("fields.ext_mul", fields.ExtElement, "__mul__", COUNT, None),
    ("fields.field_init", fields.Fq, "__init__", TIME, None),
    ("fields.field_init", fields.ExtField, "__init__", TIME, None),
    ("fields.irreducible", fields, "irreducible_over", TIME, None),
    ("fields.irreducible", fields.Fq, "_check_irreducible", TIME, None),
    ("skew.mul", skew.SkewLaurent, "__mul__", TIME, None),
    ("skew.invert_scalar", skew, "invert_scalar", TIME,
     _invert_scalar_precision),
    ("skewmat.invert_series_matrix", skewmat, "invert_series_matrix", SPAN,
     _invert_matrix_precision),
    ("skewmat.mat_mul", skewmat, "mat_mul", TIME, None),
    ("anderson.validate", anderson, "validate", TIME, None),
    ("anderson.find_k1", anderson, "find_k1", SPAN, None),
    ("anderson.termination_bound", anderson, "termination_bound", SPAN,
     None),
    ("anderson.phi_inverse_power", anderson, "phi_inverse_power", TIME,
     None),
    ("pairing.context", pairing.PairingContext, "__init__", SPAN, None),
    ("pairing.inverse_at", pairing.PairingContext, "inverse_at", TIME, None),
    ("pairing.gram", pairing, "gram", SPAN, None),
    ("pairing.residue_pair", pairing, "residue_pair", SPAN, None),
    ("pairing.check_perfectness", pairing, "check_perfectness", SPAN, None),
    ("lseries.fitting_ideal", lseries, "fitting_ideal", SPAN, None),
    ("lseries.power_oracle", lseries, "fitting_ideal_power_oracle", SPAN,
     None),
    ("lseries.brute_force", lseries, "brute_force_fitting", SPAN, None),
    ("lseries.charpoly", lseries, "charpoly", TIME, None),
    ("parsing.parse_manifest", parsing, "parse_manifest", SPAN, None),
    ("cli.main", cli, "main", SPAN, None),
)

EXTRA_KEYS = {"fields.spoly_mul.term_pairs": 0,
              "skew.invert_scalar.precision_max": 0,
              "skewmat.invert_series_matrix.precision_sum": 0}


def _taures_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "taures"
                                  or name.startswith("taures."))]


class Tracer:
    """Counts, times and spans of one process's calls into taures."""

    def __init__(self):
        # key -> [calls, inclusive s, self s, active depth]
        self.stats = {key: [0, 0.0, 0.0, 0] for key, *_ in TARGETS}
        self.extra = dict(EXTRA_KEYS)
        self.spans = []       # [id, parent id, name, start, end]
        self._frames = []     # child-time accumulator of each open frame
        self._open_spans = []
        self._restore = []

    def install(self):
        modules = _taures_modules()
        for key, owner, attr, mode, hook in TARGETS:
            original = getattr(owner, attr)
            wrapper = self._wrap(key, original, mode, hook)
            if isinstance(owner, type):
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, name, original))
                        setattr(mod, name, wrapper)
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    def _wrap(self, key, fn, mode, hook):
        rec = self.stats[key]
        if mode == COUNT:
            def counted(*args, **kwargs):
                rec[0] += 1
                return fn(*args, **kwargs)
            return functools.wraps(fn)(counted)

        frames = self._frames
        open_spans = self._open_spans
        spans = self.spans
        clock = time.perf_counter
        is_span = mode == SPAN

        def timed(*args, **kwargs):
            if hook is not None:
                hook(self, args, kwargs)
            frame = [0.0]
            frames.append(frame)
            rec[3] += 1
            if is_span:
                span = [len(spans), open_spans[-1][0] if open_spans else None,
                        key, 0.0, 0.0]
                spans.append(span)
                open_spans.append(span)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                dt = end - start
                frames.pop()
                rec[0] += 1
                rec[3] -= 1
                if not rec[3]:
                    rec[1] += dt    # recursion counts once
                rec[2] += dt - frame[0]
                if frames:
                    frames[-1][0] += dt
                if is_span:
                    open_spans.pop()
                    span[3], span[4] = start, end

        return functools.wraps(fn)(timed)

    def snapshot(self):
        """Flat metrics of everything traced so far."""
        out = dict(self.extra)
        for key, (calls, incl, self_s, _) in self.stats.items():
            out[key + ".calls"] = calls
            out[key + ".s"] = incl
            out[key + ".self_s"] = self_s
        return out


def add_snapshots(total, snap):
    """Sum one case's snapshot into a sweep total (maxima stay maxima)."""
    for key, value in snap.items():
        if key.endswith("_max"):
            total[key] = max(total.get(key, 0), value)
        else:
            total[key] = total.get(key, 0) + value
    return total
