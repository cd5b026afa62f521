"""In-memory span tracer for the rsmsim benchmark.

The tracer wraps public functions at the module attribute where their
caller looks them up (``rsmsim.simulate.draw_channel`` rather than
``rsmsim.channel.draw_channel``), so nothing under ``src/`` changes and
only calls made by the traced code path are seen.

Functions that call other wrapped functions are recorded as spans
(name, start, end, parent). Leaf functions, some of which run millions
of times per workload, are recorded as a call count plus total time per
(leaf, parent span name) pair instead of one span per call. The
tracer keeps one call stack and refuses calls from any other thread, so
self times partition the traced wall time exactly.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from collections import defaultdict

# (module, attribute, traced name, leaf). The layer is the part of the
# name before the first dot.
TARGETS = (
    ("rsmsim.cli", "main", "cli.main", False),
    ("rsmsim.cli", "run", "simulate.run", False),
    ("rsmsim.cli", "run_fd", "simulate.run_fd", False),
    ("rsmsim.cli", "analytic_curves", "simulate.analytic_curves", False),
    ("rsmsim.cli", "analytic_curves_fd", "simulate.analytic_curves_fd", False),
    # One Monte Carlo block; wrapped only to count blocks and words.
    ("rsmsim.simulate", "_run_block", "simulate.block", False),
    ("rsmsim.simulate", "draw_channel", "channel.draw", True),
    ("rsmsim.simulate", "select_antennas", "mimo.select", True),
    ("rsmsim.simulate", "selection_for_indices", "mimo.select", True),
    ("rsmsim.simulate", "zf_precoder", "mimo.zf", True),
    ("rsmsim.simulate", "build_constellation", "phy.constellation", True),
    ("rsmsim.simulate", "threshold", "phy.threshold", True),
    ("rsmsim.analysis", "threshold", "phy.threshold", True),
    ("rsmsim.simulate", "estimate_amplitude", "training.estimate_amplitude", True),
    # analysis.abep imports this from the module on every call.
    ("rsmsim.training", "threshold_estimate_stats", "training.fisher", True),
    ("rsmsim.analysis", "abep", "analysis.abep", False),
    ("rsmsim.analysis", "modulation_error_prob", "analysis.modulation", False),
    ("rsmsim.analysis", "constellation_bep", "analysis.constellation_bep", True),
    ("rsmsim.analysis", "marcum_q1", "specfun.marcum_q1", True),
    ("rsmsim.analysis", "noncentral_t_cdf", "specfun.nct_cdf", True),
    ("rsmsim.analysis", "doubly_noncentral_t_cdf", "specfun.dnct_cdf", True),
    ("rsmsim.simulate", "svd_link", "baseline.svd", True),
    ("rsmsim.simulate", "fd_ber", "baseline.fd_ber", True),
)

LAYERS = ("specfun", "channel", "mimo", "phy", "training", "analysis", "simulate", "baseline", "cli")

_ROOT = "-"

_ONE_THREAD = "the tracer follows one thread; trace with --threads 1"

# Data words simulated by one call, read from its arguments or result.
_WORDS = {
    "simulate.block": lambda args, result: int(result.words),
    "baseline.fd_ber": lambda args, result: int(args[3]),
}


class Tracer:
    """Installs wrappers, records spans and leaf tallies, then restores."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []
        self._owner = threading.get_ident()
        # Open frames: [name, start, span index, leaf time, leaf tallies
        # by name]. The bottom frame stands for time outside every span.
        self._stack: list[list] = [[_ROOT, 0.0, -1, 0.0, {}]]
        self.spans: list[tuple[str, float, float, int, float]] = []
        self.leaves: dict[tuple[str, str], list] = {}
        self.errors: dict[tuple[str, str], int] = defaultdict(int)
        self.words: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []

    def install(self) -> None:
        for module_name, attr, name, leaf in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._leaf(fn, name) if leaf else self._span(fn, name)
            self._saved.append((module, attr, fn))
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        self._close_tallies(self._stack[0])

    def _close_tallies(self, frame: list) -> None:
        for leaf, (count, elapsed) in frame[4].items():
            tally = self.leaves.setdefault((leaf, frame[0]), [0, 0.0])
            tally[0] += count
            tally[1] += elapsed
        frame[4].clear()

    def _span(self, fn, name):
        stack, spans, errors, words = self._stack, self.spans, self.errors, self.words
        clock, get_ident, owner = time.perf_counter, threading.get_ident, self._owner
        close_tallies = self._close_tallies
        count_words = _WORDS.get(name)

        def wrapper(*args, **kwargs):
            if get_ident() != owner:
                raise RuntimeError(_ONE_THREAD)
            # Reserve the span's index now: children opened inside it
            # record it as their parent before it closes.
            index = len(spans)
            spans.append(None)
            parent = stack[-1][2]
            frame = [name, clock(), index, 0.0, {}]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                errors[(name, type(exc).__name__)] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, frame[1], end, parent, frame[3])
                close_tallies(frame)
            if count_words is not None:
                words[name] += count_words(args, result)
            return result

        return wrapper

    def _leaf(self, fn, name):
        stack, errors, words = self._stack, self.errors, self.words
        clock, get_ident, owner = time.perf_counter, threading.get_ident, self._owner
        count_words = _WORDS.get(name)

        def wrapper(*args, **kwargs):
            if get_ident() != owner:
                raise RuntimeError(_ONE_THREAD)
            parent = stack[-1]
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                errors[(name, type(exc).__name__)] += 1
                raise
            finally:
                elapsed = clock() - start
                parent[3] += elapsed
                tally = parent[4].get(name)
                if tally is None:
                    parent[4][name] = [1, elapsed]
                else:
                    tally[0] += 1
                    tally[1] += elapsed
            if count_words is not None:
                words[name] += count_words(args, result)
            return result

        return wrapper

    def dump(self, path) -> None:
        """Write spans, leaf tallies and exception counts as JSON."""
        payload = {
            "spans": [list(s) for s in self.spans],
            "leaves": [[n, p, c, t] for (n, p), (c, t) in sorted(self.leaves.items())],
            "errors": [[n, e, c] for (n, e), c in sorted(self.errors.items())],
            "words": dict(self.words),
            "missing": self.missing,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


def summarize(payload: dict, wall_s: float) -> dict[str, float]:
    """Per-layer metrics from one dumped trace of a run that took ``wall_s``.

    A span's self time is its duration minus its child spans and the leaf
    calls made directly inside it; a leaf's self time is its duration.
    A layer's self time sums both over the names of that layer, so the
    layers plus ``trace.uncovered_s`` add up to ``wall_s``.
    """
    spans = payload["spans"]
    child_s = [0.0] * len(spans)
    covered_s = 0.0
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
        else:
            covered_s += end - start
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for index, (name, start, end, parent, leaf_s) in enumerate(spans):
        self_s[name] += (end - start) - child_s[index] - leaf_s
        total_s[name] += end - start
        calls[name] += 1
    leaf_calls: dict[tuple[str, str], int] = {}
    for name, parent_name, count, elapsed in payload["leaves"]:
        self_s[name] += elapsed
        calls[name] += count
        leaf_calls[(name, parent_name)] = count
        if parent_name == _ROOT:
            covered_s += elapsed
    errors = {(name, kind): count for name, kind, count in payload["errors"]}
    words = payload["words"]

    layer_s = {layer: 0.0 for layer in LAYERS}
    for name, seconds in self_s.items():
        layer_s[name.split(".", 1)[0]] += seconds
    if abs(sum(layer_s.values()) - covered_s) > 1e-6 * max(covered_s, 1.0):
        raise ValueError(
            f"layer self times sum to {sum(layer_s.values())!r}, spans cover {covered_s!r}"
        )
    modulation_calls = calls["analysis.modulation"]
    metrics = {
        "specfun.dnct_cdf.calls": calls["specfun.dnct_cdf"],
        "specfun.dnct_cdf.self_s": self_s["specfun.dnct_cdf"],
        "specfun.nct_cdf.self_s": self_s["specfun.nct_cdf"],
        "specfun.marcum_q1.self_s": self_s["specfun.marcum_q1"],
        "analysis.abep.calls": calls["analysis.abep"],
        "analysis.abep.total_s": total_s["analysis.abep"],
        "analysis.modulation.self_s": self_s["analysis.modulation"],
        "analysis.constellation_bep.calls": calls["analysis.constellation_bep"],
        "analysis.constellation_bep.self_s": self_s["analysis.constellation_bep"],
        "analysis.bep_calls_per_modulation": (
            leaf_calls.get(("analysis.constellation_bep", "analysis.modulation"), 0)
            / modulation_calls
            if modulation_calls
            else 0.0
        ),
        "training.fisher.calls": calls["training.fisher"],
        "training.singular_fisher.count": errors.get(("training.fisher", "SingularFisher"), 0),
        "training.estimate_amplitude.calls": calls["training.estimate_amplitude"],
        "training.degenerate.count": errors.get(
            ("training.estimate_amplitude", "DegenerateSample"), 0
        ),
        "channel.draw.calls": calls["channel.draw"],
        "channel.draw.self_s": self_s["channel.draw"],
        "mimo.select.calls": calls["mimo.select"],
        "mimo.select.self_s": self_s["mimo.select"],
        "mimo.zf.self_s": self_s["mimo.zf"],
        "phy.threshold.calls": calls["phy.threshold"],
        "phy.threshold.self_s": self_s["phy.threshold"],
        "simulate.blocks": calls["simulate.block"] + calls["baseline.fd_ber"],
        "simulate.words": sum(words.values()),
        "baseline.svd.calls": calls["baseline.svd"],
        "baseline.svd.self_s": self_s["baseline.svd"],
        "baseline.fd_ber.self_s": self_s["baseline.fd_ber"],
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_s[layer]
    metrics["trace.wall_s"] = wall_s
    metrics["trace.uncovered_s"] = wall_s - covered_s
    return metrics
