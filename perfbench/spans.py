"""In-memory span recorder and the wrappers that time each fockcalc layer.

``traced(recorder)`` replaces every wrapped function in every ``fockcalc.*``
module namespace that holds it (and on ``SubsetIndex`` for its methods), and
puts each original back on exit.  A timed wrapper records a span (id, name,
start, end, parent id); its self time is its duration minus the time its child
spans cover, so numpy and any unwrapped helper count toward the caller.  The
hottest ``gamma`` functions get no span: a span around every ``from_mask``
call would cost more than the call.  They are counted on every call and timed
on every ``SAMPLE_EVERY``-th; that time, scaled up, is their self time and is
taken off the self time of the span that called them.

Self time and counts are accumulated as spans end, so memory stays bounded;
the first ``KEEP_SPANS`` spans are also kept whole and written as JSON lines.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: One in this many calls of a sampled function is timed.
SAMPLE_EVERY = 16


# Hooks map a call's arguments and result to the amount added to its counter.
def _terms_in(args, result):
    return len(args[0])


def _co_term_nonempty(args, result):
    return 1 if result else 0


def _term_paths(args, result):
    return len(args[0]) * args[1].num_paths


def _space_paths(args, result):
    return result.num_paths


def _text_bytes(args, result):
    return len(args[0].encode())


#: (module, attribute, mode, counter name, hook).  ``mode`` is "span" or
#: "sample"; an attribute "Class.name" is looked up on the class.
WRAPPED: Tuple[Tuple[str, str, str, Optional[str], Optional[Callable]], ...] = (
    ("gamma", "SubsetIndex.from_mask", "sample", None, None),
    ("gamma", "lambda_weight", "sample", None, None),
    ("functional", "make_functional", "span", None, None),
    ("functional", "linear_combine", "span", None, None),
    ("functional", "sum_functionals", "span", None, None),
    ("functional", "norm_dual", "span", None, None),
    ("functional", "norm_p", "span", None, None),
    ("functional", "inner_dual", "span", None, None),
    ("operators", "annihilate", "span", "operators.annihilate.terms_in", _terms_in),
    ("operators", "create", "span", "operators.create.terms_in", _terms_in),
    ("operators", "cond_expect", "span", "operators.cond_expect.terms_in", _terms_in),
    ("operators", "verify_car", "span", None, None),
    ("operators", "verify_norm_bounds", "span", None, None),
    ("operators", "verify_commutation", "span", None, None),
    ("clark_ocone", "co_term", "span", "clark_ocone.co_term.nonempty", _co_term_nonempty),
    ("clark_ocone", "decompose", "span", None, None),
    ("clark_ocone", "predictable_sequence", "span", None, None),
    ("clark_ocone", "integrate", "span", None, None),
    ("clark_ocone", "reconstruct_check", "span", None, None),
    ("clark_ocone", "verify_convergence_window", "span", None, None),
    ("covariance", "cov_identity", "span", None, None),
    ("covariance", "var_bound", "span", None, None),
    ("bridge", "build_space", "span", "bridge.build_space.paths", _space_paths),
    ("bridge", "evaluate", "span", "bridge.evaluate.term_paths", _term_paths),
    ("bridge", "path_cond_expect", "span", None, None),
    ("bridge", "check_orthonormality", "span", None, None),
    ("bridge", "classical_clark_ocone_check", "span", None, None),
    ("bridge", "check_intertwining", "span", None, None),
    ("bridge", "plancherel_check", "span", None, None),
    ("serialization", "parse_document", "span", "serialization.bytes_in", _text_bytes),
    ("serialization", "functional_to_obj", "span", None, None),
    ("serialization", "decomposition_to_obj", "span", None, None),
    ("serialization", "covariance_to_obj", "span", None, None),
    ("corpus", "random_functionals", "span", None, None),
    ("suite", "run_suite", "span", None, None),
    ("cli", "main", "span", None, None),
)

LAYERS = tuple(dict.fromkeys(module for module, *_ in WRAPPED))

#: The end-to-end metric and workload each layer's metrics should move.
FEEDS = {
    "gamma": "wall_s on verify-default; call_ms_p95 on cli-sparse-wide",
    "functional": "wall_s on verify-default",
    "operators": "wall_s on verify-default; little on bridge-deep",
    "clark_ocone": "call_ms_p95 on cli-sparse-wide; wall_s on verify-default",
    "covariance": "call_ms_p95 on cli-sparse-wide; wall_s on verify-default",
    "bridge": "wall_s and peak_rss_mb on bridge-deep",
    "serialization": "call_ms_p50 on cli-sparse-wide",
    "corpus": "wall_s on verify-default",
    "suite": "wall_s on verify-default and bridge-deep",
    "cli": "call_ms_p50 on cli-sparse-wide",
    "trace": "none; the traced pass's cost over the untraced one",
}

#: Counters filled by hooks, plus the one the benchmark adds itself.
COUNTERS = tuple(name for *_, name, _ in WRAPPED if name) + ("serialization.bytes_out",)


#: Spans kept whole for the JSON-lines file; later ones only add to the totals.
KEEP_SPANS = 100_000


class SpanRecorder:
    """Per-function call counts and self time, plus the first KEEP_SPANS spans."""

    def __init__(self):
        # "gamma.from_mask" names gamma's SubsetIndex.from_mask.
        self.names = [f"{module}.{attr.rpartition('.')[2]}" for module, attr, *_ in WRAPPED]
        self.calls = [0] * len(WRAPPED)
        self.self_s = [0.0] * len(WRAPPED)
        self.counters: Dict[str, float] = dict.fromkeys(COUNTERS, 0)
        self.spans: List[Tuple[int, int, float, float, int]] = []
        self._next_id = 0
        # Open spans, innermost last: [span id, time covered by its children].
        self._open: List[List[Any]] = []

    def timed(self, index: int, fn: Callable, counter: Optional[str], hook) -> Callable:
        perf = time.perf_counter
        calls, self_s, counters, spans, open_spans = (
            self.calls, self.self_s, self.counters, self.spans, self._open
        )

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = open_spans[-1][0] if open_spans else -1
            frame = [sid, 0.0]
            open_spans.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                open_spans.pop()
                duration = end - start
                calls[index] += 1
                self_s[index] += duration - frame[1]
                if open_spans:
                    open_spans[-1][1] += duration
                if sid < KEEP_SPANS:
                    spans.append((sid, index, start, end, parent))
            if hook is not None:
                counters[counter] += hook(args, result)
            return result

        return wrapper

    def sampled(self, index: int, fn: Callable) -> Callable:
        perf = time.perf_counter
        calls, self_s, open_spans = self.calls, self.self_s, self._open

        def wrapper(*args, **kwargs):
            n = calls[index] + 1
            calls[index] = n
            if n % SAMPLE_EVERY:
                return fn(*args, **kwargs)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                scaled = (perf() - start) * SAMPLE_EVERY
                self_s[index] += scaled
                if open_spans:
                    open_spans[-1][1] += scaled

        return wrapper

    def wrap(self, index: int, fn: Callable) -> Callable:
        _, _, mode, counter, hook = WRAPPED[index]
        if mode == "sample":
            return self.sampled(index, fn)
        return self.timed(index, fn, counter, hook)

    def metrics(self) -> Dict[str, float]:
        """``<module>.<function>.calls`` / ``.self_s``, ``<module>.self_s`` and counters."""
        out: Dict[str, float] = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for index, (module, *_) in enumerate(WRAPPED):
            name = self.names[index]
            out[f"{name}.calls"] = self.calls[index]
            out[f"{name}.self_s"] = self.self_s[index]
            layer_self[module] += self.self_s[index]
        for module, value in layer_self.items():
            out[f"{module}.self_s"] = value
        for name, value in self.counters.items():
            if name == "clark_ocone.co_term.nonempty":
                calls = out["clark_ocone.co_term.calls"]
                out["clark_ocone.co_term.nonempty_ratio"] = value / calls if calls else 0.0
            else:
                out[name] = value
        return out

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as handle:
            for sid, index, start, end, parent in self.spans:
                handle.write(
                    json.dumps(
                        {"id": sid, "name": self.names[index], "start": start,
                         "end": end, "parent": parent}
                    )
                    + "\n"
                )


def _fockcalc_modules() -> List[Any]:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if name == "fockcalc" or name.startswith("fockcalc.")
    ]


def install(recorder: SpanRecorder) -> List[Tuple[Any, str, Any]]:
    """Wrap every entry of ``WRAPPED``; returns (owner, name, original) to undo."""
    patches: List[Tuple[Any, str, Any]] = []
    modules = _fockcalc_modules()
    for index, (module, attribute, *_) in enumerate(WRAPPED):
        home = importlib.import_module(f"fockcalc.{module}")
        owner_name, _, name = attribute.rpartition(".")
        if owner_name:
            owner = getattr(home, owner_name)
            original = owner.__dict__[name]
            if isinstance(original, classmethod):
                wrapper = classmethod(recorder.wrap(index, original.__func__))
            else:
                wrapper = recorder.wrap(index, original)
            setattr(owner, name, wrapper)
            patches.append((owner, name, original))
            continue
        original = getattr(home, name)
        wrapper = recorder.wrap(index, original)
        for namespace in modules:
            for key, value in list(vars(namespace).items()):
                if value is original:
                    setattr(namespace, key, wrapper)
                    patches.append((namespace, key, original))
    return patches


def restore(patches: List[Tuple[Any, str, Any]]) -> None:
    for owner, name, original in reversed(patches):
        setattr(owner, name, original)


@contextmanager
def traced(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    patches = install(recorder)
    try:
        yield recorder
    finally:
        restore(patches)
