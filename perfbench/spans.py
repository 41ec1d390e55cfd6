"""Outside-in instrumentation of the fedfall package.

The benchmark does not edit the package. It rebinds public functions at
every attribute of every loaded ``fedfall`` module that refers to them, so
a call is seen whichever module it goes through (``fedfall.simulate`` and
``fedfall.federation`` import most of these names directly). The original
bindings are restored on exit.

``Tracer`` keeps spans in memory: name, start, end and the enclosing span.
``TransportProbe`` is the only wrapper active in untraced runs; it records
the plaintext each update had before encryption and after decryption, which
is how the benchmark checks the transport's round-trip error.
"""

from __future__ import annotations

import statistics
import sys
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Public functions per layer, named by the package path they are exported
# from. A name the package no longer exports records zero calls; the
# per-layer call check then decides whether that matters.
TRACED = (
    "fedfall.nn.model_forward",
    "fedfall.nn.model_backward",
    "fedfall.nn.adam_step",
    "fedfall.nn.vector_to_params",
    "fedfall.nn.params_to_vector",
    "fedfall.nn.grads_to_vector",
    "fedfall.data.stack_windows",
    "fedfall.data.smote_oversample",
    "fedfall.federation.local_train",
    "fedfall.federation.run_round",
    "fedfall.federation.ensemble_predict",
    "fedfall.federation.alert_and_feedback",
    "fedfall.aggregation.swa_aggregate",
    "fedfall.aggregation.fedavg",
    "fedfall.secure_transport.keygen",
    "fedfall.secure_transport.encrypt_vector",
    "fedfall.secure_transport.decrypt_vector",
    "fedfall.simulate.simulate_full",
)

# Span names: model_forward is split by mode and batch size (1 or more).
SPANS = tuple(p.removeprefix("fedfall.") for p in TRACED if p != "fedfall.nn.model_forward") + (
    "nn.model_forward.train",
    "nn.model_forward.eval_bulk",
    "nn.model_forward.eval_single",
)

LAYERS = ("nn", "data", "federation", "aggregation", "secure_transport", "simulate")


def _resolve(path: str):
    module_name, _, attr = path.rpartition(".")
    return getattr(sys.modules.get(module_name), attr, None)


def _bindings(fn) -> list:
    """Every (module, attribute) of the loaded fedfall package bound to ``fn``."""
    out = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "fedfall" or name.startswith("fedfall.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                out.append((module, attr))
    return out


@contextmanager
def rebound(wrappers: dict):
    """Rebind each ``path -> make_wrapper`` for the duration of the block.

    ``make_wrapper(fn)`` returns the replacement for the function ``fn``
    that ``path`` names. Paths that name nothing are skipped.
    """
    saved = []
    try:
        for path, make_wrapper in wrappers.items():
            fn = _resolve(path)
            if fn is None:
                continue
            wrapper = make_wrapper(fn)
            for module, attr in _bindings(fn):
                saved.append((module, attr, fn))
                setattr(module, attr, wrapper)
        yield
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


class TransportProbe:
    """Round-trip error of every encrypted update, and the transport call count."""

    def __init__(self):
        self.calls = 0
        self.max_err = 0.0
        self.bound = 0.0
        self._sent = None

    def _encrypt(self, fn):
        def encrypt_vector(params, *args, **kwargs):
            self.calls += 1
            self._sent = np.asarray(params, dtype=np.float64)
            return fn(params, *args, **kwargs)

        return encrypt_vector

    def _decrypt(self, fn):
        def decrypt_vector(enc, key, codec):
            out = fn(enc, key, codec)
            self.calls += 1
            sent, self._sent = self._sent, None
            if sent is not None and sent.shape == out.shape:
                # clipped coordinates are outside the codec's error bound by design
                inside = np.abs(sent) <= codec.clip_range
                if inside.any():
                    self.max_err = max(self.max_err, float(np.max(np.abs(out - sent)[inside])))
            else:
                self.max_err = float("inf")
            self.bound = max(self.bound, 0.5 / codec.scale)
            return out

        return decrypt_vector

    def wrappers(self) -> dict:
        return {
            "fedfall.secure_transport.encrypt_vector": self._encrypt,
            "fedfall.secure_transport.decrypt_vector": self._decrypt,
        }


def _forward_span(args, kwargs) -> str:
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "train")
    if mode == "train":
        return "nn.model_forward.train"
    return "nn.model_forward.eval_single" if len(args[1]) == 1 else "nn.model_forward.eval_bulk"


class Tracer:
    """In-memory spans plus counters taken at the same boundaries."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index or -1]
        self._open: list = []
        self.counters: dict = {}

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def _span(self, fn, name, after=None):
        """Wrap ``fn`` in a span; ``name`` is a string or picks one from the arguments."""
        def traced(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(args, kwargs)
            record = [span_name, perf_counter(), 0.0, self._open[-1] if self._open else -1]
            self._open.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                self._open.pop()
            if after is not None:
                after(span_name, args, result)
            return result

        return traced

    def wrappers(self) -> dict:
        hooks = {
            "fedfall.nn.model_forward": self._after_forward,
            "fedfall.data.stack_windows": self._after_stack,
            "fedfall.federation.alert_and_feedback": self._after_alert,
            "fedfall.aggregation.swa_aggregate": self._after_swa,
            "fedfall.aggregation.fedavg": self._after_fedavg,
            "fedfall.secure_transport.encrypt_vector": self._after_encrypt,
            "fedfall.secure_transport.decrypt_vector": self._after_decrypt,
        }
        out = {}
        for path in TRACED:
            layer_and_fn = path.removeprefix("fedfall.")
            name = _forward_span if path == "fedfall.nn.model_forward" else layer_and_fn
            out[path] = lambda fn, name=name, after=hooks.get(path): self._span(fn, name, after)
        return out

    # counters ---------------------------------------------------------

    def _after_forward(self, span_name, args, result):
        if span_name == "nn.model_forward.eval_bulk":
            self.count("nn.model_forward.eval_bulk.windows", len(args[1]))

    def _after_stack(self, span_name, args, result):
        self.count("data.stack_windows.windows", len(args[0]))

    def _after_alert(self, span_name, args, result):
        if result is not None:
            self.count("federation.alerts", 1)
            self.count("federation.confirmed", result.response == 1)

    def _after_swa(self, span_name, args, result):
        self.count("aggregation.coords", len(result) * len(args[1]))

    def _after_fedavg(self, span_name, args, result):
        self.count("aggregation.coords", len(result) * len(args[0]))

    def _after_encrypt(self, span_name, args, result):
        self.count("secure_transport.encrypt_vector.coords", len(result))
        self.count(
            "secure_transport.ciphertext_bytes",
            sum((c.bit_length() + 7) // 8 for c in result.ciphertexts),
        )

    def _after_decrypt(self, span_name, args, result):
        self.count("secure_transport.decrypt_vector.coords", len(result))

    # summaries --------------------------------------------------------

    def span_stats(self) -> dict:
        """name -> calls, s (busy), self_s, and per-call durations in ms."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        stats: dict = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            entry = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "ms": []})
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child_s[i]
            entry["ms"].append((end - start) * 1000.0)
        return stats


def percentiles_ms(durations_ms: list) -> tuple:
    """(p50, p90) of per-call durations, or zeros below ten calls."""
    if len(durations_ms) < 10:
        return 0.0, 0.0
    return statistics.median(durations_ms), statistics.quantiles(durations_ms, n=10)[8]
