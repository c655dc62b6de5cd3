"""Spans at holodet's layer boundaries, recorded from outside the program.

A layer is one of holodet's modules.  ``Tracer.install`` wraps

* every public function of a layer module at each place another holodet
  module, or the harness's program namespace, looks it up (for example
  ``extension.cone_potential`` and ``cli.zeta_log_det``), and
* every public method of a public class of a layer module, on the class.

Calls inside one module are not wrapped, so their time stays with the span
that made them.  Functions of ``polymap`` and the coefficient closures that
``catalog`` builds are not layers: they run inside ``potential_builder``
spans and count there.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import time

LAYERS = ("cli", "catalog", "special_functions", "torus_spectral",
          "potential_builder", "extension", "polarization")

# fields of a span record
NAME, LAYER, START, END, PARENT, RAISED, OP = range(7)


def layer_of(fn) -> str | None:
    layer = getattr(fn, "__module__", "").rpartition(".")[2]
    return layer if layer in LAYERS else None


class Tracer:
    """Records [name, layer, start, end, parent, raised, op] for each wrapped call."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        #: index of the harness op being run; stamped on every span
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def wrap(self, layer: str, name: str, fn):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, layer, clock(), 0.0, stack[-1] if stack else -1, False, self.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()

        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self, modules: dict, harness) -> None:
        """Wrap the layer boundaries of ``modules`` (short name -> module) and ``harness``."""
        for owner_name, owner in [*modules.items(), ("harness", harness)]:
            for attr, value in list(vars(owner).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                home = layer_of(value)
                if home is not None and home != owner_name:
                    self._patch(owner, attr, self.wrap(home, f"{home}.{attr}", value))
        for layer in LAYERS:
            module = modules[layer]
            for cls in list(vars(module).values()):
                if not (inspect.isclass(cls) and cls.__module__ == module.__name__):
                    continue
                for attr, raw in list(vars(cls).items()):
                    if attr.startswith("_"):
                        continue
                    name = f"{layer}.{cls.__name__}.{attr}"
                    if isinstance(raw, (classmethod, staticmethod)):
                        new = type(raw)(self.wrap(layer, name, raw.__func__))
                    elif inspect.isfunction(raw):
                        new = self.wrap(layer, name, raw)
                    else:
                        continue
                    self._patch(cls, attr, new)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def layer_metrics(spans, wall: float, ops: int) -> dict:
    """Per-layer calls, self time and error ratio per op, and the harness remainder.

    ``wall`` is the traced wall time of ``ops`` harness ops.  The layers' self
    times and ``harness.self_ms_per_op`` add up to ``wall`` by construction:
    the harness gets whatever no top-level span covers.
    """
    calls = dict.fromkeys(LAYERS, 0)
    errors = dict.fromkeys(LAYERS, 0)
    self_s = dict.fromkeys(LAYERS, 0.0)
    covered = 0.0
    for span, own in zip(spans, self_times(spans)):
        layer = span[LAYER]
        calls[layer] += 1
        errors[layer] += span[RAISED]
        self_s[layer] += own
        if span[PARENT] < 0:
            covered += span[END] - span[START]
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls_per_op"] = calls[layer] / ops
        metrics[f"{layer}.self_ms_per_op"] = 1e3 * self_s[layer] / ops
        metrics[f"{layer}.error_ratio"] = errors[layer] / calls[layer] if calls[layer] else 0.0
    metrics["harness.self_ms_per_op"] = 1e3 * (wall - covered) / ops
    return metrics
