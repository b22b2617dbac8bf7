"""Per-layer spans and counts, recorded from outside the program.

``Tracer.install`` replaces every public function of the diffpath modules
with a wrapper that records a span (name, start, end, parent span, request
id) and a few counts.  A function is wrapped in every module namespace
that holds it, because a name brought in with ``from .special import
log_erf`` is looked up in the importing module; the span is always named
after the defining module (``special.log_erf``), whichever namespace the
call went through.  ``uninstall`` restores the originals.

The wrappers change no argument value: the two arguments they replace are
proxies that forward every call unchanged (the sampler's ``rng``, whose
draws are counted, and the Casimir spectrum ``f``, whose evaluations are
counted), so traced and untraced runs produce bit-identical results.
"""

from __future__ import annotations

import functools
import time
import types
from collections import defaultdict

import numpy as np

LAYERS = ("special", "paths", "velocity", "commutator", "oscillator", "casimir", "mc", "cli")

# Functions whose first argument is the array they work on; ``.elems``
# adds its size (computed from the argument, not measured inside).
_ELEMS_ARG0 = {"special.one_minus_zed", "special.log_erf", "special.chunked_sum", "special.erf"}


class CountingRng:
    """Forward every call to a numpy Generator, counting the variates returned."""

    def __init__(self, rng):
        self._rng = rng
        self.draws = 0

    def __getattr__(self, name):
        attr = getattr(self._rng, name)
        if not callable(attr):
            return attr

        def call(*args, **kwargs):
            out = attr(*args, **kwargs)
            self.draws += int(np.size(out))
            return out

        return call


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, request id]
        self.counts: dict[str, float] = defaultdict(float)
        self.request = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- installation ------------------------------------------------------

    def install(self, modules) -> None:
        wrappers: dict = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if (
                    isinstance(value, types.FunctionType)
                    and not attr.startswith("_")
                    and value.__module__.startswith("diffpath.")
                ):
                    if value not in wrappers:
                        name = value.__module__.split(".", 1)[1] + "." + value.__name__
                        wrappers[value] = self._wrap(value, name)
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._undo):
            setattr(module, attr, value)
        self._undo.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- recording ---------------------------------------------------------

    def _before(self, name, args, kwargs):
        """Count the call and its input size; return (args, kwargs, after-hook)."""
        c = self.counts
        c[name + ".calls"] += 1
        after = None
        if name in _ELEMS_ARG0 and args:
            c[name + ".elems"] += np.size(args[0])
        elif name == "paths.eval_path":
            t = args[1] if len(args) > 1 else kwargs["t"]
            c[name + ".elems"] += np.size(t) * args[0].coeffs.size
        elif name == "mc.sample_truncated_gaussian":
            args = list(args)
            if len(args) > 2:
                proxy = args[2] = CountingRng(args[2])
            else:
                proxy = kwargs["rng"] = CountingRng(kwargs["rng"])
            size = args[3] if len(args) > 3 else kwargs.get("size")
            c[name + ".samples"] += 1 if size is None else int(size)

            def after(_out):
                c[name + ".draws"] += proxy.draws

        elif name == "casimir.sum_minus_integral":
            args = list(args)
            f = args[0]

            def counted(n):
                c[name + ".terms"] += np.size(n)
                return f(n)

            args[0] = counted
        return args, kwargs, after

    def _wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            args, kwargs, after = tracer._before(name, args, kwargs)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, 0.0, 0.0, parent, tracer.request]
            tracer.spans.append(span)
            tracer._stack.append(index)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                tracer.counts[name + ".errors"] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            n_terms = getattr(out, "n_terms", None)
            if n_terms is not None:
                tracer.counts[name + ".terms"] += n_terms
            if getattr(out, "converged", True) is False:
                tracer.counts[name + ".unconverged"] += 1
            if after is not None:
                after(out)
            return out

        return wrapper

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per span name: duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def layer_table(self) -> dict[str, float]:
        """Every count plus ``<name>.self_s`` and ``mc...draws_per_sample``."""
        table = dict(self.counts)
        for name, value in self.self_times().items():
            table[name + ".self_s"] = value
        key = "mc.sample_truncated_gaussian"
        samples = table.get(key + ".samples", 0.0)
        table[key + ".draws_per_sample"] = table.get(key + ".draws", 0.0) / samples if samples else 0.0
        return table

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,parent,request\n")
            t0 = self.spans[0][1] if self.spans else 0.0
            for name, start, end, parent, request in self.spans:
                fh.write(f"{name},{start - t0:.9f},{end - t0:.9f},{parent},{request}\n")
