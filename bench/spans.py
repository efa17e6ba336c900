"""In-memory spans around the calls by which one entpow layer calls the next.

The tracer patches module-level names from outside the package: a caller's
binding (``entpow.spectrum.ep_value``, say) is replaced by a wrapper that
records ``(layer, target, start, end, parent)`` and restored on exit.  Spans
stay in a list until the run ends; a layer's self time is the duration of its
spans minus the time covered by their child spans.
"""

import functools
import importlib
from time import perf_counter

#: (layer, module, attribute) of every boundary call the traced run wraps.
#: The caller's binding is patched, so a call is seen wherever it is made.
TARGETS = (
    ("cli", "entpow.cli", "main"),
    ("gates", "entpow.cli", "save_gate"),
    ("spectrum", "entpow.cli", "sample_q"),
    ("search", "entpow.cli", "maximize_ep"),
    ("search", "entpow.search", "exhaustive_permutation_max"),
    ("power", "entpow.spectrum", "ep_value"),
    ("power", "entpow.search", "ep_value"),
    ("sampling", "entpow.spectrum", "_haar_unitary_from"),
    ("sampling", "entpow.search", "_haar_unitary_from"),
)

LAYERS = ("cli", "gates", "spectrum", "search", "power", "sampling")


class Tracer:
    """Records nested spans while installed; use as a context manager."""

    def __init__(self):
        self.spans: list[list] = []     # [layer, target, start, end, parent index]
        self.results: list[tuple[str, object]] = []   # (target, return value) of search calls
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, target: str, fn):
        spans, stack = self.spans, self._stack
        keep = layer == "search"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([layer, target, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx][2:4] = start, end
            if keep:
                self.results.append((target, out))
            return out

        return traced

    def __enter__(self):
        for layer, module, attr in TARGETS:
            owner, target = importlib.import_module(module), f"{module}.{attr}"
            fn = getattr(owner, attr, None)
            if fn is None:
                self.missing.append(target)
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(layer, target, fn))
        return self

    def __exit__(self, *exc):
        for owner, name, fn in reversed(self._saved):
            setattr(owner, name, fn)
        self._saved.clear()
        return False

    def absent_layers(self) -> list[str]:
        """Layers none of whose boundary functions exist any more."""
        present = {layer for layer, module, attr in TARGETS
                   if f"{module}.{attr}" not in self.missing}
        return [layer for layer in LAYERS if layer not in present]

    def summary(self) -> dict:
        """Call count, inclusive time and self time per layer and per target."""
        covered = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        layers = {name: {"calls": 0, "self_s": 0.0} for name in LAYERS}
        targets: dict[str, dict] = {}
        for (layer, target, start, end, _), inner in zip(self.spans, covered):
            row = targets.setdefault(target, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - inner
            layers[layer]["calls"] += 1
            layers[layer]["self_s"] += end - start - inner
        return {"layers": layers, "targets": targets}
