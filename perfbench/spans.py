"""Per-layer tracing from outside the program.

`Tracer.install` wraps the entry points of each parkline layer, replacing
every reference to the original function in the parkline modules (and
`numpy.unique`). Each wrapper records a span (name, start, end, parent)
in memory; spans of one query form one trace, which `end_query` reduces
to per-layer totals and drops. A layer's self time is its spans' duration
minus the time their child spans cover.

The `words` layer is not wrapped: its calls are so short and frequent
that timing them would swamp them, so their time stays inside the self
time of their callers.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name). A span name's prefix before the first
# dot is its layer. fiber_counts_brute lives in forests but is an
# exhaustive reduction like the enumeration entry points. Orbit keying
# ("keys") is its own layer so that enumeration self time excludes it;
# np.unique counts towards it only when an enumeration span calls it.
HOOKS = (
    ("parkline._kernels", "alphabet_chunks", "kernels.chunk"),
    ("parkline._kernels", "word_chunks", "kernels.chunk"),
    ("parkline._kernels", "table_parked", "kernels.sim"),
    ("parkline._kernels", "lbs_parked", "kernels.sim"),
    ("parkline.enumeration", "parked_matrix", "enumeration.parked_matrix"),
    ("parkline.enumeration", "count_parking", "enumeration"),
    ("parkline.enumeration", "orbit_audit", "enumeration"),
    ("parkline.enumeration", "count_words_to_set", "enumeration"),
    ("parkline.forests", "fiber_counts_brute", "enumeration"),
    ("parkline.enumeration", "_canonical_keys", "keys"),
    ("numpy", "unique", "keys.unique"),
    ("parkline.procedures", "run_engine", "procedures.run"),
    ("parkline.probabilistic", "measure", "probabilistic.measure"),
    ("parkline.probabilistic", "parking_probability", "probabilistic"),
    ("parkline.probabilistic", "total_parking_mass", "probabilistic"),
    ("parkline.probabilistic", "orbit_parking_mass", "probabilistic"),
    ("parkline.probabilistic", "is_abelian", "probabilistic"),
    ("parkline.forests", "label_set", "forests.label_set"),
    ("parkline.forests", "encode", "forests.encode"),
    ("parkline.forests", "fiber_count", "forests"),
    ("parkline.forests", "shape_count", "forests"),
    ("parkline.forests", "total_displacement", "forests"),
    ("parkline.colored", "colored_orbit_audit", "colored.audit"),
    ("parkline.cli", "main", "cli"),
)

# per-layer metrics in the order they are reported, with units
METRICS = {
    "kernels.chunk_s": "s",
    "kernels.sim_s": "s",
    "kernels.ns_per_word": "ns",
    "kernels.calls": "count",
    "kernels.words": "count",
    "enumeration.self_s": "s",
    "enumeration.keys_s": "s",
    "enumeration.engine_words": "count",
    "enumeration.useful_ratio": "ratio",
    "procedures.runs": "count",
    "procedures.run_s": "s",
    "probabilistic.measure_calls": "count",
    "probabilistic.measure_s": "s",
    "probabilistic.support_states": "count",
    "probabilistic.self_s": "s",
    "forests.label_set_calls": "count",
    "forests.label_set_s": "s",
    "forests.encode_s": "s",
    "colored.audit_s": "s",
    "cli.self_s": "s",
}


def _parkline_namespaces():
    return [
        vars(mod)
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "parkline" or name.startswith("parkline."))
    ]


class Tracer:
    def __init__(self, clock=perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.totals: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._patched: list[tuple[dict, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        self.spans.append([name, self.clock(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def _close(self, idx: int) -> None:
        self.stack.pop()
        self.spans[idx][2] = self.clock()

    def _inside(self, prefix: str) -> bool:
        return any(self.spans[i][0].startswith(prefix) for i in self.stack)

    # -- counts recorded at the boundaries -------------------------------------

    def _after(self, name: str, attr: str, args, result, kernel_words_before: float) -> None:
        t = self.totals
        if name == "kernels.sim":
            t["kernels.calls"] += 1
            t["kernels.words"] += len(args[0])
        elif name == "enumeration.parked_matrix":
            n = len(args[1])
            t["enumeration.simulated"] += n
            if t["kernels.words"] == kernel_words_before:
                t["enumeration.engine_words"] += n
        elif name == "enumeration" and not self._inside("enumeration"):
            if attr == "orbit_audit":
                found = result.parking_total
            elif attr == "fiber_counts_brute":
                found = sum(result.values())
            else:
                found = result
            t["enumeration.found"] += found
        elif name == "procedures.run":
            t["procedures.runs"] += 1
        elif name == "probabilistic.measure":
            t["probabilistic.measure_calls"] += 1
            t["probabilistic.support_states"] += len(result.probs)
        elif name == "forests.label_set":
            t["forests.label_set_calls"] += 1

    def _wrap(self, fn, attr: str, name: str):
        tracer = self
        if attr in ("alphabet_chunks", "word_chunks"):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    idx = tracer._open(name)
                    try:
                        chunk = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(idx)
                    yield chunk

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = tracer.totals["kernels.words"]
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            tracer._after(name, attr, args, result, before)
            return result

        return wrapper

    # -- install / remove ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every hook target that exists; a missing one is recorded as
        an absent layer entry point."""
        self.absent = []
        for module, attr, name in HOOKS:
            mod = sys.modules.get(module)
            original = getattr(mod, attr, None) if mod is not None else None
            if original is None:
                self.absent.append(f"{module}.{attr}")
                continue
            wrapper = self._wrap(original, attr, name)
            spaces = [vars(mod)] if module == "numpy" else _parkline_namespaces()
            for ns in spaces:
                for key, value in list(ns.items()):
                    if value is original:
                        ns[key] = wrapper
                        self._patched.append((ns, key, original))

    def remove(self) -> None:
        for ns, key, original in reversed(self._patched):
            ns[key] = original
        self._patched.clear()

    # -- one trace per query -------------------------------------------------------

    def end_query(self) -> None:
        """Reduce the finished query's spans to layer totals and drop them."""
        spans, t = self.spans, self.totals
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent) in enumerate(spans):
            duration = end - start
            own = duration - child[i]
            layer = name.split(".", 1)[0]
            t[f"self.{layer}"] += own
            t[f"time.{name}"] += duration
            if name == "keys.unique" and parent >= 0 and spans[parent][0].startswith("enumeration"):
                t["time.keys"] += duration
        self.spans = []
        self.stack = []

    def take(self) -> dict[str, float]:
        """Layer metrics of the traced pass just run; the totals start
        again from zero."""
        t, self.totals = self.totals, defaultdict(float)
        out = {
            "kernels.chunk_s": t["self.kernels"] - t["time.kernels.sim"],
            "kernels.sim_s": t["time.kernels.sim"],
            "kernels.calls": t["kernels.calls"],
            "kernels.words": t["kernels.words"],
            "enumeration.self_s": t["self.enumeration"],
            "enumeration.keys_s": t["time.keys"],
            "enumeration.engine_words": t["enumeration.engine_words"],
            "procedures.runs": t["procedures.runs"],
            "procedures.run_s": t["time.procedures.run"],
            "probabilistic.measure_calls": t["probabilistic.measure_calls"],
            "probabilistic.measure_s": t["time.probabilistic.measure"],
            "probabilistic.support_states": t["probabilistic.support_states"],
            "probabilistic.self_s": t["self.probabilistic"],
            "forests.label_set_calls": t["forests.label_set_calls"],
            "forests.label_set_s": t["time.forests.label_set"],
            "forests.encode_s": t["time.forests.encode"],
            "colored.audit_s": t["time.colored.audit"],
            "cli.self_s": t["self.cli"],
        }
        words = t["kernels.words"]
        out["kernels.ns_per_word"] = out["kernels.sim_s"] / words * 1e9 if words else 0.0
        simulated = t["enumeration.simulated"]
        out["enumeration.useful_ratio"] = t["enumeration.found"] / simulated if simulated else 0.0
        return out
