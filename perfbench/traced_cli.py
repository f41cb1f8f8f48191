"""Run one rootparity command with a timing span around each call into a layer.

    PYTHONPATH=src python3 perfbench/traced_cli.py SPANS_JSON COMMAND_ID -- CLI_ARGS...

Standard output and the exit status are those of
``python -m rootparity.cli CLI_ARGS``.  Spans are kept in memory and written
to SPANS_JSON when the command exits.  The package is not modified: each
wrapped public function is rebound in every rootparity module that holds a
reference to it (``from .numtheory import is_prime`` makes a second name), so
calls inside the package get their spans too.
"""

import importlib
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

# The public functions timed in each layer (module of src/rootparity).
LAYERS = {
    "numtheory": ("is_prime", "factorize", "multiplicative_order", "primitive_roots",
                  "is_mersenne_prime", "smallest_mersenne_factor"),
    "sequence": ("build_context", "build_s_sequence", "pattern_stats", "cz_bound_check",
                 "block_count"),
    "complexity": ("linear_complexity_bm", "linear_complexity_gcd", "two_adic_complexity",
                   "full_report"),
    "search": ("largest_p_for_T", "build_row", "reproduce_table1", "reproduce_table2"),
    "bounds": ("predicted_balance_fracs", "predicted_pattern_frac", "classify_eta"),
    "cli": ("run",),
}
CACHED = ("numtheory.primitive_roots", "sequence.build_context")
# Layers whose functions are reported together as one `<layer>.calls` / `<layer>.self_s`.
POOLED = ("bounds",)


def _smf_counts(args, q):
    # candidates tested: k for the factor q = 2kT + 1, else the whole budget
    T, k_max = args["T"], args["k_max"]
    return {"candidates": k_max if q is None else (q - 1) // (2 * T), "found": int(q is not None)}


# Work counted at the same boundaries as the spans: name -> f(bound args, result).
COUNTERS = {
    "numtheory.is_mersenne_prime": lambda a, r: {"exponent_sum": a["T"]},
    "numtheory.smallest_mersenne_factor": _smf_counts,
    "complexity.linear_complexity_bm": lambda a, r: {"bits": a["seq"].period},
    "complexity.linear_complexity_gcd": lambda a, r: {"bits": a["seq"].period},
}
# Reported beside every function's calls and self_s, with their units.
EXTRA_UNITS = {
    "numtheory.is_mersenne_prime.exponent_sum": "count",
    "numtheory.smallest_mersenne_factor.candidates": "count",
    "numtheory.smallest_mersenne_factor.found_ratio": "1",
    "numtheory.primitive_roots.cache_hit_ratio": "1",
    "sequence.build_context.cache_hit_ratio": "1",
    "complexity.linear_complexity_bm.bits": "count",
    "complexity.linear_complexity_gcd.bits": "count",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer, names in LAYERS.items():
        for key in [layer] if layer in POOLED else [f"{layer}.{n}" for n in names]:
            units[f"{key}.calls"] = "count"
            units[f"{key}.self_s"] = "s"
            units.update({m: u for m, u in EXTRA_UNITS.items() if m.rsplit(".", 1)[0] == key})
    return units


def add_ratios(totals: dict) -> None:
    """Derive the ratio metrics from summed counts; a ratio with no calls reads 0."""
    for name in CACHED:
        looked_up = totals.get(f"{name}.cache_hits", 0) + totals.get(f"{name}.cache_misses", 0)
        totals[f"{name}.cache_hit_ratio"] = totals.get(f"{name}.cache_hits", 0) / (looked_up or 1)
    smf = "numtheory.smallest_mersenne_factor"
    totals[f"{smf}.found_ratio"] = totals.get(f"{smf}.found", 0) / (totals.get(f"{smf}.calls", 0) or 1)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []  # [name index, start, end, parent span index or -1]
        self.stack: list[int] = []
        self.counters = defaultdict(lambda: defaultdict(int))
        self.cached = {}  # name -> (function, cache_info at install)

    def _wrap(self, name, fn):
        fid = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self.stack
        count = COUNTERS.get(name)
        sig = inspect.signature(fn) if count else None

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = [fid, start, perf_counter(), parent]
                stack.pop()
            if count:
                for key, value in count(sig.bind(*args, **kwargs).arguments, result).items():
                    self.counters[name][key] += value
            return result

        return traced

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"rootparity.{layer}") for layer in LAYERS}
        by_id = {}
        for layer, names in LAYERS.items():
            for fname in names:
                fn = getattr(modules[layer], fname)
                name = f"{layer}.{fname}"
                by_id[id(fn)] = (fn, self._wrap(name, fn))
                if name in CACHED:
                    self.cached[name] = (fn, fn.cache_info())
        for modname, mod in list(sys.modules.items()):
            if modname == "rootparity" or modname.startswith("rootparity."):
                for attr, value in list(vars(mod).items()):
                    hit = by_id.get(id(value))
                    if hit and hit[0] is value:
                        setattr(mod, attr, hit[1])

    def dump(self, path: str, command_id: str) -> None:
        cache = {}
        for name, (fn, before) in self.cached.items():
            after = fn.cache_info()
            cache[name] = [after.hits - before.hits, after.misses - before.misses]
        doc = {
            "command": command_id,
            "names": self.names,
            "spans": self.spans,
            "counters": {k: dict(v) for k, v in self.counters.items()},
            "cache": cache,
        }
        with open(path, "w") as f:
            json.dump(doc, f)


def layer_totals(doc: dict) -> dict[str, float]:
    """Per-layer metrics of one command's spans: calls, self time and counts."""
    names, spans = doc["names"], doc["spans"]
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = defaultdict(float)
    for i, (fid, start, end, _) in enumerate(spans):
        name = names[fid]
        layer = name.split(".")[0]
        key = layer if layer in POOLED else name
        out[f"{key}.calls"] += 1
        out[f"{key}.self_s"] += (end - start) - child[i]
    for name, counts in doc["counters"].items():
        for key, value in counts.items():
            out[f"{name}.{key}"] += value
    for name, (hits, misses) in doc["cache"].items():
        out[f"{name}.cache_hits"] += hits
        out[f"{name}.cache_misses"] += misses
    return out


def main(argv: list[str]) -> None:
    spans_path, command_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS_JSON COMMAND_ID -- CLI_ARGS...")
    tracer = Tracer()
    tracer.install()
    from rootparity import cli

    try:
        code = cli.run(cli_args)
    finally:
        tracer.dump(spans_path, command_id)
    raise SystemExit(code)


if __name__ == "__main__":
    main(sys.argv[1:])
