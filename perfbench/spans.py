"""Spans and counts around the calls into each mirrorbench module.

``Tracer.installed()`` replaces the module-boundary functions listed in
``BOUNDARIES`` with wrappers that record a span per call, in every
``mirrorbench`` module that holds a reference to them (the modules import
each other's functions by name), and puts the originals back on exit.
A generator result gets a span per item it yields, because its work happens
when the consumer pulls items. Spans stay in memory; ``layer_metrics``
reduces them when the round ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        # name, start, end, parent index (-1 for a root span)
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _iterate(self, name: str, items, on_item):
        while True:
            with self.span(name):
                try:
                    item = next(items)
                except StopIteration:
                    return
            if on_item:
                on_item(self, item)
            yield item

    def _wrap(self, name: str, fn, on_result):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if inspect.isgenerator(result):
                return self._iterate(name, result, on_result)
            if on_result:
                result = on_result(self, result, *args, **kwargs) or result
            return result
        return traced

    @contextmanager
    def installed(self):
        """Swap every boundary function for its traced wrapper while active."""
        modules = [m for k, m in list(sys.modules.items())
                   if k == "mirrorbench" or k.startswith("mirrorbench.")]
        swapped = []
        for (mod_name, fn_name), on_result in BOUNDARIES.items():
            orig = getattr(sys.modules[f"mirrorbench.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", orig, on_result)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                        swapped.append((mod, key, orig))
        try:
            yield self
        finally:
            for mod, key, orig in swapped:
                setattr(mod, key, orig)


# --- counts recorded at the boundaries -------------------------------------------


def _suite(tracer, suite, *args, **kwargs):
    # The suite's circuits are produced lazily by bench's generator, which in
    # turn pulls mirror proxies; give that generator its own span per item.
    suite.circuits = tracer._iterate("bench.emit", iter(suite.circuits), None)
    return suite


def _snip(tracer, result, *args, **kwargs):
    tracer.counts["bench.snips"] += 1


def _transpiled(tracer, result, *args, **kwargs):
    tracer.counts["transpile.calls"] += 1
    tracer.counts["transpile.out_ops"] += result.num_ops()


def _proxy(tracer, mc):
    tracer.counts["mirror.proxies"] += 1
    tracer.counts["mirror.gates_out"] += mc.circuit.num_ops()


def _sampled(tracer, result, c, nm, shots, *args, **kwargs):
    tracer.counts["sim.proxies"] += 1
    tracer.counts["sim.amp_updates"] += c.num_ops() * (1 << c.n) * shots


def _faked(tracer, result, *args, **kwargs):
    tracer.counts["sim.proxies"] += 1


def _oracle(tracer, result, *args, **kwargs):
    tracer.counts["sim.oracle_calls"] += 1


def _estimated(tracer, result, *args, **kwargs):
    tracer.counts["analysis.benchmarks"] += 1


# (module, public function) -> hook called with the result (or each yielded item)
BOUNDARIES = {
    ("algos", "brickwork_u3_cz"): None,
    ("algos", "qft_circuit"): None,
    ("bench", "build_low_level"): _suite,
    ("bench", "build_full_stack"): _suite,
    ("bench", "build_subcircuit"): _suite,
    ("bench", "snip"): _snip,
    ("mirror", "build_suite"): _proxy,
    ("transpile", "transpile"): _transpiled,
    ("sim", "sample_shots"): _sampled,
    ("sim", "fake_uniform_shots"): _faked,
    ("sim", "exact_process_fidelity"): _oracle,
    ("analysis", "estimate_benchmark"): _estimated,
    ("analysis", "effective_polarization"): None,
    ("analysis", "bootstrap_sigma"): None,
    ("analysis", "volumetric_summary"): None,
    ("analysis", "render_volumetric_svg"): None,
    ("storage", "write_circuits"): None,
    ("storage", "read_circuits"): None,
    ("storage", "circuit_from_json"): None,
    ("storage", "write_shot_tables"): None,
    ("storage", "read_shot_tables"): None,
    ("storage", "read_manifest"): None,
    ("storage", "write_manifest"): None,
}

LAYERS = ("cli", "algos", "bench", "mirror", "transpile", "sim", "analysis", "storage")


# --- reduction --------------------------------------------------------------------


class SpanTable:
    """Durations and self times of one round's spans."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        self.dur = [end - start for _, start, end, _ in spans]
        child = [0.0] * len(spans)
        for i, (_, _, _, parent) in enumerate(spans):
            if parent >= 0:
                child[parent] += self.dur[i]
        self.self_time = [d - c for d, c in zip(self.dur, child)]

    def total(self, *names: str) -> float:
        """Summed duration of spans with these names, not counting a span
        nested inside another of the same set."""
        wanted = set(names)
        out = 0.0
        for i, (name, _, _, parent) in enumerate(self.spans):
            if name not in wanted:
                continue
            while parent >= 0 and self.spans[parent][0] not in wanted:
                parent = self.spans[parent][3]
            if parent < 0:
                out += self.dur[i]
        return out

    def self_of(self, prefix: str) -> float:
        """Summed self time of the spans whose name starts with ``prefix``."""
        return sum(t for (name, *_), t in zip(self.spans, self.self_time)
                   if name.startswith(prefix))


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else float("nan")


def layer_metrics(tracer: Tracer, stages, circuits_bytes: int, shots_bytes: int) -> dict:
    """Per-layer metrics of one traced round, as name -> (value, unit)."""
    t = SpanTable(tracer.spans)
    c = tracer.counts
    m = {}
    for stage in stages:
        m[f"cli.self_s.{stage}"] = (t.self_of(f"cli.{stage}"), "s")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (t.self_of(f"{layer}."), "s")
    m["algos.build_s"] = (t.total(*(f"algos.{f}" for (mod, f) in BOUNDARIES if mod == "algos")), "s")
    m["transpile.transpile_s"] = (t.total("transpile.transpile"), "s")
    m["transpile.calls"] = (c["transpile.calls"], "count")
    m["transpile.out_ops"] = (c["transpile.out_ops"], "count")
    m["bench.snip_s"] = (t.total("bench.snip"), "s")
    m["bench.snips"] = (c["bench.snips"], "count")
    mirror_s = t.total("mirror.build_suite")
    m["mirror.build_s"] = (mirror_s, "s")
    m["mirror.proxies"] = (c["mirror.proxies"], "count")
    m["mirror.gates_out"] = (c["mirror.gates_out"], "count")
    m["mirror.us_per_gate"] = (_ratio(mirror_s, c["mirror.gates_out"], 1e6), "us")
    sample_s = t.total("sim.sample_shots")
    fake_s = t.total("sim.fake_uniform_shots")
    m["sim.sample_shots_s"] = (sample_s, "s")
    m["sim.fake_uniform_s"] = (fake_s, "s")
    m["sim.shots_s"] = (sample_s + fake_s, "s")
    m["sim.proxies"] = (c["sim.proxies"], "count")
    m["sim.ms_per_proxy"] = (_ratio(sample_s + fake_s, c["sim.proxies"], 1e3), "ms")
    m["sim.amp_updates"] = (c["sim.amp_updates"], "count")
    m["sim.ns_per_amp_update"] = (_ratio(sample_s, c["sim.amp_updates"], 1e9), "ns")
    m["sim.oracle_s"] = (t.total("sim.exact_process_fidelity"), "s")
    m["sim.oracle_calls"] = (c["sim.oracle_calls"], "count")
    m["analysis.polarization_s"] = (t.total("analysis.effective_polarization"), "s")
    m["analysis.bootstrap_s"] = (t.total("analysis.bootstrap_sigma"), "s")
    m["analysis.benchmarks"] = (c["analysis.benchmarks"], "count")
    m["analysis.render_s"] = (t.total("analysis.volumetric_summary",
                                      "analysis.render_volumetric_svg"), "s")
    write_c = t.self_of("storage.write_circuits")
    write_s = t.total("storage.write_shot_tables")
    m["storage.write_circuits_s"] = (write_c, "s")
    m["storage.read_circuits_s"] = (t.total("storage.read_circuits", "storage.circuit_from_json"), "s")
    m["storage.write_shots_s"] = (write_s, "s")
    m["storage.read_shots_s"] = (t.total("storage.read_shot_tables"), "s")
    m["storage.circuits_mb"] = (circuits_bytes / 1e6, "MB")
    m["storage.shots_mb"] = (shots_bytes / 1e6, "MB")
    m["storage.write_mb_per_s"] = (_ratio((circuits_bytes + shots_bytes) / 1e6, write_c + write_s), "MB/s")
    return m
