"""Benchmark suite assembly: low-level, full-stack, and subcircuit benchmarks.

A suite pairs benchmarking circuits B (the inputs themselves, compiled
versions of them, or subcircuits snipped out of them) with the mirror proxy
circuits produced for each, and a manifest tying everything together.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from mirrorbench.circuits import Circuit, ContractError, permutation_matrix
from mirrorbench.manifest import Manifest
from mirrorbench.mirror import MirrorCircuit, SamplingParams, build_suite, check_native
from mirrorbench.sim import derive_seed, process_fidelity_unitaries, unitary_of
from mirrorbench.transpile import TranspileConfig, transpile

__all__ = [
    "ShapeSpec",
    "BenchmarkSuite",
    "build_low_level",
    "build_full_stack",
    "snip",
    "build_subcircuit",
]

# Widest coupling whose compilations are checked against the input's dense
# unitary for the intrinsic fidelity; wider ones record the drop budget.
_INTRINSIC_MAX_N = 10


@dataclass(frozen=True)
class ShapeSpec:
    """Subcircuit shape grid: (width, depth) pairs and samples per shape."""

    shapes: tuple[tuple[int, int], ...]
    samples_per_shape: int = 30

    def __post_init__(self):
        if self.samples_per_shape < 1:
            raise ContractError("samples_per_shape must be >= 1")
        for w, d in self.shapes:
            if w < 1 or d < 1:
                raise ContractError(f"bad shape ({w}, {d})")


@dataclass
class BenchmarkSuite:
    """Manifest plus an iterator over all circuits (benchmarks then proxies).

    ``circuits`` is a single-pass generator so that very wide suites stream
    to disk without being held in memory; the manifest records are complete
    only after the generator is exhausted.
    """

    manifest: Manifest
    circuits: Iterator[Circuit]


def _record_for_benchmark(c: Circuit, **extra) -> dict:
    rec = {"id": c.id, "kind": "benchmark", "parent_id": None,
           "width": c.n, "depth": c.depth}
    if "trotter" in c.meta:
        rec["trotter"] = c.meta["trotter"]
    rec.update(extra)
    return rec


def _record_for_mirror(mc: MirrorCircuit) -> dict:
    return {"id": mc.circuit.id, "kind": mc.kind, "parent_id": mc.parent_id,
            "target_bitstring": mc.target, "width": mc.circuit.n,
            "depth": mc.circuit.depth}


def _suite(benchmark_type: str, benchmarks: list[tuple[Circuit, dict]],
           params: SamplingParams, shots: int) -> BenchmarkSuite:
    """The suite of these benchmarks: each benchmark, then all their proxies."""
    records: list[dict] = []

    def emit() -> Iterator[Circuit]:
        for b, rec in benchmarks:
            records.append(rec)
            yield b
        for b, _ in benchmarks:
            for mc in build_suite(b, params):
                records.append(_record_for_mirror(mc))
                mc.circuit.meta["target"] = mc.target
                yield mc.circuit

    manifest = Manifest(benchmark_type,
                        {"m1": params.m1, "m2": params.m2, "m3": params.m3,
                         "shots": shots, "seed": params.seed}, records)
    return BenchmarkSuite(manifest, emit())


def build_low_level(circuits: list[Circuit], params: SamplingParams,
                    shots: int = 1000) -> BenchmarkSuite:
    """B = C: benchmark the inputs directly. All inputs must be native."""
    for c in circuits:
        check_native(c, "low-level")
    return _suite("low_level", [(c, _record_for_benchmark(c)) for c in circuits],
                  params, shots)


def build_full_stack(circuits: list[Circuit], cfg: TranspileConfig, reps: int,
                     params: SamplingParams, shots: int = 1000) -> BenchmarkSuite:
    """B = transpilations of the inputs, ``reps`` stochastic compilations each.

    The mirror halves are built from the compiled circuit, so its noise
    fidelity is what gets estimated; the intrinsic fidelity of the compiled
    unitary to the intended one is recorded per benchmark record (exact dense
    value when the coupling has at most _INTRINSIC_MAX_N wires, the per-gate
    drop budget above that). The coupling may be wider than an input: the
    compiled circuit, and its permutation, cover all of its wires.
    """
    if reps < 1:
        raise ContractError("reps must be >= 1")
    benchmarks: list[tuple[Circuit, dict]] = []
    for c in circuits:
        intended = unitary_of(c) if cfg.coupling.n <= _INTRINSIC_MAX_N else None
        for r in range(reps):
            seed = int(derive_seed(params.seed, c.id, "fullstack", r)
                       .integers(0, 2 ** 31))
            rcfg = replace(cfg, seed=seed)
            compiled = transpile(c, rcfg)
            compiled = compiled.with_id(f"{c.id}.rep{r}.native")
            if intended is not None:
                u = (permutation_matrix(compiled.meta["permutation"], compiled.n).conj().T
                     @ unitary_of(compiled))
                pad = np.eye(1 << (compiled.n - c.n))
                intrinsic = process_fidelity_unitaries(np.kron(intended, pad), u)
            else:
                intrinsic = compiled.meta["intrinsic_fidelity_budget"]
            rec = _record_for_benchmark(
                compiled, parent_id=None, source_id=c.id, rep=r,
                intrinsic_fidelity=float(intrinsic),
                transpile_config_digest=rcfg.digest(),
                permutation=list(compiled.meta["permutation"]))
            benchmarks.append((compiled, rec))
    return _suite("full_stack", benchmarks, params, shots)


# --- subcircuit snipping -------------------------------------------------------------


def _connected_subset(pairs: np.ndarray, active: list[int], w: int, rng) -> list[int]:
    """Random connected w-subset on the graph of the window's 2q gates (``pairs``).

    Falls back to window-active qubits, then to the smallest other qubits
    (all below ``w``), when the graph cannot grow a connected component of
    size w. Every qubit returned is below the circuit's width.
    """
    for _ in range(20):
        if not active:
            break
        subset = [int(active[rng.integers(len(active))])]
        while len(subset) < w:
            # the partners of the subset's members in the window, minus the subset
            frontier = np.setdiff1d(pairs[np.isin(pairs, subset)[:, ::-1]], subset)
            if not len(frontier):
                break
            subset.append(int(frontier[rng.integers(len(frontier))]))
        if len(subset) == w:
            return sorted(subset)
    # fall back to active qubits, topped up with the smallest others
    subset = set()
    act = list(active)
    while len(subset) < w and act:
        subset.add(int(act.pop(rng.integers(len(act)))))
    rest = [q for q in range(w) if q not in subset]
    return sorted(subset.union(rest[:w - len(subset)]))


def snip(c: Circuit, w: int, d: int, rng) -> Circuit:
    """Cut a (w, d)-shaped subcircuit out of c.

    A contiguous window of d layers and a connected w-qubit subset are chosen
    uniformly at random; 2-qubit gates straddling the subset boundary are
    dropped and qubits are relabeled 0..w-1. Window, subset, and dropped-gate
    count are recorded in the metadata.
    """
    if not (1 <= w <= c.n) or not (1 <= d <= c.depth):
        raise ContractError(
            f"shape ({w}, {d}) does not fit circuit of shape ({c.n}, {c.depth})")
    start = int(rng.integers(0, c.depth - d + 1))
    bounds = c.layer_start[start:start + d + 1]
    window = slice(bounds[0], bounds[-1])
    qubits = c.qubits[window]
    if w == c.n:
        subset = list(range(c.n))
    else:
        active = np.unique(qubits[qubits >= 0]).tolist()
        subset = _connected_subset(qubits[qubits[:, 1] >= 0], active, w, rng)
    relabel = np.full(c.n, -1)
    relabel[subset] = np.arange(w)
    used = qubits >= 0
    mapped = np.where(used, relabel[np.where(used, qubits, 0)], -1)
    inside = (mapped >= 0).sum(axis=1)
    keep = inside == used.sum(axis=1)
    layer = np.repeat(np.arange(d), np.diff(bounds))
    meta = {"snip": {"parent_id": c.id, "window_start": start,
                     "qubits": subset, "dropped_2q": int(np.sum(~keep & (inside > 0)))}}
    return Circuit.from_arrays(
        w, c.kind[window][keep], mapped[keep], c.params[window][keep],
        np.cumsum([0, *np.bincount(layer[keep], minlength=d)]), f"{c.id}.snip", meta)


def build_subcircuit(circuits: list[Circuit], shapes: ShapeSpec,
                     params: SamplingParams, shots: int = 1000) -> BenchmarkSuite:
    """B = K random snips per shape per input circuit."""
    for c in circuits:
        check_native(c, "subcircuit")
    benchmarks: list[tuple[Circuit, dict]] = []
    for c in circuits:
        for w, d in shapes.shapes:
            for k in range(shapes.samples_per_shape):
                rng = derive_seed(params.seed, c.id, "snip", w, d, k)
                s = snip(c, w, d, rng)
                s = s.with_id(f"{c.id}.w{w}d{d}.{k}")
                rec = _record_for_benchmark(
                    s, source_id=c.id, shape=[w, d],
                    window_start=s.meta["snip"]["window_start"],
                    qubits=list(s.meta["snip"]["qubits"]),
                    dropped_2q=s.meta["snip"]["dropped_2q"])
                benchmarks.append((s, rec))
    return _suite("subcircuit", benchmarks, params, shots)
