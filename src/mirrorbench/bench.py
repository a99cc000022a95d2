"""Benchmark suite assembly: low-level, full-stack, and subcircuit benchmarks.

A suite pairs benchmarking circuits B (the inputs themselves, compiled
versions of them, or subcircuits snipped out of them) with the mirror proxy
circuits produced for each, and a manifest tying everything together.
``suite_from_config`` builds the suite a ``config.json`` describes.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterator

import numpy as np

from mirrorbench.circuits import Circuit, ContractError, CouplingGraph, permutation_matrix
from mirrorbench.core import JsonObject, SchemaError, decoding
from mirrorbench.manifest import Manifest
from mirrorbench.mirror import MirrorCircuit, SamplingParams, build_suite, check_native
from mirrorbench.sim import derive_seed, process_fidelity_unitaries, unitary_of
from mirrorbench.transpile import TranspileConfig, decompose_to_basis, transpile

if TYPE_CHECKING:
    from mirrorbench.algos import PauliSumHamiltonian

__all__ = [
    "ShapeSpec",
    "BenchmarkSuite",
    "build_low_level",
    "build_full_stack",
    "snip",
    "build_subcircuit",
    "suite_from_config",
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


def _check_fits(c: Circuit, w: int, d: int):
    """Raise ``ContractError`` unless c holds a (w, d)-shaped subcircuit."""
    if not (1 <= w <= c.n) or not (1 <= d <= c.depth):
        raise ContractError(
            f"shape ({w}, {d}) does not fit circuit of shape ({c.n}, {c.depth})")


def snip(c: Circuit, w: int, d: int, rng) -> Circuit:
    """Cut a (w, d)-shaped subcircuit out of c.

    A contiguous window of d layers and a connected w-qubit subset are chosen
    uniformly at random; 2-qubit gates straddling the subset boundary are
    dropped and qubits are relabeled 0..w-1. Window, subset, and dropped-gate
    count are recorded in the metadata.
    """
    _check_fits(c, w, d)
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


# --- the suite a config describes -------------------------------------------------


def _coupling_from(tc: JsonObject, n: int) -> CouplingGraph:
    spec = tc.get("coupling", "all_to_all", '"line", "all_to_all" or an object',
                  lambda v: v in ("line", "all_to_all") or isinstance(v, dict))
    if isinstance(spec, str):
        return (CouplingGraph.line if spec == "line" else CouplingGraph.all_to_all)(n)
    coupling = tc.object("coupling")
    width, edges = coupling.count("n"), coupling.pairs("edges", "a, b", least=0)
    coupling.done()
    with coupling.building():
        if width < n:
            raise ContractError(f"coupling graph of {width} wires is smaller than "
                                f"the {n}-qubit circuit")
        return CouplingGraph(width, frozenset(tuple(e) for e in edges))


def _hamiltonian_from(spec: JsonObject) -> PauliSumHamiltonian:
    from mirrorbench import algos

    kind = spec.one_of("type", ("tfim", "heisenberg", "max3sat", "file"))
    if kind == "file":
        path = spec.string("path")
        spec.done()
        with decoding(path), open(path, encoding="utf-8") as fp:
            return algos.PauliSumHamiltonian.from_dict(json.load(fp), "$")
    n = spec.count("n")
    with spec.building():
        if kind == "max3sat":
            h = algos.max3sat(n, spec.count("r", 2), spec.count("seed", 0, least=0))
        else:
            h = algos.tfim(n) if kind == "tfim" else algos.heisenberg(n)
    spec.done()
    return h


def _input_circuits(inputs: JsonObject, benchmark_type: str) -> list[Circuit]:
    """Input circuits: a built-in family spec or QASM files."""
    if "qasm_paths" in inputs.data:
        from mirrorbench.qasm import parse_qasm

        paths = inputs.get("qasm_paths", what="a non-empty list of strings", fits=lambda v: (
            isinstance(v, list) and v and all(isinstance(p, str) for p in v)))
        inputs.done()
        out: list[Circuit] = []
        for path in paths:
            with decoding(path), open(path, encoding="utf-8") as fp:
                c = parse_qasm(fp.read())
            out.append(c.with_id(os.path.splitext(os.path.basename(path))[0]))
        return out
    from mirrorbench import algos

    family = inputs.object("family")
    inputs.done()
    kind = family.one_of("kind", ("brickwork", "qft", "qaoa", "trotter"))
    if kind != "trotter":
        n = family.count("n")
        with family.building():
            if kind == "brickwork":
                c = algos.brickwork_u3_cz(n, family.count("depth"),
                                          family.count("seed", 0, least=0))
            elif kind == "qft":
                c = algos.qft_circuit(n)
            else:
                c = algos.qaoa_circuit(n, family.count("seed", 0, least=0),
                                       family.count("reps", 1))
        family.done()
        return [c]
    h = _hamiltonian_from(family.object("hamiltonian"))
    for one, many in (("order", "orders"), ("steps", "steps_list")):
        if one in family.data and many in family.data:
            raise SchemaError(f"give {one!r} or {many!r}, not both", family.path)
    orders = family.count("orders", [family.count("order", 1)], many=True)
    steps = family.count("steps_list", [family.count("steps", 1)], many=True)
    t = family.number("time", 1.0)
    family.done()
    with family.building():
        specs = [algos.TrotterSpec(order, m, t) for order in orders for m in steps]
    circuits = [algos.trotter_circuit(h, spec) for spec in specs]
    if h.n <= algos.EVOLUTION_MAX_N and benchmark_type != "subcircuit":
        # A fixed property of the circuit, recorded once for report (a
        # snip of the circuit is another circuit, and records none); the
        # family shares one exp(-iHt), so H is diagonalized once.
        from mirrorbench.sim import process_fidelity_unitaries, unitary_of

        u = algos.exact_evolution_unitary(h, t)
        for c in circuits:
            c.meta["trotter"]["F_alg"] = process_fidelity_unitaries(u, unitary_of(c))
    return circuits


def suite_from_config(cfg: JsonObject) -> BenchmarkSuite:
    """The suite a config describes, every section read with ``core.JsonObject``
    (``benchmark_type``, ``seed`` and ``noise`` checked already), so that a bad
    value names its key."""
    bt, seed = cfg.data["benchmark_type"], cfg.data["seed"]
    shots = cfg.count("shots", 1000)
    circuits = _input_circuits(cfg.object("inputs"), bt)
    sampling = cfg.object("sampling", {})
    params = SamplingParams(*(sampling.count(m, 10) for m in ("m1", "m2", "m3")), seed)
    sampling.done()
    if cfg.get("compile_to_native", False, "true or false", bool) and bt != "full_stack":
        circuits = [decompose_to_basis(c) for c in circuits]
    if bt == "full_stack":
        tc = cfg.object("transpile", {})
        coupling = _coupling_from(tc, max(c.n for c in circuits))
        with tc.building():
            tcfg = TranspileConfig(coupling, tc.number("approximation_degree", 1.0), seed)
        reps = tc.count("reps", 1)
        tc.done()
    elif bt == "subcircuit":
        sc = cfg.object("shapes")
        shapes = ShapeSpec(tuple(map(tuple, sc.pairs("shapes", "width, depth", least=1))),
                           sc.count("samples_per_shape", 30))
        sc.done()
    cfg.done()
    # Each fit of the inputs is checked under the section that fixes it (the
    # coupling's width in _coupling_from), so that its error names it.
    if bt == "full_stack":
        return build_full_stack(circuits, tcfg, reps, params, shots)
    with cfg.building():  # the object holding compile_to_native
        for c in circuits:
            check_native(c, bt.replace("_", "-"))
    if bt == "low_level":
        return build_low_level(circuits, params, shots)
    with sc.building():
        for c in circuits:
            for w, d in shapes.shapes:
                _check_fits(c, w, d)
    return build_subcircuit(circuits, shapes, params, shots)
