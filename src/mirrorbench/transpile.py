"""Compilation to the native {X, SX, RZ, CZ} gate set and a coupling graph.

Pipeline: approximate pruning (optional) -> SWAP routing of the circuit's
own gates -> one basis decomposition, which expands every two-qubit gate (the
inserted SWAPs included) into CZ and single-qubit gates and merges each
single-qubit run once. Approximate pruning drops whole gates whose process
fidelity to the identity is at least the approximation degree; degree 1.0 is
exact compilation and drops nothing.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from mirrorbench.circuits import (
    Circuit,
    ContractError,
    CouplingGraph,
    GateOp,
    NATIVE_KINDS,
    _decode,
    gate_matrices_1q,
    gate_matrix,
    layerize,
    u3_params_from_matrix,
)
from mirrorbench.sim import derive_seed, process_fidelity_unitaries

__all__ = ["TranspileConfig", "decompose_to_basis", "route", "approximate_prune", "transpile"]

PI = math.pi


@dataclass(frozen=True)
class TranspileConfig:
    """Coupling, approximation degree, and seed for the compilation pipeline."""

    coupling: CouplingGraph
    approximation_degree: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.approximation_degree <= 1.0:
            raise ContractError("approximation degree must lie in (0, 1]")

    def digest(self) -> str:
        # "layout" stays in the payload, always null, so that the digests
        # recorded in existing manifests still match.
        payload = json.dumps({
            "edges": sorted(self.coupling.edges),
            "n": self.coupling.n,
            "degree": self.approximation_degree,
            "seed": self.seed,
            "layout": None,
        }, sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


# --- basis decomposition ----------------------------------------------------------


def _expand_op(op: GateOp) -> list[GateOp]:
    """A two-qubit op as CZ and single-qubit ops; any other op as it is."""
    if op.kind == "CX":
        h = GateOp("H", (), op.qubits[1:])
        return [h, GateOp("CZ", (), op.qubits), h]
    if op.kind == "SWAP":
        a, b = op.qubits
        return [g for pair in ((a, b), (b, a), (a, b)) for g in _expand_op(GateOp("CX", (), pair))]
    if op.kind == "CP":
        a, b = op.qubits
        theta = op.params[0]
        cx = _expand_op(GateOp("CX", (), (a, b)))
        return [*cx, GateOp("RZ", (-theta / 2,), (b,)), *cx,
                GateOp("RZ", (theta / 2,), (a,)), GateOp("RZ", (theta / 2,), (b,))]
    return [op]


def _emit_1q(m: np.ndarray, q: int) -> list[GateOp]:
    """Canonical native sequence for a merged 2x2 unitary (may be empty)."""
    if abs(m[0, 1]) < 1e-12 and abs(m[1, 0]) < 1e-12:
        delta = np.angle(m[1, 1]) - np.angle(m[0, 0])
        delta = (delta + PI) % (2 * PI) - PI
        if abs(delta) < 1e-12:
            return []
        return [GateOp("RZ", (float(delta),), (q,))]
    theta, phi, lam = u3_params_from_matrix(m)
    if abs(theta - PI / 2) < 1e-12:
        # one SX suffices: U3(pi/2, phi, lam) = RZ(phi + pi/2) SX RZ(lam - pi/2)
        return [
            GateOp("RZ", (float(lam - PI / 2),), (q,)),
            GateOp("SX", (), (q,)),
            GateOp("RZ", (float(phi + PI / 2),), (q,)),
        ]
    return [
        GateOp("RZ", (float(lam),), (q,)),
        GateOp("SX", (), (q,)),
        GateOp("RZ", (float(theta + PI),), (q,)),
        GateOp("SX", (), (q,)),
        GateOp("RZ", (float(phi + PI),), (q,)),
    ]


def _fuse_1q_runs(n: int, flat: list[GateOp]) -> list[GateOp]:
    """Collapse maximal single-qubit runs into RZ / RZ-SX-RZ-SX-RZ sequences."""
    pending: list[np.ndarray | None] = [None] * n
    out: list[GateOp] = []
    # The 1q matrices of the whole list, built in one call and used in order.
    kinds, _, params, _ = _decode(n, [[op for op in flat if len(op.qubits) == 1]])
    mats = iter(gate_matrices_1q(kinds, params))

    def flush(q: int):
        if pending[q] is not None:
            out.extend(_emit_1q(pending[q], q))
            pending[q] = None

    for op in flat:
        if len(op.qubits) == 1:
            q = op.qubits[0]
            m = next(mats)
            pending[q] = m if pending[q] is None else m @ pending[q]
        else:
            for q in op.qubits:
                flush(q)
            out.append(op)
    for q in range(n):
        flush(q)
    return out


def decompose_to_basis(c: Circuit) -> Circuit:
    """Compile to the native {X, SX, RZ, CZ} set, preserving the unitary up to
    global phase: each two-qubit gate becomes CZ and single-qubit gates, and
    each maximal single-qubit run is merged and re-expressed canonically."""
    flat = _fuse_1q_runs(c.n, [g for op in c.ops() for g in _expand_op(op)])
    assert all(op.kind in NATIVE_KINDS for op in flat)
    return layerize(c.n, flat, id=c.id, meta=dict(c.meta))


# --- routing ---------------------------------------------------------------------


def route(c: Circuit, coupling: CouplingGraph, seed: int = 0) -> Circuit:
    """Insert SWAPs so every 2-qubit gate acts on a coupling edge.

    Greedy nearest-neighbor heuristic with lookahead 1: each inserted SWAP
    minimizes the distance for the current gate, breaking ties by the next
    pending 2-qubit gate's distance and then by a seeded random draw. The
    final logical->physical permutation of all ``coupling.n`` wires (those
    past ``c.n`` carry no gate) is stored in ``meta['permutation']``.
    """
    if coupling.n < c.n:
        raise ContractError("coupling graph smaller than circuit")
    rng = derive_seed(seed, c.id, "route")
    dist = coupling.distances_from
    phys = list(range(coupling.n))  # phys[logical] = physical wire
    logical = list(range(coupling.n))  # its inverse

    def score(u: int, v: int, wires: tuple) -> tuple:
        """Once physical u and v swap: the distance between the gate's ends
        (``wires[:2]``), then the next 2-qubit gate's (0 if none), then a draw."""
        moved = {u: v, v: u}
        na, nb, *later = (moved.get(phys[q], phys[q]) for q in wires)
        return dist(na)[nb], (dist(later[0])[later[1]] if later else 0), rng.random()

    flat = list(c.ops())
    pairs = [op.qubits for op in flat if len(op.qubits) == 2]
    done = 0  # 2-qubit gates routed so far
    out: list[GateOp] = []
    for op in flat:
        if len(op.qubits) == 1:
            out.append(GateOp(op.kind, op.params, (phys[op.qubits[0]],)))
            continue
        a, b = op.qubits
        done += 1
        wires = (a, b, *pairs[done]) if done < len(pairs) else (a, b)
        while not coupling.has_edge(phys[a], phys[b]):
            _, u, v = min((score(u, v, wires), u, v)
                          for u in (phys[a], phys[b]) for v in coupling.neighbors(u))
            out.append(GateOp("SWAP", (), (u, v)))
            lu, lv = logical[u], logical[v]
            phys[lu], phys[lv], logical[u], logical[v] = v, u, lv, lu
        out.append(GateOp(op.kind, op.params, (phys[a], phys[b])))

    meta = dict(c.meta)
    meta["permutation"] = tuple(phys)
    return layerize(coupling.n, out, id=c.id, meta=meta)


# --- approximate pruning -----------------------------------------------------------


def identity_fidelity(op: GateOp) -> float:
    """Process fidelity of a gate to the identity, |Tr U|^2 / 4^k."""
    m = gate_matrix(op.kind, op.params)
    return process_fidelity_unitaries(np.eye(m.shape[0], dtype=complex), m)


def approximate_prune(c: Circuit, degree: float) -> tuple[Circuit, list[tuple[GateOp, float]]]:
    """Drop gates whose identity-fidelity is >= degree (before decomposition).

    Returns the pruned circuit and the dropped (gate, fidelity) list.
    Degree 1.0 drops nothing.
    """
    if not 0.0 < degree <= 1.0:
        raise ContractError("approximation degree must lie in (0, 1]")
    if degree == 1.0:
        return c, []
    dropped: list[tuple[GateOp, float]] = []
    layers = []
    for layer in c.layers:
        kept = []
        for op in layer:
            f = identity_fidelity(op)
            if f >= degree:
                dropped.append((op, f))
            else:
                kept.append(op)
        if kept:
            layers.append(tuple(kept))
    return Circuit(c.n, tuple(layers), c.id, dict(c.meta)), dropped


# --- full pipeline -----------------------------------------------------------------


def transpile(c: Circuit, cfg: TranspileConfig) -> Circuit:
    """prune -> route the circuit's own gates -> decompose once.

    The output metadata records the dropped-gate fidelity budget (product of
    per-gate identity fidelities), the routing permutation, and the config
    digest.
    """
    pruned, dropped = approximate_prune(c, cfg.approximation_degree)
    final = decompose_to_basis(route(pruned, cfg.coupling, cfg.seed)).with_id(c.id + ".native")
    final.meta.update({
        "intrinsic_fidelity_budget": float(np.prod([f for _, f in dropped])),
        "dropped_gates": len(dropped),
        "transpile_config_digest": cfg.digest(),
    })
    return final
