"""Compilation to the native {X, SX, RZ, CZ} gate set and a coupling graph.

Pipeline: approximate pruning (optional) -> basis decomposition -> SWAP
routing -> a second decomposition pass that expands the inserted SWAPs and
re-merges single-qubit runs. Approximate pruning drops whole gates whose
process fidelity to the identity is at least the approximation degree;
degree 1.0 is exact compilation and drops nothing.
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
    """Rewrite a high-level op into {1q kinds, CZ} (recursively)."""
    k = op.kind
    if k in ("X", "SX", "RZ", "U3", "C1Q", "CZ"):
        return [op]
    if k == "H":
        (q,) = op.qubits
        return [GateOp("RZ", (PI / 2,), (q,)), GateOp("SX", (), (q,)),
                GateOp("RZ", (PI / 2,), (q,))]
    if k == "CX":
        a, b = op.qubits
        h = _expand_op(GateOp("H", (), (b,)))
        return [*h, GateOp("CZ", (), (a, b)), *h]
    if k == "SWAP":
        a, b = op.qubits
        out = []
        for ctrl, tgt in ((a, b), (b, a), (a, b)):
            out.extend(_expand_op(GateOp("CX", (), (ctrl, tgt))))
        return out
    if k == "CP":
        a, b = op.qubits
        theta = op.params[0]
        cx = _expand_op(GateOp("CX", (), (a, b)))
        return [*cx, GateOp("RZ", (-theta / 2,), (b,)), *cx,
                GateOp("RZ", (theta / 2,), (a,)), GateOp("RZ", (theta / 2,), (b,))]
    raise ContractError(f"unsupported kind {k!r} for basis decomposition")


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
    global phase. Single-qubit chains are merged and re-expressed canonically."""
    flat: list[GateOp] = []
    for op in c.ops():
        flat.extend(_expand_op(op))
    flat = _fuse_1q_runs(c.n, flat)
    assert all(op.kind in NATIVE_KINDS for op in flat)
    return Circuit(c.n, layerize(c.n, flat), c.id, dict(c.meta))


# --- routing ---------------------------------------------------------------------


def route(c: Circuit, coupling: CouplingGraph, seed: int = 0) -> Circuit:
    """Insert SWAPs so every 2-qubit gate acts on a coupling edge.

    Greedy nearest-neighbor heuristic with lookahead 1: each inserted SWAP
    minimizes the distance for the current gate, breaking ties by the next
    pending 2-qubit gate's distance and then by a seeded random draw. The
    final logical->physical permutation is stored in ``meta['permutation']``.
    """
    if coupling.n < c.n:
        raise ContractError("coupling graph smaller than circuit")
    rng = derive_seed(seed, c.id, "route")
    phys = list(range(c.n))  # phys[logical] = physical wire

    flat = [op for op in c.ops()]
    two_q_positions = [i for i, op in enumerate(flat) if len(op.qubits) == 2]
    next_2q: dict[int, int | None] = {}
    for j, pos in enumerate(two_q_positions):
        next_2q[pos] = two_q_positions[j + 1] if j + 1 < len(two_q_positions) else None

    out: list[GateOp] = []
    for i, op in enumerate(flat):
        if len(op.qubits) == 1:
            out.append(GateOp(op.kind, op.params, (phys[op.qubits[0]],)))
            continue
        a, b = op.qubits
        while not coupling.has_edge(phys[a], phys[b]):
            pa, pb = phys[a], phys[b]
            dist_b = coupling.distances_from(pb)
            dist_a = coupling.distances_from(pa)
            candidates = [(pa, x) for x in coupling.neighbors(pa)] + \
                         [(pb, x) for x in coupling.neighbors(pb)]
            best = None
            for u, v in candidates:
                swapped = {u: v, v: u}
                na, nb = swapped.get(pa, pa), swapped.get(pb, pb)
                primary = dist_b[na] if nb == pb else dist_a[nb]
                look = 0
                nxt = next_2q[i]
                if nxt is not None:
                    la, lb = flat[nxt].qubits
                    # distance of the next gate's endpoints after this swap
                    pla, plb = phys[la], phys[lb]
                    pla, plb = swapped.get(pla, pla), swapped.get(plb, plb)
                    look = coupling.distances_from(pla)[plb]
                score = (primary, look, rng.random())
                if best is None or score < best[0]:
                    best = (score, u, v)
            _, u, v = best
            out.append(GateOp("SWAP", (), (u, v)))
            inv = {p: l for l, p in enumerate(phys)}
            lu, lv = inv.get(u), inv.get(v)
            if lu is not None:
                phys[lu] = v
            if lv is not None:
                phys[lv] = u
        out.append(GateOp(op.kind, op.params, (phys[a], phys[b])))

    meta = dict(c.meta)
    meta["permutation"] = tuple(phys)
    return Circuit(coupling.n, layerize(coupling.n, out), c.id, meta)


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
    """prune -> decompose -> route -> expand SWAPs and merge 1q cleanup.

    The output metadata records the dropped-gate fidelity budget (product of
    per-gate identity fidelities), the routing permutation, and the config
    digest.
    """
    pruned, dropped = approximate_prune(c, cfg.approximation_degree)
    native = decompose_to_basis(pruned)
    routed = route(native, cfg.coupling, cfg.seed)
    final = decompose_to_basis(routed)
    budget = float(np.prod([f for _, f in dropped])) if dropped else 1.0
    meta = dict(final.meta)
    meta.update({
        "intrinsic_fidelity_budget": budget,
        "dropped_gates": len(dropped),
        "transpile_config_digest": cfg.digest(),
        "permutation": routed.meta.get("permutation", tuple(range(final.n))),
    })
    return Circuit(final.n, final.layers, c.id + ".native", meta)
