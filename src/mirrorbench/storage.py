"""Native JSON-lines circuit files, and the names of every experiment file's
reader and writer.

Circuits are stored one per line as {id, n, layers: [[{kind, params, qubits}]]}
so that suites with very wide or very many circuits stream without loading
everything into memory. Angles are written as ``repr(float)``, which
round-trips bit for bit. Every file a pipeline stage writes goes through
``open_atomic``, so a failed stage leaves the previous file in place.

The shot-table file lives in ``shots`` and the manifest in ``manifest``, so
that ``analyze`` reads them without the circuit code; this module re-exports
them.
"""

from __future__ import annotations

import json
from typing import IO, Iterable, Iterator

import numpy as np

from mirrorbench.circuits import (
    Circuit,
    ContractError,
    GATE_ARITY,
    GATE_NPARAMS,
    GateOp,
    KIND_ARITY,
    KIND_CODE,
    KIND_NPARAMS,
    KINDS,
)
from mirrorbench.core import SchemaError, open_atomic
from mirrorbench.manifest import Manifest, read_manifest, write_manifest
from mirrorbench.shots import read_shot_tables, write_shot_tables

__all__ = [
    "SchemaError",
    "Manifest",
    "open_atomic",
    "circuit_to_json",
    "circuit_from_json",
    "write_circuits",
    "read_circuits",
    "write_shot_tables",
    "read_shot_tables",
    "read_manifest",
    "write_manifest",
]


def circuit_to_json(c: Circuit) -> str:
    """The text ``json.dumps`` gives for {id, n, layers[, meta]} with
    separators (",", ":"), written straight from the arrays.

    The gates of one kind share their constant text, so their pieces go into
    one list by slice assignment, a column at a time. ``repr`` of each angle
    (what ``json.dumps`` writes for a float) is the only per-value work;
    qubit numbers come from a table.
    """
    qubit_text = np.array(list(map(str, range(c.n))), dtype=object)
    gates = np.empty(c.num_ops(), dtype=object)
    for code in np.flatnonzero(np.bincount(c.kind, minlength=len(KINDS))).tolist():
        kind, idx = KINDS[code], np.flatnonzero(c.kind == code)
        k, a = GATE_NPARAMS[kind], GATE_ARITY[kind]
        consts = (f'{{"kind":"{kind}","params":[' + ",".join(["%s"] * k) + '],"qubits":['
                  + ",".join(["%s"] * a) + "]}\n").split("%s")
        cols = ([list(map(repr, col)) for col in c.params[idx, :k].T.tolist()]
                + [qubit_text[col].tolist() for col in c.qubits[idx, :a].T])
        step = len(consts) + len(cols)
        pieces = [None] * (len(idx) * step)
        for j, const in enumerate(consts):
            pieces[2 * j::step] = [const] * len(idx)
        for j, col in enumerate(cols):
            pieces[2 * j + 1::step] = col
        gates[idx] = "".join(pieces).split("\n")[:-1]
    gates, b = gates.tolist(), c.layer_start.tolist()
    layers = ",".join("[" + ",".join(gates[lo:hi]) + "]" for lo, hi in zip(b, b[1:]))
    meta = (',"meta":' + json.dumps(_jsonable_meta(c.meta), separators=(",", ":"))
            if c.meta else "")
    return f'{{"id":{json.dumps(c.id)},"n":{c.n},"layers":[{layers}]{meta}}}'


def _jsonable_meta(meta: dict) -> dict:
    def conv(v):
        if isinstance(v, tuple):
            return [conv(x) for x in v]
        if isinstance(v, dict):
            return {k: conv(x) for k, x in v.items()}
        if isinstance(v, frozenset):
            return sorted(conv(x) for x in v)
        return v
    return {k: conv(v) for k, v in meta.items()}


def _gate_error(g) -> str | None:
    """Why one decoded gate record is malformed on its own, if it is."""
    if not isinstance(g, dict) or not {"kind", "params", "qubits"} <= g.keys():
        return "gate must have kind/params/qubits"
    try:
        GateOp(str(g["kind"]), tuple(float(v) for v in g["params"]),
               tuple(int(q) for q in g["qubits"]))
    except (ContractError, TypeError, ValueError, OverflowError) as e:
        return str(e)
    return None


def circuit_from_json(line: str, *, path: str = "$") -> Circuit:
    """Decode one circuit line into the arrays at once; a malformed gate gives a
    ``SchemaError`` whose path is that gate's ``layers[i][j]``."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as e:
        raise SchemaError(f"invalid JSON: {e}", path) from None
    if not isinstance(obj, dict):
        raise SchemaError("circuit record must be an object", path)
    for key in ("id", "n", "layers"):
        if key not in obj:
            raise SchemaError(f"missing key {key!r}", path)
    n, layers = obj["n"], obj["layers"]
    if not isinstance(n, int) or n < 1:
        raise SchemaError("n must be a positive integer", f"{path}.n")
    if not isinstance(layers, list) or not all(isinstance(l, list) for l in layers):
        raise SchemaError("layers must be a list of gate lists", f"{path}.layers")
    gates = [g for layer in layers for g in layer]
    try:
        kind = np.array([KIND_CODE[g["kind"]] for g in gates], dtype=np.int8)
        arrays = []
        for key, counts, width, pad in (("qubits", KIND_ARITY, 2, -1),
                                        ("params", KIND_NPARAMS, 3, 0.0)):
            if np.any(np.array([len(g[key]) for g in gates], dtype=int) != counts[kind]):
                raise ValueError(f"wrong number of {key}")
            out = np.full((len(gates), width), pad)
            out[np.arange(width) < counts[kind][:, None]] = [v for g in gates for v in g[key]]
            arrays.append(out)
    except (KeyError, TypeError, ValueError, OverflowError):
        # Find the first malformed record, one gate at a time.
        for i, layer in enumerate(layers):
            for j, g in enumerate(layer):
                if (error := _gate_error(g)) is not None:
                    raise SchemaError(error, f"{path}.layers[{i}][{j}]") from None
        raise SchemaError("gate qubits and params must be lists", f"{path}.layers") from None
    meta = obj.get("meta", {})
    if not isinstance(meta, dict):
        raise SchemaError("meta must be an object", f"{path}.meta")
    try:
        return Circuit.from_arrays(n, kind, *arrays, np.cumsum([0, *map(len, layers)]),
                                   str(obj["id"]), dict(meta))
    except ContractError as e:
        at = "" if e.at is None else ".layers[{}][{}]".format(*e.at)
        raise SchemaError(str(e), path + at) from None


def write_circuits(fp: IO[str], circuits: Iterable[Circuit]) -> int:
    """Stream circuits to an open text file, one JSON object per line."""
    count = 0
    for c in circuits:
        fp.write(circuit_to_json(c))
        fp.write("\n")
        count += 1
    return count


def read_circuits(fp: IO[str]) -> Iterator[Circuit]:
    """Stream circuits from a JSONL file."""
    for i, line in enumerate(fp):
        line = line.strip()
        if line:
            yield circuit_from_json(line, path=f"$[{i}]")
