"""Native JSON-lines circuit files, and the names of every experiment file's
reader and writer.

Circuits are stored one per line as {id, n, layers: [[{kind, params, qubits}]]}
so that suites with very wide or very many circuits stream without loading
everything into memory. Angles are written as ``repr(float)``, which
round-trips bit for bit. A circuit read back goes through the one decoder of
gate records in ``circuits`` and meets the same gate rules as a circuit built
in code. Every file a pipeline stage writes goes through ``open_atomic``, so
a failed stage leaves the previous file in place.

The shot-table file lives in ``shots`` and the manifest in ``manifest``, so
that ``analyze`` reads them without the circuit code; this module re-exports
them.
"""

from __future__ import annotations

import json
from typing import IO, Iterable, Iterator

import numpy as np

from mirrorbench.circuits import GATE_ARITY, GATE_NPARAMS, KINDS, Circuit, ContractError
from mirrorbench.core import JsonObject, SchemaError, open_atomic
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
    meta = (',"meta":' + json.dumps(c.meta, separators=(",", ":"))
            if c.meta else "")
    return f'{{"id":{json.dumps(c.id)},"n":{c.n},"layers":[{layers}]{meta}}}'


def circuit_from_json(line: str, *, path: str = "$") -> Circuit:
    """Decode one circuit line, a record {id, n, layers[, meta]} read with
    ``core.JsonObject``; a malformed gate gives a ``SchemaError`` whose path
    is that gate's ``layers[i][j]``."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as e:
        raise SchemaError(f"invalid JSON: {e}", path) from None
    rec = JsonObject(obj, path)
    cid, n = rec.string("id"), rec.count("n")
    layers = rec.get("layers", what="a list of gate lists", fits=lambda v: (
        isinstance(v, list) and all(isinstance(layer, list) for layer in v)))
    meta = rec.get("meta", {}, "a JSON object", dict)
    rec.done()
    # A gate that is no object, or lacks a key, becomes a record the decoder rejects.
    records = [[(g.get("kind"), g.get("params"), g.get("qubits")) if isinstance(g, dict)
                else (None, None, None) for g in layer] for layer in layers]
    try:
        return Circuit(n, records, cid, dict(meta))
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
    """Stream circuits from a JSONL file; an id seen before is a ``SchemaError``."""
    seen: set[str] = set()
    for i, line in enumerate(fp):
        line = line.strip()
        if line:
            c = circuit_from_json(line, path=f"$[{i}]")
            if c.id in seen:
                raise SchemaError(f"duplicate id {c.id!r}", f"$[{i}].id")
            seen.add(c.id)
            yield c
