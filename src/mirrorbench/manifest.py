"""The experiment manifest, ``manifest.json``: the benchmark type, the sampling
parameters and one record per benchmark and proxy circuit.

Stdlib only, like ``core``, so that the stages that read it need not load
the circuit code; ``storage`` re-exports its names. It is a module of its
own so that ``--help``, which never reads it, does not compile it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from mirrorbench.core import BENCHMARK_TYPES, JsonObject, SchemaError, open_atomic

__all__ = ["Manifest", "read_manifest", "write_manifest"]

MIRROR_KINDS = ("M1", "M2", "M3")
RECORD_KINDS = (*MIRROR_KINDS, "benchmark", "input")
_FIELDS = ("benchmark_type", "sampling", "records")


@dataclass
class Manifest:
    """Experiment manifest: benchmark type, sampling parameters, circuit records.

    Records are plain dicts so unknown fields survive a read/write round-trip.
    Known record fields: id, kind (M1 | M2 | M3 | benchmark | input), parent_id,
    target_bitstring, width, depth, shape, transpile_config_digest, and trotter
    (a Trotter benchmark's order, steps, time and, when computed, F_alg). Every
    record has an id, a kind and a width; a benchmark also has a depth, and a
    proxy (M1 | M2 | M3) a parent_id and a target_bitstring.
    """

    benchmark_type: str
    sampling: dict
    records: list[dict] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        self.validate()

    def validate(self):
        """Read every known field as the JSON type it must be (``core.JsonObject``)."""
        root = JsonObject(self.to_dict(), "$")
        root.one_of("benchmark_type", BENCHMARK_TYPES)
        sampling = root.object("sampling")
        for key in ("m1", "m2", "m3", "shots", "seed"):
            sampling.count(key, least=0 if key == "seed" else 1)
        sampling.done()
        kinds, parents = {}, []  # id -> kind; (path, parent_id) of each proxy
        for i, data in enumerate(root.get("records", what="a list", fits=list)):
            rec = JsonObject(data, f"$.records[{i}]")
            rid, kind = rec.string("id"), rec.one_of("kind", RECORD_KINDS)
            if rid in kinds:
                raise SchemaError(f"duplicate id {rid!r}", f"{rec.path}.id")
            kinds[rid] = kind
            width = rec.count("width")
            rec.count("depth", ... if kind == "benchmark" else None, least=0)
            rec.get("shape", None, "a [width, depth] pair of positive integers", lambda v: (
                isinstance(v, list) and len(v) == 2 and all(type(x) is int and x > 0 for x in v)))
            rec.string("transpile_config_digest", None)
            rec.object("trotter", {}).number("F_alg", 0.0)
            parent = rec.get("parent_id", None, "a string or null",
                             lambda v: v is None or isinstance(v, str))
            tb = rec.string("target_bitstring", ... if kind in MIRROR_KINDS else None)
            if tb is not None and (len(tb) != width or set(tb) - {"0", "1"}):
                raise SchemaError(f"must be {width} binary digits, got {json.dumps(tb)}",
                                  f"{rec.path}.target_bitstring")
            if kind in MIRROR_KINDS:
                parents.append((rec.path, parent))
        for path, parent in parents:
            if kinds.get(parent) != "benchmark":
                raise SchemaError(f"mirror record needs a parent benchmark record, got "
                                  f"parent_id={parent!r}", f"{path}.parent_id")

    def mirror_records(self) -> list[dict]:
        return [r for r in self.records if r["kind"] in MIRROR_KINDS]

    def to_dict(self) -> dict:
        d = dict(self.extra)
        d.update({"benchmark_type": self.benchmark_type,
                  "sampling": self.sampling, "records": self.records})
        return d

    @classmethod
    def from_dict(cls, d) -> "Manifest":
        root = JsonObject(d, "$")
        return cls(*map(root.get, _FIELDS), {k: v for k, v in d.items() if k not in _FIELDS})


def read_manifest(path: str) -> Manifest:
    with open(path, encoding="utf-8") as fp:
        return Manifest.from_dict(json.load(fp))


def write_manifest(path: str, m: Manifest):
    m.validate()
    with open_atomic(path) as fp:
        json.dump(m.to_dict(), fp, indent=1, sort_keys=False)
        fp.write("\n")
