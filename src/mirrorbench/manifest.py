"""The experiment manifest, ``manifest.json``: the benchmark type, the sampling
parameters and one record per benchmark and proxy circuit.

Stdlib only, like ``core``, so that the stages that read it need not load
the circuit code; ``storage`` re-exports its names. It is a module of its
own so that ``--help``, which never reads it, does not compile it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from mirrorbench.core import SchemaError, is_number, open_atomic

__all__ = ["Manifest", "read_manifest", "write_manifest"]

BENCHMARK_TYPES = ("low_level", "full_stack", "subcircuit")
RECORD_KINDS = ("M1", "M2", "M3", "benchmark", "input")


@dataclass
class Manifest:
    """Experiment manifest: benchmark type, sampling parameters, circuit records.

    Records are plain dicts so unknown fields survive a read/write round-trip.
    Known record fields: id, kind (M1 | M2 | M3 | benchmark | input), parent_id,
    target_bitstring, width, depth, shape, transpile_config_digest, and trotter
    (a Trotter benchmark's order, steps, time and, when computed, F_alg).
    """

    benchmark_type: str
    sampling: dict
    records: list[dict] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        self.validate()

    def validate(self):
        if self.benchmark_type not in BENCHMARK_TYPES:
            raise SchemaError(
                f"benchmark_type must be one of {BENCHMARK_TYPES}",
                "$.benchmark_type")
        for key in ("m1", "m2", "m3", "shots", "seed"):
            if key not in self.sampling:
                raise SchemaError(f"missing sampling key {key!r}", f"$.sampling.{key}")
            if not isinstance(self.sampling[key], int):
                raise SchemaError("sampling values must be integers",
                                  f"$.sampling.{key}")
        seen: set[str] = set()
        benchmark_ids: set[str] = set()
        for i, rec in enumerate(self.records):
            p = f"$.records[{i}]"
            for key in ("id", "kind"):
                if key not in rec:
                    raise SchemaError(f"missing key {key!r}", p)
            if rec["kind"] not in RECORD_KINDS:
                raise SchemaError(f"kind must be one of {RECORD_KINDS}", f"{p}.kind")
            if rec["id"] in seen:
                raise SchemaError(f"duplicate id {rec['id']!r}", f"{p}.id")
            seen.add(rec["id"])
            if rec["kind"] == "benchmark":
                benchmark_ids.add(rec["id"])
            tm = rec.get("trotter", {})
            if not isinstance(tm, dict) or not is_number(tm.get("F_alg", 0.0)):
                raise SchemaError("trotter must be an object with a numeric F_alg", p)
            tb = rec.get("target_bitstring")
            if tb is not None:
                if "width" not in rec:
                    raise SchemaError("target_bitstring requires width", p)
                if len(tb) != rec["width"]:
                    raise SchemaError(
                        f"target bitstring length {len(tb)} != width {rec['width']}",
                        f"{p}.target_bitstring")
                if set(tb) - {"0", "1"}:
                    raise SchemaError("target bitstring must be binary",
                                      f"{p}.target_bitstring")
        for i, rec in enumerate(self.records):
            if rec["kind"] in ("M1", "M2", "M3"):
                parent = rec.get("parent_id")
                if parent is None or parent not in benchmark_ids:
                    raise SchemaError(
                        f"mirror record needs a parent benchmark record, got "
                        f"parent_id={parent!r}", f"$.records[{i}].parent_id")

    def mirror_records(self) -> list[dict]:
        return [r for r in self.records if r["kind"] in ("M1", "M2", "M3")]

    def to_dict(self) -> dict:
        d = dict(self.extra)
        d.update({"benchmark_type": self.benchmark_type,
                  "sampling": self.sampling, "records": self.records})
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Manifest":
        if not isinstance(d, dict):
            raise SchemaError("manifest must be an object", "$")
        for key in ("benchmark_type", "sampling", "records"):
            if key not in d:
                raise SchemaError(f"missing key {key!r}", f"$.{key}")
        if not isinstance(d["records"], list):
            raise SchemaError("records must be a list", "$.records")
        extra = {k: v for k, v in d.items()
                 if k not in ("benchmark_type", "sampling", "records")}
        return cls(d["benchmark_type"], dict(d["sampling"]),
                   [dict(r) for r in d["records"]], extra)


def read_manifest(path: str) -> Manifest:
    with open(path, encoding="utf-8") as fp:
        try:
            d = json.load(fp)
        except json.JSONDecodeError as e:
            raise SchemaError(f"invalid JSON: {e}", "$") from None
    return Manifest.from_dict(d)


def write_manifest(path: str, m: Manifest):
    m.validate()
    with open_atomic(path) as fp:
        json.dump(m.to_dict(), fp, indent=1, sort_keys=False)
        fp.write("\n")
