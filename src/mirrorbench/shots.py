"""Shot tables, as arrays, and their JSON-lines file ``shots.jsonl``.

A ``ShotTable`` holds the distinct outcomes of one circuit as a read-only
matrix of packed bits, ``packed`` (one row per outcome, in the order of its
first shot; ``np.packbits`` order, so qubit 0 is the high bit of byte 0), and
an ``int64`` count per row, ``tally``. ``bits`` unpacks the matrix to one
0/1 ``uint8`` per qubit, and ``counts`` gives the same data as a read-only
``{bitstring: count}`` view. Character i of a bitstring is qubit i. Packed
rows take an eighth of the memory, and a Hamming distance is one XOR and one
``np.bitwise_count`` per byte.

A record of ``shots.jsonl`` is {circuit_id, width, counts}. The writer builds
its text from the matrix, and the reader encodes the keys of a record into
one byte matrix at once.

This module needs only numpy and ``core``, so ``analyze`` and ``simulate
--fake-uniform`` run without the simulator or the circuit code. ``sim`` and
``storage`` re-export its names.
"""

from __future__ import annotations

import json
import numbers
import zlib
from types import MappingProxyType
from typing import IO, Iterable, Iterator, Mapping

import numpy as np

from mirrorbench.core import CapacityError, ContractError, JsonObject, SchemaError

__all__ = [
    "ShotTable",
    "derive_seed",
    "fake_uniform_shots",
    "write_shot_tables",
    "read_shot_tables",
]

_ZERO = ord("0")
# Most elements a sampler's largest array may hold, 1 GiB of float64: the
# dense sampler's shots x 2^n outcome draw, the uniform sampler's shots x n bits.
SHOT_BUDGET = 1 << 27


def check_shot_budget(shots: int, per_shot: int, what: str):
    """A CapacityError, before anything is drawn, when ``shots`` x
    ``per_shot`` elements exceed ``SHOT_BUDGET``."""
    if shots * per_shot > SHOT_BUDGET:
        raise CapacityError(f"{shots} shots x {per_shot} {what} exceed the sampling "
                            f"budget of 2^27 elements")


def derive_seed(master_seed: int, *tags) -> np.random.Generator:
    """Deterministic per-item RNG stream from a master seed and string/int tags."""
    entropy = [int(master_seed)]
    for t in tags:
        if isinstance(t, str):
            entropy.append(zlib.crc32(t.encode()))
        else:
            entropy.append(int(t))
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _bits_of(keys: list, width: int) -> np.ndarray:
    """The (len(keys), width) 0/1 matrix of bitstrings, or a ContractError."""
    if not isinstance(width, numbers.Integral) or width < 1:
        raise ContractError("width must be a positive integer")
    for k in keys:
        if not isinstance(k, str) or len(k) != width:
            raise ContractError(f"outcome {k!r} is not a bitstring of width {width}")
    try:
        # One bytes row per key, encoded straight into the matrix's memory.
        bits = np.array(keys, dtype=f"S{width}").view(np.uint8).reshape(len(keys), width)
        bits -= np.uint8(_ZERO)  # characters below "0" wrap around to large values
        binary = not bits.size or bits.max() <= 1
    except UnicodeEncodeError:
        binary = False
    if not binary:
        bad = next(k for k in keys if set(k) - {"0", "1"})
        raise ContractError(f"outcome {bad!r} is not a string of 0 and 1")
    return bits


class ShotTable:
    """Observed outcome counts for one circuit.

    ``ShotTable(circuit_id, counts, width)`` takes a ``{bitstring: count}``
    mapping; ``ShotTable.from_packed`` takes the packed rows and the counts.
    """

    def __init__(self, circuit_id: str, counts: Mapping[str, int], width: int):
        keys, values = list(counts), list(counts.values())
        types = set(map(type, values))
        if bool in types or not all(issubclass(k, numbers.Integral) for k in types):
            raise ContractError("shot counts must be positive integers")
        self._init(circuit_id, np.packbits(_bits_of(keys, width), axis=1),
                   np.array(values, dtype=np.int64), width)

    @classmethod
    def from_packed(cls, circuit_id: str, packed: np.ndarray, tally: np.ndarray,
                    width: int) -> "ShotTable":
        """A table from ``np.packbits(bits, axis=1)`` of its distinct 0/1
        outcome rows and a positive count per row; it keeps both arrays,
        made read-only. The rows are not checked for repeats."""
        if packed.ndim != 2 or packed.shape[1] != (width + 7) // 8 or width < 1:
            raise ContractError(f"packed rows do not hold {width} bits each")
        t = cls.__new__(cls)
        t._init(circuit_id, packed.astype(np.uint8, copy=False),
                np.asarray(tally, dtype=np.int64), width)
        return t

    def _init(self, circuit_id: str, packed: np.ndarray, tally: np.ndarray, width: int):
        if tally.shape != packed.shape[:1] or (tally.size and tally.min() <= 0):
            raise ContractError("shot counts must be positive integers, one per outcome")
        packed.flags.writeable = tally.flags.writeable = False
        self.circuit_id, self.width, self.packed, self.tally = circuit_id, width, packed, tally
        self._counts: dict[str, int] | None = None
        self._profiles: dict[str, np.ndarray] = {}

    def __reduce__(self):
        return ShotTable.from_packed, (self.circuit_id, self.packed, self.tally, self.width)

    @property
    def bits(self) -> np.ndarray:
        """The outcomes as an (m, width) 0/1 ``uint8`` matrix."""
        return np.unpackbits(self.packed, axis=1, count=self.width)

    @property
    def shots(self) -> int:
        return int(self.tally.sum())

    @property
    def counts(self) -> Mapping[str, int]:
        """Read-only ``{bitstring: count}`` view, in the order of the rows."""
        if self._counts is None:
            w = self.width
            text = (self.bits | _ZERO).tobytes().decode("ascii")
            self._counts = dict(zip([text[i:i + w] for i in range(0, len(text), w)],
                                    self.tally.tolist()))
        return MappingProxyType(self._counts)

    def hamming_profile(self, target: str) -> np.ndarray:
        """h_k = fraction of shots at Hamming distance k from ``target``,
        k = 0..width; computed once per target."""
        h = self._profiles.get(target)
        if h is None:
            tgt = np.packbits(_bits_of([target], self.width), axis=1)
            distance = np.bitwise_count(self.packed ^ tgt).sum(axis=1, dtype=np.intp)
            h = np.bincount(distance, weights=self.tally, minlength=self.width + 1) / self.shots
            h.flags.writeable = False
            self._profiles[target] = h
        return h

    def __eq__(self, other):
        if not isinstance(other, ShotTable):
            return NotImplemented
        return ((self.circuit_id, self.width) == (other.circuit_id, other.width)
                and self.counts == other.counts)

    def __repr__(self):
        return (f"ShotTable({self.circuit_id!r}, width={self.width}, "
                f"outcomes={len(self.tally)}, shots={self.shots})")


def fake_uniform_shots(n: int, shots: int, seed: int, circuit_id: str = "fake") -> ShotTable:
    """i.i.d. uniform bitstrings; O(shots * n), independent of any circuit."""
    if shots <= 0 or n <= 0:
        raise ContractError("shots and width must be positive")
    check_shot_budget(shots, n, "bits")
    rng = derive_seed(seed, circuit_id)
    packed = np.packbits(rng.integers(0, 2, size=(shots, n), dtype=np.uint8), axis=1)
    # Each shot's first equal row, found through a dict of row bytes; sorting
    # wide rows (np.unique(axis=0)) is slower.
    first: dict[bytes, int] = {}
    rows, tally = np.unique([first.setdefault(row, i) for i, row in enumerate(map(bytes, packed))],
                            return_counts=True)
    return ShotTable.from_packed(circuit_id, packed if len(rows) == shots else packed[rows],
                                 tally, n)


# --- shots.jsonl ---------------------------------------------------------------------


def shot_table_to_json(t: ShotTable) -> str:
    """The text ``json.dumps`` gives for {circuit_id, width, counts} with
    separators (",", ":"), written from the matrix: each row becomes
    ``"<bits>":`` in one byte array, and only the counts are formatted one
    at a time."""
    n, w = t.width, t.width + 3
    heads = np.empty((len(t.tally), w), dtype=np.uint8)
    heads[:, 0] = heads[:, n + 1] = ord('"')
    np.bitwise_or(t.bits, _ZERO, out=heads[:, 1:n + 1])
    heads[:, n + 2] = ord(":")
    text = heads.tobytes().decode("ascii")
    counts = ",".join([text[i * w:(i + 1) * w] + c
                       for i, c in enumerate(map(str, t.tally.tolist()))])
    return f'{{"circuit_id":{json.dumps(t.circuit_id)},"width":{n},"counts":{{{counts}}}}}'


def write_shot_tables(fp: IO[str], tables: Iterable[ShotTable]) -> int:
    count = 0
    for t in tables:
        fp.write(shot_table_to_json(t))
        fp.write("\n")
        count += 1
    return count


def read_shot_tables(fp: IO[str]) -> Iterator[ShotTable]:
    """Stream the tables of a shots.jsonl file, each record {circuit_id,
    width, counts} read with ``core.JsonObject``. A malformed record, or a
    circuit id seen before, is a ``SchemaError`` with the record's path."""
    seen: set[str] = set()
    for i, line in enumerate(fp):
        if line.isspace():  # json.loads takes the whitespace around a record
            continue
        path = f"$[{i}]"
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise SchemaError(f"invalid JSON: {e}", path) from None
        rec = JsonObject(obj, path)
        cid = rec.string("circuit_id")
        counts = rec.get("counts", what="a JSON object", fits=dict)
        width = rec.count("width", None)
        rec.done()
        if width is None:
            if not counts:
                raise SchemaError("counts is empty and width is missing", path)
            width = len(next(iter(counts)))
        if cid in seen:
            raise SchemaError(f"duplicate circuit_id {cid!r}", f"{path}.circuit_id")
        seen.add(cid)
        try:
            table = ShotTable(cid, counts, width)
        except ContractError as e:
            raise SchemaError(str(e), f"{path}.counts") from None
        yield table
