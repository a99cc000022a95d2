"""Shot tables as arrays: construction, the Hamming profile and the bootstrap
against the dict-and-string code they replaced, and the shots.jsonl codec."""

import io
import json
import math
import pickle

import numpy as np
import pytest

from mirrorbench.analysis import bootstrap_sigma, effective_polarization, mcfe_estimate
from mirrorbench.core import ContractError, SchemaError
from mirrorbench.shots import (
    ShotTable,
    derive_seed,
    fake_uniform_shots,
    read_shot_tables,
    write_shot_tables,
)


def reference_hamming_profile(t: ShotTable, target: str) -> np.ndarray:
    """The string loop over ``counts`` that the array profile replaced."""
    n = len(target)
    h = np.zeros(n + 1)
    total = 0
    tgt = np.frombuffer(target.encode(), dtype=np.uint8)
    for bits, cnt in t.counts.items():
        arr = np.frombuffer(bits.encode(), dtype=np.uint8)
        k = int(np.count_nonzero(arr != tgt))
        h[k] += cnt
        total += cnt
    return h / total


def reference_bootstrap_sigma(tables, n, B=200, seed=0) -> float:
    """The per-proxy multinomial loop that the one-call-per-kind draw replaced."""
    rng = derive_seed(seed, "bootstrap")
    prof = {kind: [(reference_hamming_profile(t, tgt), sum(t.counts.values()))
                   for t, tgt in pairs] for kind, pairs in tables.items()}
    q = 4.0 ** -n
    weights = (-0.5) ** np.arange(n + 1)
    fs = []
    for _ in range(B):
        means = {}
        for kind, rows in prof.items():
            idx = rng.integers(0, len(rows), size=len(rows))
            ss = []
            for i in idx:
                h, shots = rows[i]
                a = float(rng.multinomial(shots, h) / shots @ weights)
                ss.append((a - q) / (1.0 - q))
            means[kind] = float(np.mean(ss))
        f, _, flags = mcfe_estimate(means["M1"], means["M2"], means["M3"], n)
        if "estimate-undefined" not in flags:
            fs.append(f)
    return float("nan") if len(fs) < 2 else float(np.std(fs))


def random_counts(rng, width: int, outcomes: int, flip: float | None = None) -> dict[str, int]:
    """Distinct random bitstrings, each bit 1 with probability ``flip``."""
    counts: dict[str, int] = {}
    flip = rng.uniform(0.02, 0.6) if flip is None else flip
    while len(counts) < min(outcomes, 2 ** width):
        bits = (rng.random(width) < flip).astype(int)
        counts["".join(map(str, bits))] = int(rng.integers(1, 50))
    return counts


def random_target(rng, width: int) -> str:
    return "".join(map(str, (rng.random(width) < 0.1).astype(int)))


def encode_reference(t: ShotTable) -> str:
    return json.dumps({"circuit_id": t.circuit_id, "width": t.width,
                       "counts": dict(t.counts)}, separators=(",", ":"))


class TestShotTable:
    def test_counts_view_round_trips_in_order(self):
        counts = {"101": 4, "000": 7, "111": 1}
        t = ShotTable("a", counts, 3)
        assert list(t.counts.items()) == list(counts.items())
        assert t.shots == 12 and t.width == 3
        assert t.bits.tolist() == [[1, 0, 1], [0, 0, 0], [1, 1, 1]]
        with pytest.raises(TypeError):
            t.counts["000"] = 3

    def test_arrays_are_read_only(self):
        t = ShotTable("a", {"01": 2}, 2)
        with pytest.raises(ValueError):
            t.packed[0, 0] = 0
        with pytest.raises(ValueError):
            t.tally[0] = 5

    def test_from_packed_matches_dict_constructor(self):
        bits = np.array([[1, 0, 1, 1, 0, 0, 0, 0, 1], [0, 0, 0, 0, 0, 0, 0, 0, 0]], dtype=np.uint8)
        a = ShotTable.from_packed("a", np.packbits(bits, axis=1), np.array([4, 7]), 9)
        assert a == ShotTable("a", {"101100001": 4, "000000000": 7}, 9)
        assert np.array_equal(a.bits, bits)

    @pytest.mark.parametrize("packed, tally, width", [
        (np.zeros((1, 2), np.uint8), [1], 8),      # two bytes for eight bits
        (np.zeros((1, 1), np.uint8), [1], 9),      # one byte for nine bits
        (np.zeros((1, 0), np.uint8), [1], 0),      # width 0
        (np.zeros((1, 1), np.uint8), [0], 3),      # count not positive
        (np.zeros((1, 1), np.uint8), [1, 2], 3),   # one count per row
    ])
    def test_from_packed_rejects(self, packed, tally, width):
        with pytest.raises(ContractError):
            ShotTable.from_packed("a", packed, np.array(tally), width)

    @pytest.mark.parametrize("counts, width", [
        ({"0x": 3, "01": 1}, 2),
        ({"0 ": 3}, 2),
        ({"0/": 3}, 2),
        ({"é1": 3}, 2),
        ({"01": 1.7}, 2),
        ({"01": True}, 2),
        ({"01": 0}, 2),
        ({"01": -2}, 2),
        ({"011": 2}, 2),
        ({"01": 2}, 0),
    ])
    def test_constructor_rejects(self, counts, width):
        with pytest.raises(ContractError):
            ShotTable("a", counts, width)

    def test_numpy_integer_counts_are_accepted(self):
        assert ShotTable("a", {"1": np.int64(3)}, 1).shots == 3

    def test_pickle_round_trip(self):
        t = fake_uniform_shots(70, 40, 3, "p")
        back = pickle.loads(pickle.dumps(t))
        assert back == t and np.array_equal(back.packed, t.packed)


class TestHammingProfile:
    @pytest.mark.parametrize("width, outcomes", [(1, 1), (1, 2), (8, 1), (8, 60),
                                                 (2000, 1), (2000, 300)])
    def test_matches_string_loop_bit_for_bit(self, width, outcomes):
        rng = np.random.default_rng(width * 1000 + outcomes)
        for _ in range(3):
            t = ShotTable("t", random_counts(rng, width, outcomes), width)
            target = random_target(rng, width)
            assert np.array_equal(t.hamming_profile(target),
                                  reference_hamming_profile(t, target))

    def test_fake_uniform_at_width(self):
        t = fake_uniform_shots(2000, 256, 1, "wide")
        target = "01" * 1000
        assert np.array_equal(t.hamming_profile(target), reference_hamming_profile(t, target))

    def test_computed_once_per_target(self):
        t = ShotTable("t", {"01": 3, "11": 1}, 2)
        assert t.hamming_profile("00") is t.hamming_profile("00")
        assert t.hamming_profile("00").tolist() == [0.0, 0.75, 0.25]
        assert t.hamming_profile("11").tolist() == [0.25, 0.75, 0.0]

    def test_target_must_be_a_bitstring_of_the_width(self):
        t = ShotTable("t", {"01": 3}, 2)
        for target in ("0", "0x", "010"):
            with pytest.raises(ContractError):
                t.hamming_profile(target)


class TestBootstrap:
    @pytest.mark.parametrize("width, per_kind", [(1, 1), (3, 4), (8, 3), (40, 5)])
    def test_matches_per_proxy_loop_bit_for_bit(self, width, per_kind):
        rng = np.random.default_rng(width + per_kind)
        tables = {}
        for kind in ("M1", "M2", "M3"):
            tables[kind] = []
            for i in range(per_kind):
                # Proxies close to their target, so that most replicas are defined.
                counts = random_counts(rng, width, int(rng.integers(1, 30)),
                                       min(0.3, 1.0 / width))
                tables[kind].append((ShotTable(f"{kind}{i}", counts, width), "0" * width))
        got = bootstrap_sigma(tables, width, B=40, seed=5)
        assert math.isfinite(got)
        assert got == reference_bootstrap_sigma(tables, width, B=40, seed=5)

    def test_polarization_uses_the_table_profile(self):
        t = ShotTable("t", {"0": 75, "1": 25}, 1)
        assert effective_polarization(t, "0") == pytest.approx(0.5, abs=1e-12)


class TestShotsJsonl:
    IDS = ["a", 'quote"and\\slash', "tab\tnewline\n", "ünïcode ✓", "", "0"]

    def tables(self):
        rng = np.random.default_rng(11)
        out = [fake_uniform_shots(1, 5, 0, "one-bit"), fake_uniform_shots(300, 20, 1, "wide")]
        for i, cid in enumerate(self.IDS):
            width = int(rng.integers(1, 12))
            out.append(ShotTable(cid, random_counts(rng, width, int(rng.integers(1, 9))), width))
        return out

    def test_writer_matches_json_dumps(self):
        buf = io.StringIO()
        tables = self.tables()
        assert write_shot_tables(buf, tables) == len(tables)
        assert buf.getvalue() == "".join(encode_reference(t) + "\n" for t in tables)

    def test_write_read_write_same_bytes(self):
        first = io.StringIO()
        write_shot_tables(first, self.tables())
        back = list(read_shot_tables(io.StringIO(first.getvalue())))
        second = io.StringIO()
        write_shot_tables(second, back)
        assert second.getvalue() == first.getvalue()
        assert back == self.tables()

    def test_reader_takes_whitespace_and_no_width(self):
        text = '\n  {"counts": {"10": 2, "01": 1}, "circuit_id": "x"}  \n\n'
        (t,) = read_shot_tables(io.StringIO(text))
        assert (t.circuit_id, t.width, dict(t.counts)) == ("x", 2, {"10": 2, "01": 1})

    @pytest.mark.parametrize("line, message", [
        ('{"circuit_id": "a", "width": 2, "counts": {"0x": 3, "01": 1}}', "'0x'"),
        ('{"circuit_id": "a", "width": 2, "counts": {"01": 1.7}}', "integers"),
        ('{"circuit_id": "a", "width": 2, "counts": {"01": true}}', "integers"),
        ('{"circuit_id": "a", "width": 2, "counts": {"011": 1}}', "'011'"),
        ('{"circuit_id": "a", "width": 0, "counts": {"0": 1}}', "width"),
        ('{"circuit_id": "a", "width": "2", "counts": {"01": 1}}', "width"),
        ('{"circuit_id": "a", "counts": {}}', "counts is empty and width is missing"),
        ('{"circuit_id": "a", "counts": [1]}', "counts must be an object"),
        ('[1, 2]', "must have circuit_id and counts"),
        ('{"circuit_id": "a", "counts": {"01": 1}', "invalid JSON"),
    ])
    def test_reader_rejects_with_path(self, line, message):
        with pytest.raises(SchemaError) as e:
            list(read_shot_tables(io.StringIO('{"circuit_id": "ok", "counts": {"1": 1}}\n'
                                              + line + "\n")))
        assert str(e.value).startswith("$[1]") and message in str(e.value)

    def test_reader_rejects_repeated_circuit_id(self):
        text = ('{"circuit_id": "a", "counts": {"1": 1}}\n'
                '{"circuit_id": "b", "counts": {"1": 1}}\n'
                '{"circuit_id": "a", "counts": {"0": 1}}\n')
        with pytest.raises(SchemaError, match=r"\$\[2\]\.circuit_id: duplicate circuit_id 'a'"):
            list(read_shot_tables(io.StringIO(text)))

    def test_empty_table_with_width_reads(self):
        (t,) = read_shot_tables(io.StringIO('{"circuit_id": "a", "width": 3, "counts": {}}'))
        assert t.width == 3 and t.shots == 0 and dict(t.counts) == {}
        with pytest.raises(ContractError, match="empty shot table"):
            effective_polarization(t, "000")
