"""Shot tables as arrays: construction, the Hamming profile and the bootstrap
against the dict-and-string code they replaced, and the shots.jsonl codec."""

import collections
import io
import json
import math
import pickle

import numpy as np
import pytest

from mirrorbench import analysis
from mirrorbench.analysis import (
    _BOOTSTRAP_BLOCK,
    bootstrap_sigma,
    effective_polarization,
    mcfe_estimate,
)
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


def old_order_bootstrap_sigma(tables, n, B=200, seed=0) -> float:
    """The per-replica loop that the blocked draw replaced, in its draw order:
    for each replica and kind, one index draw, then one multinomial per chosen
    proxy over the full profile. A statistical reference only."""
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


def reference_bootstrap_sigma(tables, n, B=200, seed=0) -> float:
    """The blocked draw as a plain loop over replicas and proxies: for each
    block of replicas and each kind, one index draw for the block, then one
    multinomial per replica and chosen proxy over the bins the kind reaches."""
    rng = derive_seed(seed, "bootstrap")
    q = 4.0 ** -n
    weights = (-0.5) ** np.arange(n + 1)
    prof = {}
    for kind, pairs in tables.items():
        rows = [(reference_hamming_profile(t, tgt), sum(t.counts.values()))
                for t, tgt in pairs]
        reached = [k for k in range(n + 1) if any(h[k] for h, _ in rows)]
        prof[kind] = [(h[reached], shots) for h, shots in rows], weights[reached]
    fs = []
    for start in range(0, B, _BOOTSTRAP_BLOCK):
        block = min(_BOOTSTRAP_BLOCK, B - start)
        means = {}
        for kind, (rows, w) in prof.items():
            idx = rng.integers(0, len(rows), size=(block, len(rows)))
            means[kind] = []
            for replica in idx:
                ss = []
                for i in replica:
                    h, shots = rows[i]
                    a = float(rng.multinomial(shots, h) @ w) / shots
                    ss.append((a - q) / (1.0 - q))
                means[kind].append(float(np.mean(ss)))
        for m1, m2, m3 in zip(means["M1"], means["M2"], means["M3"]):
            f, _, flags = mcfe_estimate(m1, m2, m3, n)
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


def near_tables(width: int, per_kind: int, seed: int, radius: int | None = None):
    """Random M1/M2/M3 tables close to the all-zeros target, so that most
    replicas are defined; with ``radius``, no shot is farther from it."""
    rng = np.random.default_rng(seed)
    tables = {}
    for kind in ("M1", "M2", "M3"):
        tables[kind] = []
        for i in range(per_kind):
            counts = random_counts(rng, width, int(rng.integers(1, 30)), min(0.3, 1.0 / width))
            if radius is not None:
                counts = {b: c for b, c in counts.items() if b.count("1") <= radius} or {
                    "0" * width: 1}
            tables[kind].append((ShotTable(f"{kind}{i}", counts, width), "0" * width))
    return tables


def sharp_tables(width: int, per_kind: int, seed: int):
    """Random M1/M2/M3 tables with most shots on the all-zeros target: every
    polarization is large, so every replica is defined and sigma is small."""
    rng = np.random.default_rng(seed)
    return {kind: [(ShotTable(f"{kind}{i}", {**random_counts(rng, width, 4, 0.1),
                                             "0" * width: int(rng.integers(200, 400))}, width),
                    "0" * width) for i in range(per_kind)]
            for kind in ("M1", "M2", "M3")}


class CountingGenerator:
    """A generator that counts the calls of each of its methods."""

    def __init__(self, rng):
        self.rng = rng
        self.calls = collections.Counter()

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return method(*args, **kwargs)
        return counted


class TestBootstrap:
    # The last two cases: profiles that end in zero bins, and replicas over
    # three blocks.
    @pytest.mark.parametrize("width, per_kind, radius, B", [
        (1, 1, None, 40), (3, 4, None, 40), (8, 3, None, 40), (40, 5, None, 40),
        (12, 4, 2, 40), (3, 2, None, 2 * _BOOTSTRAP_BLOCK + 7),
    ], ids=["1-1", "3-4", "8-3", "40-5", "zero-tail", "three-blocks"])
    def test_matches_per_proxy_loop_bit_for_bit(self, width, per_kind, radius, B):
        tables = near_tables(width, per_kind, width + per_kind, radius)
        if radius is not None:
            assert not any(t.hamming_profile(tgt)[radius + 1:].any()
                           for pairs in tables.values() for t, tgt in pairs)
        got = bootstrap_sigma(tables, width, B=B, seed=5)
        assert math.isfinite(got)
        assert got == reference_bootstrap_sigma(tables, width, B=B, seed=5)

    def test_same_spread_as_the_old_draw_order(self):
        # The two draw orders sample one distribution: over 40 seeds their
        # mean sigmas agree to within 5%.
        tables = sharp_tables(8, 5, 45)
        new = [bootstrap_sigma(tables, 8, B=200, seed=s) for s in range(40)]
        old = [old_order_bootstrap_sigma(tables, 8, B=200, seed=s) for s in range(40)]
        assert np.mean(new) == pytest.approx(np.mean(old), rel=0.05)

    @pytest.mark.parametrize("B, blocks", [(2, 1), (200, 1), (_BOOTSTRAP_BLOCK + 1, 2)])
    def test_one_draw_per_kind_and_block(self, monkeypatch, B, blocks):
        tables = sharp_tables(3, 3, 11)
        expected = bootstrap_sigma(tables, 3, B=B, seed=1)
        assert math.isfinite(expected)
        rngs = []

        def counting_seed(*args):
            rngs.append(CountingGenerator(derive_seed(*args)))
            return rngs[-1]
        monkeypatch.setattr(analysis, "derive_seed", counting_seed)
        assert bootstrap_sigma(tables, 3, B=B, seed=1) == expected
        (rng,) = rngs
        assert rng.calls == {"integers": 3 * blocks, "multinomial": 3 * blocks}

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
        ('{"circuit_id": "a", "counts": [1]}', "'counts' must be a JSON object, got [1]"),
        ('[1, 2]', "must be a JSON object, got [1, 2]"),
        ('{"circuit_id": "a", "counts": {"01": 1}', "invalid JSON"),
        # A misspelt key was skipped, and an id that is no string was str()-ed.
        ('{"circuit_id": "a", "widht": 2, "counts": {"01": 1}}', "unexpected key 'widht'"),
        ('{"circuit_id": ["a"], "counts": {"01": 1}}', "'circuit_id' must be a string"),
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
