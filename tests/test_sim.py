import hashlib
import json
import math
import re
from collections import Counter
from functools import reduce
from itertools import chain, product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorbench import sim
from mirrorbench.circuits import (
    MIRRORABLE_KINDS,
    PAULI_MATS,
    CapacityError,
    Circuit,
    ContractError,
    GATE_ARITY,
    GATE_NPARAMS,
    GateOp,
    ONE_QUBIT_KINDS,
    apply_gate,
    equal_up_to_phase,
    gate_matrix,
    layerize,
)
from mirrorbench.core import ORACLE_MAX_N, SchemaError
from mirrorbench.sim import (
    NoiseModel,
    ShotTable,
    derive_seed,
    exact_process_fidelity,
    fake_uniform_shots,
    ideal_distribution,
    noisy_distribution,
    noisy_unitary,
    process_fidelity_unitaries,
    sample_shots,
    unitary_of,
)

from tests.test_circuits import random_native_circuit

COMBINED = NoiseModel(lam_1q=0.0005, lam_2q=0.005, eps_ro=0.01,
                      theta_idle=0.005, theta_over={"X": 0.01, "SX": 0.01})


def random_circuit(rng, n, n_ops, kinds=MIRRORABLE_KINDS):
    kinds = sorted(k for k in kinds if GATE_ARITY[k] <= n)
    ops = []
    for _ in range(n_ops):
        kind = kinds[int(rng.integers(len(kinds)))]
        qubits = tuple(int(q) for q in rng.choice(n, GATE_ARITY[kind], replace=False))
        if kind == "C1Q":
            params = (float(rng.integers(24)),)
        else:
            params = tuple(float(x) for x in rng.uniform(-7, 7, GATE_NPARAMS[kind]))
        ops.append(GateOp(kind, params, qubits))
    return Circuit(n, layerize(n, ops))


def random_noise_model(rng, coherent_only=False):
    coherent = dict(theta_idle=float(rng.uniform(-0.6, 0.6)),
                    theta_over={"X": float(rng.uniform(-0.6, 0.6)),
                                "SX": float(rng.uniform(-0.6, 0.6))})
    if coherent_only:
        return NoiseModel(**coherent)
    return NoiseModel(lam_1q=float(rng.uniform(0, 0.05)),
                      lam_2q=float(rng.uniform(0, 0.1)),
                      eps_ro=float(rng.uniform(0, 0.1)), **coherent)


# The rule each from_dict case checks, which also names the case.
NOISE_RULES = [
    "unknown key 'lam_1'",
    "lam_1q must be a number, got True",
    "eps_ro must be a number, got '0.1'",
    "theta_over['X'] must be a number, got True",
    "noise and its theta_over must be JSON objects",
    "noise and its theta_over must be JSON objects",
]


class TestNoiseModel:
    def test_validation(self):
        with pytest.raises(ContractError):
            NoiseModel(lam_1q=1.5)
        with pytest.raises(ContractError):
            NoiseModel(eps_ro=0.7)

    def test_dict_round_trip(self):
        d = {"lam_1q": 0.01, "lam_2q": 0.05, "theta_over": {"X": 0.1, "SX": -0.2},
             "theta_idle": 0.07, "eps_ro": 0.02}
        assert NoiseModel.from_dict(d) == NoiseModel(
            lam_1q=0.01, lam_2q=0.05, theta_over={"X": 0.1, "SX": -0.2},
            theta_idle=0.07, eps_ro=0.02)

    @pytest.mark.parametrize("d, message", [
        ({"lam_1": 0.5, "lam_1q": 0.1}, "noise: unexpected key 'lam_1'"),
        ({"lam_1q": True}, "noise: 'lam_1q' must be a finite number, got true"),
        ({"eps_ro": "0.1"}, "noise: 'eps_ro' must be a finite number, got \"0.1\""),
        ({"theta_over": {"X": True}}, "noise.theta_over: 'X' must be a finite number, got true"),
        ({"theta_over": [["X", 0.1]]},
         "noise: 'theta_over' must be a JSON object, got [[\"X\", 0.1]]"),
        ([], "noise: must be a JSON object, got []"),
    ], ids=[f"d{i}-{rule}" for i, rule in enumerate(NOISE_RULES)])
    def test_from_dict_rejects_what_it_would_drop_or_coerce(self, d, message):
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            NoiseModel.from_dict(d)

    def test_noiseless(self):
        assert NoiseModel.noiseless() == NoiseModel(0.0, 0.0, {}, 0.0, 0.0)
        assert NoiseModel.noiseless() != COMBINED


class TestIdealDistribution:
    def test_empty_circuit(self):
        d = ideal_distribution(Circuit(3, ()))
        assert d.dtype == np.float64 and d.tolist() == [1.0] + [0.0] * 7

    def test_hadamard(self):
        d = ideal_distribution(Circuit(1, ((GateOp("H", (), (0,)),),)))
        assert d == pytest.approx([0.5, 0.5])

    def test_qft2_uniform(self):
        from mirrorbench.algos import qft_circuit
        d = ideal_distribution(qft_circuit(2))
        assert d == pytest.approx([0.25] * 4)


class TestSampleShots:
    def test_noiseless_empty(self):
        t = sample_shots(Circuit(3, ()), NoiseModel.noiseless(), 100, 7)
        assert t.counts == {"000": 100}

    def test_readout_half(self):
        t = sample_shots(Circuit(1, ()), NoiseModel(eps_ro=0.5), 100_000, 3)
        f = t.counts.get("1", 0) / 100_000
        assert abs(f - 0.5) < 5 * math.sqrt(0.25 / 100_000)

    @pytest.mark.parametrize("shots", [10 ** 11, 10 ** 30])
    def test_shots_beyond_budget_raise_before_drawing(self, shots):
        # At n = 3, 10**11 shots made numpy allocate 745 GiB (279 GiB for the
        # uniform bits), and 10**30 passed numpy's largest dimension.
        samplers = [lambda: sample_shots(Circuit(3, ()), COMBINED, shots, 0),
                    lambda: fake_uniform_shots(3, shots, 0)]
        for sample in samplers:
            with pytest.raises(CapacityError, match="exceed the sampling budget of 2\\^27"):
                sample()

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        c = random_native_circuit(rng, 3, 10)
        a = sample_shots(c, COMBINED, 500, 42)
        b = sample_shots(c, COMBINED, 500, 42)
        assert a.counts == b.counts

    def test_zero_shots_rejected(self):
        with pytest.raises(ContractError):
            sample_shots(Circuit(1, ()), NoiseModel.noiseless(), 0, 1)

    def test_matches_density_evolution(self):
        # frequencies within 5 sigma of the exact noisy distribution (n <= 4)
        rng = np.random.default_rng(8)
        c = random_native_circuit(rng, 3, 12)
        nm = NoiseModel(lam_1q=0.02, lam_2q=0.05, eps_ro=0.03, theta_idle=0.1,
                        theta_over={"X": 0.2, "SX": 0.2})
        shots = 200_000
        t = sample_shots(c, nm, shots, 5)
        exact = noisy_distribution(c, nm)
        for x, p in enumerate(exact):
            f = t.counts.get(format(x, f"0{c.n}b"), 0) / shots
            sigma = math.sqrt(max(p * (1 - p), 1e-12) / shots)
            assert abs(f - p) < 5 * sigma + 1e-9

    def test_top_draw_stays_in_support(self, monkeypatch):
        # u at the largest value rng.random can return lies above the
        # rounded cumulative sum of some columns; the drawn index must still
        # be an outcome the state can produce (qubit 0 is always 1 here).
        class TopDraws:
            def __init__(self, rng):
                self._rng = rng

            def __getattr__(self, name):
                return getattr(self._rng, name)

            def random(self, size=None):
                return np.full(size, np.nextafter(1.0, 0.0))

        real = sim.derive_seed
        monkeypatch.setattr(sim, "derive_seed", lambda *tags: TopDraws(real(*tags)))
        n = 5
        for seed in range(40):
            rng = np.random.default_rng(seed)
            ops = [GateOp("X", (), (0,))] + [
                GateOp("U3", tuple(rng.uniform(-3, 3, 3)), (q,)) for q in range(1, n)]
            c = Circuit(n, layerize(n, ops))
            support = np.abs(sim.statevector(c).ravel()) ** 2 > 0
            t = sample_shots(c, NoiseModel.noiseless(), 8, seed)
            assert all(support[int(bs, 2)] for bs in t.counts), (seed, t.counts)


def per_shot_reference(c, nm, shots, seed):
    """The sampler that ``sample_shots`` replaced: one state column per shot,
    each drawn error inserted into its own column. It consumes the generator
    in the same order, so the two must give identical counts."""
    rng = derive_seed(seed, c.id)
    n = c.n
    states = np.zeros((2,) * n + (shots,), dtype=complex)
    states[(0,) * n + (slice(None),)] = 1.0
    for g, qubits, lam in chain.from_iterable(sim._noisy_program(c, nm)):
        states = apply_gate(g, states, qubits, n)
        if lam > 0:
            k = len(qubits)
            num_p = 4 ** k - 1
            hit = np.nonzero(rng.random(shots) < lam * num_p / 4 ** k)[0]
            if hit.size:
                which = rng.integers(1, num_p + 1, size=hit.size)
                for shot, w in zip(hit, which):
                    col = states[..., shot]
                    for j, q in enumerate(qubits):
                        pauli = (int(w) >> 2 * (k - 1 - j)) & 3
                        if pauli:
                            col = apply_gate(PAULI_MATS[pauli], col, (q,), n)
                    states[..., shot] = col
    cum = np.cumsum(np.abs(states.reshape(1 << n, shots)) ** 2, axis=0)
    u = rng.random(shots)
    outcomes = (cum < u * cum[-1]).sum(axis=0)
    bits = (outcomes[:, None] >> np.arange(n - 1, -1, -1)) & 1
    if nm.eps_ro > 0:
        bits ^= rng.random((shots, n)) < nm.eps_ro
    return dict(Counter("".join(map(str, row)) for row in bits))


class TestExactStream:
    """``sample_shots`` reproduces the per-shot sampler draw for draw, so a
    change to the order of the random draws fails here."""

    NOISE = {
        "combined": COMBINED,
        "strong": NoiseModel(lam_1q=0.05, lam_2q=0.2, eps_ro=0.05, theta_idle=0.3,
                             theta_over={"X": 0.4, "SX": -0.3}),
        # every shot errs at most gates, so nearly every shot has its own history
        "always": NoiseModel(lam_1q=1.0, lam_2q=1.0),
        # a single trajectory
        "readout": NoiseModel(eps_ro=0.1),
        "noiseless": NoiseModel.noiseless(),
    }

    @staticmethod
    def straddling_circuit():
        """Every 2q gate crosses a boundary of the sampler's blocks of
        ``sim._BLOCK_QUBITS`` qubits, or spans a whole block, in both qubit
        orders; every other qubit gets a U3 in each layer, so each block has
        products pending when a 2q gate reaches it."""
        n, rng = 11, np.random.default_rng(5)
        layers = []
        for kind, a, b in [("CX", 4, 3), ("CX", 3, 4), ("SWAP", 7, 4), ("SWAP", 8, 7),
                           ("CP", 0, 8), ("CP", 10, 3)]:
            gate = GateOp(kind, (float(rng.uniform(-7, 7)),) * GATE_NPARAMS[kind], (a, b))
            u3 = [GateOp("U3", tuple(rng.uniform(-7, 7, 3)), (q,))
                  for q in range(n) if q not in (a, b)]
            layers.append((*u3[:len(u3) // 2], gate, *u3[len(u3) // 2:]))
        return Circuit(n, layers, "straddling")

    @pytest.mark.parametrize("noise", sorted(NOISE))
    def test_counts_match_per_shot_sampler(self, noise):
        nm = self.NOISE[noise]
        rng = np.random.default_rng(21)
        circuits = [Circuit(3, (), "empty")]
        # At n = 8 with 300 shots the strong models give more trajectories
        # than one block of sim._BLOCK_AMPLITUDES holds; n = 11 has three
        # blocks of sim._BLOCK_QUBITS, the last of three qubits.
        for n in (1, 2, 3, 4, 5, 8, 11):
            c = random_circuit(rng, n, 4 * n + 2, kinds=GATE_ARITY)
            circuits.append(Circuit(n, c.layers, f"all-kinds-{n}"))  # the id seeds the stream
        circuits.append(self.straddling_circuit())
        for i, c in enumerate(circuits):
            for shots in (1, 300):
                seed = 100 * i + shots
                assert sample_shots(c, nm, shots, seed).counts == \
                    per_shot_reference(c, nm, shots, seed), (c.n, shots)


class TestGoldenShots:
    def test_golden_brickwork_shots(self):
        # Pins every count and key order of the sampler on the proxies of an
        # n = 8 brickwork suite under the lowlevel_dense noise: a change to
        # the draws, or a reordering of the floating-point products that
        # moves a shot across an outcome boundary, fails here.
        from mirrorbench.algos import brickwork_u3_cz
        from mirrorbench.mirror import SamplingParams, build_suite
        nm = NoiseModel(lam_1q=0.001, lam_2q=0.01, eps_ro=0.02, theta_idle=0.02)
        h = hashlib.sha256()
        suite = build_suite(brickwork_u3_cz(8, 12, 7), SamplingParams(3, 3, 3, 7))
        for i, mc in enumerate(suite):
            t = sample_shots(mc.circuit, nm, 1000, i)
            h.update(json.dumps([t.circuit_id, list(t.counts.items())]).encode())
        assert h.hexdigest() == \
            "13e87b2404f8a5a987c929149fc43fef34794cc10b5a04393fb9c30bea1e8cdf"


class TestNoisyProgram:
    def test_1q_matrices_equal_gate_matrix_bit_for_bit(self):
        # The program builds every 1q matrix in one vectorized call; it must
        # give gate_matrix's matrices, over-rotation folded in as before, so
        # that no seeded output moves.
        rng = np.random.default_rng(3)
        nm = NoiseModel(theta_over={"X": 0.3, "SX": -0.7})
        ops = []
        for kind in sorted(ONE_QUBIT_KINDS) * 400:
            params = ((float(rng.integers(24)),) if kind == "C1Q"
                      else tuple(float(x) for x in rng.uniform(-7, 7, GATE_NPARAMS[kind])))
            ops.append(GateOp(kind, params, (0,)))
        c = Circuit(1, [(op,) for op in ops])
        steps = list(chain.from_iterable(sim._noisy_program(c, nm)))
        assert len(steps) == len(ops)
        for op, (g, _, _) in zip(ops, steps):
            want = gate_matrix(op.kind, op.params)
            theta = nm.theta_over.get(op.kind)
            if theta:
                rot = math.cos(theta / 2) * np.eye(2) - 1j * math.sin(theta / 2) * PAULI_MATS[1]
                want = rot @ want
            assert np.array_equal(g, want), op


class TestStepConsumersAgree:
    """The consumers of the noisy program agree with each other, and the
    noiseless ones with a dense unitary built gate by gate (``embed``)."""

    EXAMPLES = 20
    SHOTS = 20_000
    # Family-wise false-alarm rate of the shot test over every example and
    # outcome, Bonferroni-split (n <= 4, so at most 16 outcomes).
    FAMILY_ALPHA = 1e-6

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=EXAMPLES, deadline=None, derandomize=True)
    def test_shots_match_noisy_distribution(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        c = random_circuit(rng, n, int(rng.integers(1, 13)))
        nm = random_noise_model(rng)
        p = noisy_distribution(c, nm)
        counts = np.zeros(1 << n)
        for bs, k in sample_shots(c, nm, self.SHOTS, seed).counts.items():
            counts[int(bs, 2)] = k
        # Bernstein's inequality on each binomial marginal of the multinomial.
        log_term = math.log(2 * self.EXAMPLES * 16 / self.FAMILY_ALPHA) / self.SHOTS
        tol = log_term / 3 + np.sqrt(log_term ** 2 / 9 + 2 * log_term * p * (1 - p))
        dev = np.abs(counts / self.SHOTS - p)
        assert (dev <= tol).all(), (dev / tol).max()

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_coherent_distribution_matches_noisy_unitary(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        c = random_circuit(rng, n, int(rng.integers(1, 13)))
        nm = random_noise_model(rng, coherent_only=True)
        col = np.abs(noisy_unitary(c, nm)[:, 0]) ** 2
        assert np.abs(noisy_distribution(c, nm) - col).max() <= 1e-12

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_statevector_matches_unitary(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        c = random_circuit(rng, n, int(rng.integers(1, 13)))
        psi = sim.statevector(c).ravel()
        u = unitary_of(c)
        assert np.abs(psi - u[:, 0]).max() <= 1e-12
        reference = np.eye(1 << n, dtype=complex)
        for op in c.ops():
            reference = embed(op.matrix(), op.qubits, n) @ reference
        assert np.abs(u - reference).max() <= 1e-12


class TestFakeUniform:
    def test_deterministic(self):
        a = fake_uniform_shots(1, 4, 11)
        b = fake_uniform_shots(1, 4, 11)
        assert a.counts == b.counts and sum(a.counts.values()) == 4

    def test_huge_n_fast(self):
        t = fake_uniform_shots(10_000, 1024, 0)
        assert sum(t.counts.values()) == 1024
        assert all(len(k) == 10_000 for k in t.counts)

    def test_entropy_near_n_bits(self):
        t = fake_uniform_shots(3, 50_000, 2)
        ps = np.array(list(t.counts.values())) / 50_000
        h = -np.sum(ps * np.log2(ps))
        assert h > 2.99


class TestProcessFidelityUnitaries:
    def test_self(self):
        u = unitary_of(Circuit(2, ((GateOp("CZ", (), (0, 1)),),)))
        assert process_fidelity_unitaries(u, u) == pytest.approx(1.0)

    def test_identity_vs_cz(self):
        assert process_fidelity_unitaries(np.eye(4), gate_matrix("CZ")) == \
            pytest.approx(0.25)

    def test_identity_vs_rz(self):
        for theta in (0.1, 1.0, 2.5):
            f = process_fidelity_unitaries(np.eye(2), gate_matrix("RZ", (theta,)))
            assert f == pytest.approx(math.cos(theta / 2) ** 2)

    def test_dim_mismatch(self):
        with pytest.raises(ContractError):
            process_fidelity_unitaries(np.eye(2), np.eye(4))


class TestExactProcessFidelity:
    def test_noiseless_is_one(self):
        rng = np.random.default_rng(4)
        c = random_native_circuit(rng, 3, 10)
        assert exact_process_fidelity(c, NoiseModel.noiseless()) == \
            pytest.approx(1.0, abs=1e-9)

    def test_readout_only_is_one(self):
        # readout error is excluded from the process fidelity by definition
        rng = np.random.default_rng(6)
        c = random_native_circuit(rng, 2, 8)
        f = exact_process_fidelity(c, NoiseModel(eps_ro=0.01))
        assert f == pytest.approx(1.0, abs=1e-9)

    def test_depolarized_cz_closed_form(self):
        # (1 - lam) + lam / 16 = 0.9953125
        c = Circuit(2, ((GateOp("CZ", (), (0, 1)),),))
        f = exact_process_fidelity(c, NoiseModel(lam_2q=0.005))
        assert f == pytest.approx(0.9953125, abs=1e-9)

    def test_depolarized_1q_closed_form(self):
        c = Circuit(1, ((GateOp("X", (), (0,)),),))
        lam = 0.01
        f = exact_process_fidelity(c, NoiseModel(lam_1q=lam))
        assert f == pytest.approx((1 - lam) + lam / 4, abs=1e-9)

    def test_coherent_only_cross_check(self):
        # matches the unitary-overlap formula when only coherent errors act
        rng = np.random.default_rng(12)
        for _ in range(3):
            c = random_native_circuit(rng, 3, 8)
            nm = NoiseModel(theta_idle=0.05, theta_over={"X": 0.1, "SX": 0.1})
            f1 = exact_process_fidelity(c, nm)
            f2 = process_fidelity_unitaries(unitary_of(c), noisy_unitary(c, nm))
            assert f1 == pytest.approx(f2, abs=1e-8)

    def test_capacity(self):
        # The width is checked before the circuit's unitary is built.
        n = ORACLE_MAX_N + 1
        with mock.patch.object(sim, "unitary_of", side_effect=AssertionError), \
                pytest.raises(CapacityError, match=f"^n={n} exceeds oracle limit {ORACLE_MAX_N}$"):
            exact_process_fidelity(Circuit(n, ()), NoiseModel.noiseless())


@pytest.mark.parametrize("simulate, limit, message", [
    (sim.statevector, 20, "statevector limit"),
    (ideal_distribution, 20, "statevector limit"),
    (lambda c: sample_shots(c, COMBINED, 1, 0), 12, "trajectory limit"),
    (lambda c: noisy_distribution(c, COMBINED), 10, "density-evolution limit"),
    (lambda c: noisy_unitary(c, COMBINED), 12, "dense limit"),
], ids=["statevector", "ideal_distribution", "sample_shots", "noisy_distribution",
        "noisy_unitary"])
def test_width_limit(simulate, limit, message):
    with pytest.raises(CapacityError, match=f"^n={limit + 1} exceeds {message} {limit}$"):
        simulate(Circuit(limit + 1, ()))


def embed(g, qubits, n):
    """Dense 2^n matrix of a gate on the given qubits, built basis state by
    basis state (qubit 0 most significant)."""
    k = len(qubits)
    full = np.zeros((1 << n, 1 << n), dtype=complex)
    for x in range(1 << n):
        bits = [(x >> (n - 1 - q)) & 1 for q in range(n)]
        col = sum(bits[q] << (k - 1 - j) for j, q in enumerate(qubits))
        for row in range(1 << k):
            for j, q in enumerate(qubits):
                bits[q] = (row >> (k - 1 - j)) & 1
            full[int("".join(map(str, bits)), 2), x] += g[row, col]
    return full


def kraus_enumeration_fidelity(c, nm, target=None):
    """F = sum_h p_h |Tr(U^dag V_h)|^2 / d^2 over every Pauli error history h,
    where U is ``target``, by default the circuit's ideal unitary.

    Written from the noise model's definition, without the noisy program:
    each gate (its over-rotation about X folded in for X and SX) is followed
    by the identity with probability 1 - lam + lam/4^k or by each other
    k-qubit Pauli with probability lam/4^k, and each layer ends with
    RZ(theta_idle) on the qubits it leaves idle.
    """
    n, d = c.n, 1 << c.n
    u = np.eye(d, dtype=complex)
    vs = np.eye(d, dtype=complex)[None]  # one unitary V_h per history h
    probs = np.ones(1)
    for layer in c.layers:
        for op in layer:
            k = len(op.qubits)
            u = embed(op.matrix(), op.qubits, n) @ u
            theta = nm.theta_over.get(op.kind, 0.0)
            over = math.cos(theta / 2) * np.eye(2) - 1j * math.sin(theta / 2) * PAULI_MATS[1]
            g = over @ op.matrix() if theta else op.matrix()
            vs = embed(g, op.qubits, n) @ vs
            lam = nm.lam_1q if k == 1 else nm.lam_2q
            if lam:
                paulis = np.stack([
                    embed(reduce(np.kron, PAULI_MATS[list(digits)]), op.qubits, n)
                    for digits in product(range(4), repeat=k)])
                p = np.full(4 ** k, lam / 4 ** k)
                p[0] += 1 - lam
                vs = (paulis[:, None] @ vs[None]).reshape(-1, d, d)
                probs = np.outer(p, probs).ravel()
        busy = {q for op in layer for q in op.qubits}
        for q in range(n):
            if q not in busy and nm.theta_idle:
                vs = embed(gate_matrix("RZ", (nm.theta_idle,)), (q,), n) @ vs
    if target is not None:
        u = target
    overlaps = np.einsum("ij,hij->h", u.conj(), vs)
    return float(np.sum(probs * np.abs(overlaps) ** 2) / d ** 2)


def reference_evolve_channel(rho, c, nm, n):
    """The density evolution ``sim._evolve_channel`` replaced: each step
    conjugates the gate's row and column axes in turn, then depolarizes."""
    for g, qubits, lam in chain.from_iterable(sim._noisy_program(c, nm)):
        rho = apply_gate(g, rho, qubits, 2 * n)
        rho = apply_gate(g.conj(), rho, tuple(n + q for q in qubits), 2 * n)
        if lam > 0:
            k = len(qubits)
            axes = list(qubits) + [n + q for q in qubits]
            front = np.moveaxis(rho, axes, range(2 * k))
            traced = np.trace(front.reshape((1 << k, 1 << k) + front.shape[2 * k:]))
            mixed = np.multiply.outer(np.eye(1 << k) / (1 << k), traced)
            mixed = np.moveaxis(mixed.reshape(front.shape), range(2 * k), axes)
            rho = (1.0 - lam) * rho + lam * mixed
    return rho


def haar_unitary(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


class TestChannelOracle:
    """The fused-superoperator density evolution against an independent
    Kraus enumeration and against the step-by-step evolution it replaced."""

    STRONG = NoiseModel(lam_1q=0.2, lam_2q=0.3, theta_idle=0.25,
                        theta_over={"X": 0.4, "SX": -0.3})
    # n <= 3 and at most 4 noisy gates each, so at most 16^4 histories.
    CIRCUITS = {
        "cx-reversed": Circuit(2, (
            (GateOp("U3", (0.3, -1.1, 2.0), (0,)),),
            (GateOp("CX", (), (1, 0)),),
            (GateOp("SX", (), (1,)),),
            (GateOp("CP", (0.7,), (0, 1)),))),
        "swap-c1q": Circuit(3, (
            (GateOp("C1Q", (5.0,), (2,)), GateOp("X", (), (0,))),
            (GateOp("SWAP", (), (0, 2)),),
            (GateOp("CX", (), (2, 1)),))),
        "cp-reversed": Circuit(3, (
            (GateOp("CP", (-1.3,), (2, 0)),),
            (GateOp("SX", (), (1,)), GateOp("X", (), (2,))),
            (GateOp("SWAP", (), (1, 2)),))),
    }
    MODELS = {
        "strong": STRONG,
        "depolarizing-only": NoiseModel(lam_1q=0.1, lam_2q=0.25),
        "coherent-only": NoiseModel(theta_idle=-0.4, theta_over={"X": 0.5, "SX": 0.2}),
    }

    @pytest.mark.parametrize("circuit", sorted(CIRCUITS))
    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_matches_kraus_enumeration(self, circuit, model):
        c, nm = self.CIRCUITS[circuit], self.MODELS[model]
        self.check_against_kraus(c, nm, haar_unitary(np.random.default_rng(3), 1 << c.n))

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_random_circuits_match_kraus_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        c = random_circuit(rng, n, int(rng.integers(1, 5)), kinds=GATE_ARITY)
        nm = self.STRONG if rng.random() < 0.25 else random_noise_model(rng)
        self.check_against_kraus(c, nm, haar_unitary(rng, 1 << n))

    @staticmethod
    def check_against_kraus(c, nm, target):
        # The formula holds for any target unitary, not only the circuit's own.
        assert abs(exact_process_fidelity(c, nm) - kraus_enumeration_fidelity(c, nm)) <= 1e-12
        assert abs(sim.process_fidelity_channel_vs_unitary(target, c, nm)
                   - kraus_enumeration_fidelity(c, nm, target)) <= 1e-12

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_matches_step_by_step_evolution(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        c = random_circuit(rng, n, int(rng.integers(1, 16)), kinds=GATE_ARITY)
        nm = self.STRONG if rng.random() < 0.25 else random_noise_model(rng)
        target = haar_unitary(rng, 1 << n)
        fused = (exact_process_fidelity(c, nm),
                 sim.process_fidelity_channel_vs_unitary(target, c, nm),
                 noisy_distribution(c, nm))
        with mock.patch.object(sim, "_evolve_channel", reference_evolve_channel):
            ref = (exact_process_fidelity(c, nm),
                   sim.process_fidelity_channel_vs_unitary(target, c, nm),
                   noisy_distribution(c, nm))
        assert abs(fused[0] - ref[0]) <= 1e-12
        assert abs(fused[1] - ref[1]) <= 1e-12
        assert np.abs(fused[2] - ref[2]).max() <= 1e-12


class TestDeriveSeed:
    def test_deterministic_and_tag_sensitive(self):
        a = derive_seed(1, "x", 0).integers(0, 2 ** 31)
        b = derive_seed(1, "x", 0).integers(0, 2 ** 31)
        c = derive_seed(1, "x", 1).integers(0, 2 ** 31)
        assert a == b and a != c


class TestShotTable:
    def test_invariants(self):
        with pytest.raises(ContractError):
            ShotTable("a", {"00": 0}, 2)
        with pytest.raises(ContractError):
            ShotTable("a", {"000": 5}, 2)
