import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorbench import sim
from mirrorbench.circuits import (
    MIRRORABLE_KINDS,
    CapacityError,
    Circuit,
    ContractError,
    GATE_ARITY,
    GATE_NPARAMS,
    GateOp,
    equal_up_to_phase,
    gate_matrix,
    layerize,
    unitary_of,
)
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
)

from tests.test_circuits import random_native_circuit

COMBINED = NoiseModel(lam_1q=0.0005, lam_2q=0.005, eps_ro=0.01,
                      theta_idle=0.005, theta_over={"X": 0.01, "SX": 0.01})


def random_mirrorable_circuit(rng, n, n_ops):
    kinds = sorted(k for k in MIRRORABLE_KINDS if GATE_ARITY[k] <= n)
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


def _dense(dist, n):
    p = np.zeros(1 << n)
    for bs, v in dist.probs.items():
        p[int(bs, 2)] = v
    return p


class TestNoiseModel:
    def test_validation(self):
        with pytest.raises(ContractError):
            NoiseModel(lam_1q=1.5)
        with pytest.raises(ContractError):
            NoiseModel(eps_ro=0.7)

    def test_dict_round_trip(self):
        assert NoiseModel.from_dict(COMBINED.to_dict()) == COMBINED

    def test_noiseless(self):
        assert NoiseModel.noiseless().is_noiseless()
        assert not COMBINED.is_noiseless()


class TestIdealDistribution:
    def test_empty_circuit(self):
        d = ideal_distribution(Circuit(3, ()))
        assert d.probs == {"000": 1.0}

    def test_hadamard(self):
        d = ideal_distribution(Circuit(1, ((GateOp("H", (), (0,)),),)))
        assert d["0"] == pytest.approx(0.5) and d["1"] == pytest.approx(0.5)

    def test_qft2_uniform(self):
        from mirrorbench.algos import qft_circuit
        d = ideal_distribution(qft_circuit(2))
        for bs in ("00", "01", "10", "11"):
            assert d[bs] == pytest.approx(0.25)


class TestSampleShots:
    def test_noiseless_empty(self):
        t = sample_shots(Circuit(3, ()), NoiseModel.noiseless(), 100, 7)
        assert t.counts == {"000": 100}

    def test_readout_half(self):
        t = sample_shots(Circuit(1, ()), NoiseModel(eps_ro=0.5), 100_000, 3)
        f = t.counts.get("1", 0) / 100_000
        assert abs(f - 0.5) < 5 * math.sqrt(0.25 / 100_000)

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
        exact = noisy_distribution(c, nm).probs
        for bs, p in exact.items():
            f = t.counts.get(bs, 0) / shots
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


class TestStepConsumersAgree:
    """The consumers of the noisy program agree with each other and with the
    noiseless reference ``unitary_of``."""

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
        c = random_mirrorable_circuit(rng, n, int(rng.integers(1, 13)))
        nm = random_noise_model(rng)
        p = _dense(noisy_distribution(c, nm), n)
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
        c = random_mirrorable_circuit(rng, n, int(rng.integers(1, 13)))
        nm = random_noise_model(rng, coherent_only=True)
        col = np.abs(noisy_unitary(c, nm)[:, 0]) ** 2
        assert np.abs(_dense(noisy_distribution(c, nm), n) - col).max() <= 1e-12

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_statevector_matches_unitary(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        c = random_mirrorable_circuit(rng, n, int(rng.integers(1, 13)))
        psi = sim.statevector(c).ravel()
        assert np.abs(psi - unitary_of(c)[:, 0]).max() <= 1e-12


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
        with pytest.raises(CapacityError):
            exact_process_fidelity(Circuit(7, ()), NoiseModel.noiseless())


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
