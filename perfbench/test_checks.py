"""Tests of the benchmark's reference computations.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import reference as ref  # noqa: E402

NOISELESS = {}


def gate(kind, qubits, params=()):
    return {"kind": kind, "params": list(params), "qubits": list(qubits)}


def circuit(n, layers):
    return {"id": "c", "n": n, "layers": layers}


def test_noiseless_circuit_has_unit_fidelity():
    c = circuit(3, [[gate("U3", [0], (0.3, 0.2, 0.1)), gate("SX", [2])],
                    [gate("CZ", [0, 1]), gate("RZ", [2], (0.7,))],
                    [gate("X", [1]), gate("CZ", [2, 0])]])
    assert ref.choi_process_fidelity(c, NOISELESS) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("lam", [0.05, 0.3])
@pytest.mark.parametrize("g", [gate("SX", [0]), gate("CZ", [0, 1])])
def test_depolarized_gate_fidelity(g, lam):
    k = len(g["qubits"])
    c = circuit(2, [[g]])
    f = ref.choi_process_fidelity(c, {"lam_1q": lam, "lam_2q": lam})
    assert f == pytest.approx(1 - lam * (4 ** k - 1) / 4 ** k, abs=1e-12)


def test_uniform_shots_have_no_polarization():
    n, shots = 40, 4000
    rng = np.random.default_rng(3)
    counts = {}
    for row in rng.integers(0, 2, size=(shots, n)):
        bits = "".join(map(str, row))
        counts[bits] = counts.get(bits, 0) + 1
    s = ref.observed_polarization(counts, "0" * n)
    # E[(-1/2)^k] = 4^-n for uniform bits; one shot's estimate has sd <= 1.
    assert abs(s) < 5 / math.sqrt(shots)


def test_exact_polarization_of_readout_only_noise():
    # A noiseless identity circuit read out with flip probability e has
    # E[(-1/2)^k] = (1 - 3e/2)^n.
    n, e = 3, 0.1
    c = circuit(n, [[gate("X", [q]) for q in range(n)]])
    s, _ = ref.exact_polarization(ref.outcome_probabilities(c, {"eps_ro": e}), "1" * n)
    a = (1 - 1.5 * e) ** n
    assert s == pytest.approx((a - 4.0 ** -n) / (1 - 4.0 ** -n), abs=1e-12)


def test_ideal_outcome_of_a_pauli_circuit():
    c = circuit(3, [[gate("X", [0]), gate("SX", [2])], [gate("CZ", [0, 1]), gate("SX", [2])]])
    assert ref.ideal_outcome(c) == ("101", pytest.approx(1.0))
