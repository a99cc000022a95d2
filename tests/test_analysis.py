import math

import numpy as np
import pytest

from mirrorbench.analysis import (
    EffectiveErrorRate,
    FidelityRecord,
    IllConditionedError,
    bootstrap_sigma,
    classical_fidelity,
    effective_error_rate,
    effective_polarization,
    estimate_benchmark,
    mcfe_estimate,
    normalized_classical_fidelity,
    predict_full_fidelity,
    render_volumetric_svg,
    volumetric_summary,
)
from mirrorbench.circuits import ContractError
from mirrorbench.sim import ShotTable, fake_uniform_shots


def table(counts, cid="t"):
    width = len(next(iter(counts)))
    return ShotTable(cid, counts, width)


class TestEffectivePolarization:
    def test_all_on_target_is_one(self):
        s = effective_polarization(table({"010": 100}), "010")
        assert s == pytest.approx(1.0, abs=1e-12)

    def test_single_qubit_closed_form(self):
        # h = (0.75, 0.25) => a = 0.625, S = (0.625 - 0.25) / 0.75 = 0.5
        s = effective_polarization(table({"0": 75, "1": 25}), "0")
        assert s == pytest.approx(0.5, abs=1e-12)

    def test_uniform_shots_near_zero(self):
        t = fake_uniform_shots(4, 200_000, 0)
        s = effective_polarization(t, "0000")
        assert abs(s) < 0.01

    def test_huge_width_finite(self):
        n = 10_000
        t = ShotTable("big", {"0" * n: 7, "1" + "0" * (n - 1): 3}, n)
        s = effective_polarization(t, "0" * n)
        assert math.isfinite(s)
        assert s == pytest.approx(0.7 + 0.3 * -0.5, abs=1e-9)

    def test_width_mismatch(self):
        with pytest.raises(ContractError):
            effective_polarization(table({"00": 5}), "000")


class TestMcfeEstimate:
    def test_closed_form(self):
        # gamma = 0.8/0.9, F = gamma + (1 - gamma)/16
        f, fc, flags = mcfe_estimate(0.8, 0.9, 0.9, 2)
        gamma = 0.8 / 0.9
        assert f == pytest.approx(gamma + (1 - gamma) / 16, abs=1e-12)
        assert fc == f and flags == ()

    def test_perfect(self):
        f, fc, flags = mcfe_estimate(1.0, 1.0, 1.0, 3)
        assert f == pytest.approx(1.0) and flags == ()

    def test_floor_gives_nan_and_flag(self):
        f, fc, flags = mcfe_estimate(0.5, 1e-3, 1e-3, 3)
        assert math.isnan(f) and fc == 0.0
        assert "estimate-undefined" in flags

    def test_clamp_flag(self):
        f, fc, flags = mcfe_estimate(1.2, 1.0, 1.0, 2)
        assert f > 1.0 and fc == 1.0 and "clamped" in flags


class TestBootstrap:
    def _tables(self, p_flip, shots, n_circ, seed):
        rng = np.random.default_rng(seed)
        out = {}
        for kind in ("M1", "M2", "M3"):
            rows = []
            for i in range(n_circ):
                k_on = int(rng.binomial(shots, 1 - p_flip))
                counts = {"00": k_on}
                if shots - k_on:
                    counts["01"] = shots - k_on
                rows.append((table(counts, f"{kind}{i}"), "00"))
            out[kind] = rows
        return out

    def test_zero_variance(self):
        tables = {k: [(table({"00": 100}, f"{k}{i}"), "00") for i in range(3)]
                  for k in ("M1", "M2", "M3")}
        assert bootstrap_sigma(tables, 2, B=50, seed=1) == pytest.approx(0.0)

    def test_deterministic(self):
        tables = self._tables(0.1, 200, 5, 0)
        a = bootstrap_sigma(tables, 2, B=100, seed=7)
        b = bootstrap_sigma(tables, 2, B=100, seed=7)
        assert a == b and a > 0

    def test_shrinks_with_more_data(self):
        small = bootstrap_sigma(self._tables(0.1, 100, 4, 1), 2, B=150, seed=2)
        big = bootstrap_sigma(self._tables(0.1, 1600, 64, 1), 2, B=150, seed=2)
        assert big < small / 2


class TestEstimateBenchmark:
    def test_perfect_shots_give_one(self):
        tables = {k: [(table({"01": 500}, f"{k}{i}"), "01") for i in range(4)]
                  for k in ("M1", "M2", "M3")}
        rec = estimate_benchmark("b", 2, 5, tables, bootstrap=50, seed=0)
        assert rec.F_hat == pytest.approx(1.0, abs=1e-12)
        assert rec.sigma_boot == pytest.approx(0.0)
        assert rec.width == 2 and rec.depth == 5

    def test_uniform_shots_flagged(self):
        tables = {k: [(fake_uniform_shots(6, 1000, i + ord(k[1])), "0" * 6)
                      for i in range(10)]
                  for k in ("M1", "M2", "M3")}
        rec = estimate_benchmark("b", 6, 9, tables, bootstrap=20, seed=0)
        assert "estimate-undefined" in rec.flags
        assert math.isnan(rec.F_hat) and rec.F_clamped == 0.0
        assert math.isnan(rec.sigma_boot) and "sigma-undefined" in rec.flags

    def test_missing_kind(self):
        tables = {"M1": [(table({"0": 10}), "0")]}
        with pytest.raises(ContractError):
            estimate_benchmark("b", 1, 1, tables)


class TestClassicalFidelity:
    def test_identical_is_one(self):
        p = [0.1, 0.2, 0.3, 0.4]
        assert classical_fidelity(p, p) == pytest.approx(1.0)

    def test_disjoint_is_zero(self):
        assert classical_fidelity([1, 0], [0, 1]) == pytest.approx(0.0)

    def test_delta_vs_uniform(self):
        # (sqrt(1 * 1/4))^2 = 1/4
        assert classical_fidelity([1, 0, 0, 0], [0.25] * 4) == pytest.approx(0.25)

    def test_rejects_non_distribution(self):
        for p in ([0.5, 0.1], [[0.5, 0.5]], [math.nan, 1.0], {"0": 0.5, "1": 0.5}):
            with pytest.raises(ContractError):
                classical_fidelity(p, [0.5, 0.5])


class TestNormalizedClassicalFidelity:
    def test_uniform_sample_scores_zero(self):
        p = [1.0, 0.0, 0.0, 0.0]
        assert normalized_classical_fidelity(p, [0.25] * 4) == \
            pytest.approx(0.0, abs=1e-12)

    def test_ideal_sample_scores_one(self):
        p = [1.0, 0.0, 0.0, 0.0]
        assert normalized_classical_fidelity(p, p) == pytest.approx(1.0)

    def test_uniform_ideal_ill_conditioned(self):
        u = [0.25] * 4
        with pytest.raises(IllConditionedError):
            normalized_classical_fidelity(u, [1.0, 0, 0, 0])


class TestEffectiveErrorRate:
    def test_closed_form(self):
        # F = 0.99^4 on a 2x2 shape => eps = 1 - 0.99
        eer = effective_error_rate([0.99 ** 4], 2, 2)
        assert eer.epsilon == pytest.approx(0.01, abs=1e-12)
        assert eer.shape == (2, 2) and eer.K == 1

    def test_geometric_mean_self_consistency(self):
        fs = [0.95, 0.90, 0.85]
        eer = effective_error_rate(fs, 3, 5)
        gm = math.exp(sum(math.log(f) for f in fs) / 3)
        assert (1 - eer.epsilon) ** 15 == pytest.approx(gm, abs=1e-12)

    def test_prediction(self):
        eer = EffectiveErrorRate((2, 2), 0.01, 10)
        assert predict_full_fidelity(eer, 10, 6) == pytest.approx(0.99 ** 60)

    def test_nonpositive_clamped_with_warning(self):
        with pytest.warns(UserWarning):
            eer = effective_error_rate([0.9, -0.2], 2, 2)
        assert 0 < eer.epsilon < 1

    def test_empty(self):
        with pytest.raises(ContractError):
            effective_error_rate([], 2, 2)


class TestVolumetric:
    def _records(self):
        return [
            FidelityRecord("a", 0.9, 0.9, 0.01, 1, 1, 1, 2, 4, shape=(2, 4)),
            FidelityRecord("b", 0.8, 0.8, 0.01, 1, 1, 1, 2, 4, shape=(2, 4)),
            FidelityRecord("c", 0.7, 0.7, 0.01, 1, 1, 1, 3, 8, shape=(3, 8)),
        ]

    def test_summary_rows(self):
        lines = volumetric_summary(self._records()).strip().splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("2,4,2,0.850000")
        assert lines[2].startswith("3,8,1,0.700000")

    def test_svg_cells(self):
        svg = render_volumetric_svg(self._records())
        assert svg.count('class="cell"') == 2
        assert svg.startswith("<svg") and svg.endswith("</svg>")

    def test_means_equal_numpy_mean(self):
        # The renderers average without numpy (a correctly rounded sum), and
        # the printed means are np.mean's.
        rng = np.random.default_rng(12)
        for size in [*range(1, 40), 64, 127, 128, 129, 200, 300, 517]:
            fs = list(rng.random(size) ** rng.integers(1, 9))
            recs = [FidelityRecord(str(i), f, f, 0.0, 1, 1, 1, 2, 4)
                    for i, f in enumerate(fs)]
            assert f",{np.mean(fs):.6f}," in volumetric_summary(recs)

    def test_shape_defaults_to_width_depth(self):
        recs = [FidelityRecord("a", 0.9, 0.9, 0.0, 1, 1, 1, 5, 7)]
        assert "5,7,1" in volumetric_summary(recs)
