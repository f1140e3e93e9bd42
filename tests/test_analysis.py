import numpy as np
import pytest

from sunspin import analysis as an


class TestDampedSine:
    def test_exact_recovery(self):
        t = np.linspace(0, 0.3, 240)
        y = 0.48 * np.exp(-t / 0.298) * np.sin(2 * np.pi * 71 * t + 0.3) + 0.5
        fit = an.fit_damped_sine(t, y)
        assert fit.converged
        assert fit["tau_s"] == pytest.approx(0.298, rel=1e-6)
        assert fit["frequency_hz"] == pytest.approx(71.0, rel=1e-6)
        assert fit["amplitude"] == pytest.approx(0.48, rel=1e-6)
        assert fit["phase_rad"] == pytest.approx(0.3, abs=1e-6)
        assert fit["offset"] == pytest.approx(0.5, abs=1e-8)

    def test_pulls_normally_distributed(self):
        rng = np.random.default_rng(51)
        t = np.linspace(0, 0.3, 240)
        truth = 0.48 * np.exp(-t / 0.298) * np.sin(2 * np.pi * 71 * t + 0.3) + 0.5
        sigma = 0.01
        pulls = []
        for _ in range(80):
            fit = an.fit_damped_sine(t, truth + rng.normal(0, sigma, len(t)),
                                     errors=np.full(len(t), sigma))
            pulls.append((fit["frequency_hz"] - 71.0)
                         / fit.uncertainties["frequency_hz"])
        pulls = np.array(pulls)
        # normality at the moments level (chi^2-style check)
        assert abs(pulls.mean()) < 3 / np.sqrt(len(pulls))
        assert pulls.std(ddof=1) == pytest.approx(1.0, abs=0.35)

    def test_needs_enough_points(self):
        with pytest.raises(an.AnalysisError):
            an.fit_damped_sine([0, 1, 2], [0, 1, 0])


class TestSineOdr:
    def test_zero_x_errors_reduces_to_ols(self):
        rng = np.random.default_rng(52)
        t = np.linspace(0.0038, 0.0053, 40)
        y = (0.25 - 0.25 * np.cos(2 * np.pi * 2213 * t + 0.4)
             + rng.normal(0, 0.01, 40))
        ols = an.fit_sine(t, y, errors=np.full(40, 0.01))
        odr = an.fit_sine_odr(t, y, np.zeros(40), np.full(40, 0.01))
        for key in ("amplitude", "frequency_hz", "phase_rad", "offset"):
            assert odr[key] == pytest.approx(ols[key], abs=1e-8)

    def test_recovers_frequency_with_jittered_times(self):
        rng = np.random.default_rng(53)
        t_nom = np.linspace(0.0038, 0.0053, 60)
        t_true = t_nom + rng.normal(0, 1.5e-5, 60)
        y = (0.25 - 0.25 * np.cos(2 * np.pi * 2213 * t_true + 0.4)
             + rng.normal(0, 0.004, 60))
        fit = an.fit_sine_odr(t_nom, y, np.full(60, 1.5e-5),
                              np.full(60, 0.004))
        sigma = fit.uncertainties["frequency_hz"]
        assert abs(fit["frequency_hz"] - 2213) < 3 * sigma

    def test_degenerate_spacing_rejected(self):
        with pytest.raises(an.AnalysisError):
            an.fit_sine_odr([1, 1, 1, 1], [0, 1, 0, 1],
                            np.zeros(4), np.ones(4))

    def test_simulated_fringe_frequency_to_one_percent(self):
        # ODR fit of a simulated single-pair Ramsey fringe recovers the
        # configured detuning
        from sunspin import model, protocols as pr
        fields = model.FieldParams(b_hz=960.0, q_hz=190.0)
        t_vals = np.linspace(0.0005, 0.0805, 65)
        res = pr.ramsey((-3.5, -2.5), t_vals, fields, 93.0, detuning_hz=25.0)
        fit = an.fit_sine_odr(t_vals, res.population(-2.5),
                              np.full(65, 1e-6), np.full(65, 1e-3))
        assert fit["frequency_hz"] == pytest.approx(25.0, rel=0.01)


class TestPhaseNoiseEstimate:
    def test_recovers_injected_noise(self):
        # the estimator tracks the realized per-dataset noise; this seed's
        # realized sample std is 0.358 for injected sigma = 0.35
        t = np.linspace(0, 0.04, 80)
        rng = np.random.default_rng(4)
        y = an.synthesize_fringe(t, 200.0, 1.0, 0.35, np.full(80, 0.02),
                                 0.063, rng)
        out = an.phase_noise_estimate(t, y, np.full(80, 0.02),
                                      n_replicas=200, seed=3)
        assert 0.30 <= out["phase_sigma_rad"] <= 0.40
        assert out["phase_sigma_ci"][0] <= 0.35 <= out["phase_sigma_ci"][1]
        assert out["contrast"] == pytest.approx(1.0, abs=0.15)

    def test_noiseless_contrast_equals_fitted_amplitude(self):
        t = np.linspace(0, 0.02, 40)
        y = 0.5 + 0.4 * np.cos(2 * np.pi * 200 * t + 0.2)
        out = an.phase_noise_estimate(t, y, np.full(40, 1e-3),
                                      n_replicas=100, seed=4)
        assert out["phase_sigma_rad"] == pytest.approx(0.0, abs=0.05)
        assert out["contrast"] == pytest.approx(out["data_fit_amplitude_pp"],
                                                abs=0.02)
        assert out["data_fit_amplitude_pp"] == pytest.approx(0.8, abs=1e-6)

    def test_full_randomization(self):
        t = np.linspace(0, 0.02, 40)
        rng = np.random.default_rng(9)
        y = an.synthesize_fringe(t, 200.0, 1.0, 8.0, np.full(40, 0.02),
                                 0.0, rng)
        out = an.phase_noise_estimate(t, y, np.full(40, 0.02),
                                      n_replicas=100, seed=4,
                                      sigma_grid=np.linspace(0, 3, 16))
        assert out["phase_sigma_rad"] > 1.0
        assert out["data_residual_rms"] > 0.2

    @pytest.mark.parametrize("pulse_area_sigma", [0.0, 0.063])
    def test_grid_z2_equals_per_point_fit(self, pulse_area_sigma):
        # every grid point is scored on the one block of draws taken from
        # the seed; rebuild each point's replicas here and fit them by
        # explicit least squares
        t = np.linspace(0, 0.02, 30)
        err = np.full(30, 0.03)
        y = an.synthesize_fringe(t, 180.0, 0.8, 0.3, err, 0.05,
                                 np.random.default_rng(5), phase0=0.4)
        n_replicas, seed = 24, 6
        z = np.random.default_rng(seed).standard_normal((n_replicas, 4, 30))
        c_grid = np.array([0.0, 0.35, 0.75, 1.1])
        s_grid = np.array([0.0, 0.3, 0.7, 1.4])

        fit = an.fit_sine(t, y, errors=err)
        arg = 2 * np.pi * fit["frequency_hz"] * t
        basis = np.column_stack([np.sin(arg), np.cos(arg), np.ones_like(t)])
        w = 1.0 / err

        def moments(rows):
            coef, *_ = np.linalg.lstsq(basis * w[:, None], (rows * w).T,
                                       rcond=None)
            resid = basis @ coef - rows.T
            return (2 * np.hypot(coef[0], coef[1]),
                    np.sqrt(np.mean(resid**2, axis=0)))

        amp_data, rms_data = (v[0] for v in moments(y[None]))
        th1 = np.pi / 2 + pulse_area_sigma * z[:, 1]
        th2 = np.pi / 2 + pulse_area_sigma * z[:, 2]
        expected = np.empty((len(c_grid), len(s_grid)))
        for i, c in enumerate(c_grid):
            for k, s in enumerate(s_grid):
                phase = arg + fit["phase_rad"] + s * z[:, 0]
                replicas = (fit["offset"]
                            - 0.5 * c * np.sin(th1) * np.sin(th2) * np.cos(phase)
                            + 0.5 * c * np.cos(th1) * np.cos(th2)
                            + err * z[:, 3])
                expected[i, k] = sum(
                    ((v.mean() - d) / (v.std(ddof=1) + 1e-12)) ** 2
                    for v, d in zip(moments(replicas), (amp_data, rms_data)))

        amp, rms, score = an._moment_scorer(t, y, err, pulse_area_sigma, z)
        assert (amp, rms) == pytest.approx((amp_data, rms_data), rel=1e-12)
        z2 = score(c_grid, s_grid)
        np.testing.assert_allclose(z2, expected, rtol=1e-9, atol=0)
        out = an.phase_noise_estimate(t, y, err, pulse_area_sigma, n_replicas,
                                      seed, contrast_grid=c_grid,
                                      sigma_grid=s_grid, refine=False)
        i, k = np.unravel_index(np.argmin(expected), expected.shape)
        assert (out["contrast"], out["phase_sigma_rad"]) == (c_grid[i], s_grid[k])
        assert out["match_z2"] == z2.min()

    def test_point_on_both_grids_scores_identically(self):
        t = np.linspace(0, 0.04, 60)
        err = np.full(60, 0.02)
        y = an.synthesize_fringe(t, 150.0, 0.9, 0.3, err, 0.05,
                                 np.random.default_rng(12))
        z = np.random.default_rng(13).standard_normal((80, 4, 60))
        *_, score = an._moment_scorer(t, y, err, 0.05, z)
        coarse = (np.linspace(0.0, 1.2, 5), np.linspace(0.0, 1.5, 4))
        fine = (np.linspace(0.6, 1.2, 7), np.linspace(0.5, 1.0, 7))
        z2_coarse, z2_fine = score(*coarse), score(*fine)
        shared = [((i, k), (p, q))
                  for i, c in enumerate(coarse[0]) for p, c2 in enumerate(fine[0])
                  if c == c2
                  for k, s in enumerate(coarse[1]) for q, s2 in enumerate(fine[1])
                  if s == s2]
        assert len(shared) >= 4
        for coarse_ik, fine_pq in shared:
            assert z2_coarse[coarse_ik] == z2_fine[fine_pq]
            c, s = coarse[0][coarse_ik[0]], coarse[1][coarse_ik[1]]
            assert score([c], [s])[0, 0] == z2_coarse[coarse_ik]

    @pytest.mark.parametrize("n_replicas", [0, 1])
    def test_too_few_replicas_rejected(self, n_replicas):
        t = np.linspace(0, 0.02, 30)
        y = 0.5 + 0.4 * np.cos(2 * np.pi * 200 * t)
        with pytest.raises(an.AnalysisError):
            an.phase_noise_estimate(t, y, 0.02, n_replicas=n_replicas)

    def test_negative_noise_scales_rejected(self):
        t = np.linspace(0, 0.02, 30)
        y = 0.5 + 0.4 * np.cos(2 * np.pi * 200 * t)
        with pytest.raises(an.AnalysisError):
            an.phase_noise_estimate(t, y, 0.02, pulse_area_sigma=-0.1)
        with pytest.raises(an.AnalysisError):
            an.phase_noise_estimate(t, y, np.r_[-0.02, np.full(29, 0.02)])

    def test_self_consistency_coverage(self):
        # applied to data it generated, the accepted interval covers the
        # truth in at least 90 % of trials
        t = np.linspace(0, 0.04, 60)
        rng = np.random.default_rng(77)
        hits = 0
        n_trials = 20
        for _ in range(n_trials):
            y = an.synthesize_fringe(t, 150.0, 0.9, 0.3, np.full(60, 0.02),
                                     0.05, rng)
            out = an.phase_noise_estimate(
                t, y, np.full(60, 0.02), n_replicas=80,
                seed=int(rng.integers(1 << 31)),
                sigma_grid=np.linspace(0, 0.9, 10))
            lo, hi = out["phase_sigma_ci"]
            hits += lo - 1e-9 <= 0.3 <= hi + 1e-9
        assert hits >= 0.9 * n_trials


class TestPhaseDiffusion:
    def test_flat_line_when_no_diffusion(self):
        t = np.linspace(0.005, 0.1, 8)
        fit = an.fit_phase_diffusion(t, np.full(8, 0.04))
        assert fit["diffusion_rad2_per_s"] == pytest.approx(0.0, abs=1e-9)
        assert fit["var0_rad2"] == pytest.approx(0.04)

    def test_negative_floor_clipped_and_flagged(self):
        t = np.array([0.01, 0.05, 0.1])
        var = 20.0 * t - 0.01
        fit = an.fit_phase_diffusion(t, var)
        assert fit["var0_rad2"] == 0.0
        assert fit.meta["floor_clipped"]

    def test_recovers_tls_on_coefficient(self):
        rng = np.random.default_rng(55)
        t = np.linspace(0.005, 0.1, 12)
        truth = 0.0245 + 19.6 * t
        n = 1000
        var_meas = truth * rng.chisquare(n - 1, size=12) / (n - 1)
        errs = var_meas * np.sqrt(2 / (n - 1))
        fit = an.fit_phase_diffusion(t, var_meas, variance_errors=errs)
        sqrt_d_ms = np.sqrt(fit["diffusion_rad2_per_s"] / 1000)
        assert sqrt_d_ms == pytest.approx(0.14, abs=0.01)


def qb_forward_phases(q_hz, b_hz, t_open, mean_delta1_hz, mean_delta2_hz):
    """Dual-interferometer phases phi_i = 2 pi T (x_i - delta_i) with
    x_1 = 4q - b, x_2 = 8q - b (Hz): the forward model that
    :func:`~sunspin.analysis.reconstruct_qb` inverts."""
    x1 = 4.0 * q_hz - b_hz
    x2 = 8.0 * q_hz - b_hz
    return (2 * np.pi * t_open * (x1 - mean_delta1_hz),
            2 * np.pi * t_open * (x2 - mean_delta2_hz))


class TestReconstructQB:
    def test_roundtrip_exact(self):
        rng = np.random.default_rng(56)
        for _ in range(50):
            q, b = rng.normal(0, 400), rng.normal(800, 300)
            t_open = rng.uniform(1e-3, 0.05)
            d1, d2 = rng.normal(0, 5, 2)
            phi1, phi2 = qb_forward_phases(q, b, t_open, d1, d2)
            out = an.reconstruct_qb(phi1, phi2, t_open, d1, d2)
            assert out["q_hz"] == pytest.approx(q, abs=1e-10 * max(1, abs(q)))
            assert out["b_hz"] == pytest.approx(b, abs=1e-9 * max(1, abs(b)))

    def test_zero_fields_zero_phases(self):
        phi1, phi2 = qb_forward_phases(0.0, 0.0, 0.004, 0.0, 0.0)
        assert phi1 == phi2 == 0.0

    def test_reference_noise_level_precision(self):
        # mid-fringe phase uncertainty of 0.128 rad at T = 4 ms
        out = an.reconstruct_qb(*qb_forward_phases(-303., 1000., 0.004,
                                                   1.0, 1.0),
                                0.004, 1.0, 1.0, phi_sigmas=(0.128, 0.128))
        assert 1.6 <= out["q_sigma_hz"] <= 2.0       # ~ h x 1.8 Hz
        assert 10.0 <= out["b_sigma_hz"] <= 12.5     # ~ h x 11 Hz

    def test_fringe_orders(self):
        q, b, t_open = -303.0, 1000.0, 0.004
        phi1, phi2 = qb_forward_phases(q, b, t_open, 1.0, 1.0)
        wrap = lambda p: (p + np.pi) % (2 * np.pi) - np.pi
        n1 = round((phi1 - wrap(phi1)) / (2 * np.pi))
        n2 = round((phi2 - wrap(phi2)) / (2 * np.pi))
        out = an.reconstruct_qb(wrap(phi1), wrap(phi2), t_open, 1.0, 1.0,
                                fringe_orders=(n1, n2))
        assert out["q_hz"] == pytest.approx(q, abs=1e-9)

    def test_t_zero_rejected(self):
        with pytest.raises(an.AnalysisError):
            an.reconstruct_qb(0.1, 0.2, 0.0, 0.0, 0.0)


class TestDeterminism:
    def test_fitters_deterministic(self):
        t = np.linspace(0, 0.1, 64)
        rng = np.random.default_rng(61)
        y = np.sin(2 * np.pi * 40 * t) + rng.normal(0, 0.1, 64)
        f1 = an.fit_damped_sine(t, y)
        f2 = an.fit_damped_sine(t, y)
        assert f1.params == f2.params

    def test_phase_noise_estimate_deterministic(self):
        t = np.linspace(0, 0.02, 30)
        y = an.synthesize_fringe(t, 200.0, 0.8, 0.2, np.full(30, 0.02),
                                 0.05, np.random.default_rng(3))
        o1 = an.phase_noise_estimate(t, y, np.full(30, 0.02), n_replicas=50,
                                     seed=8)
        o2 = an.phase_noise_estimate(t, y, np.full(30, 0.02), n_replicas=50,
                                     seed=8)
        assert o1 == o2
