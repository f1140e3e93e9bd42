import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import least_squares

from sunspin import analysis as an
from sunspin import model, protocols as pr


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

    def test_needs_five_distinct_sample_times(self):
        t = np.repeat([0.0, 0.1, 0.2, 0.3], 2)
        with pytest.raises(an.AnalysisError, match="at least 5 distinct"):
            an.fit_damped_sine(t, np.sin(2 * np.pi * 3 * t))


class TestSine:
    @pytest.mark.parametrize("t", [[0.1], [0.0, 0.1, 0.2], [0.0, 0.1, 0.1, 0.2, 0.2]],
                             ids=["one", "three", "three distinct"])
    def test_needs_four_distinct_sample_times(self, t):
        with pytest.raises(an.AnalysisError, match="at least 4"):
            an.fit_sine(t, np.linspace(0.2, 0.8, len(t)))

    def test_four_samples_fit(self):
        t = np.array([0.0, 0.1, 0.25, 0.3])
        fit = an.fit_sine(t, 0.5 + 0.3 * np.sin(2 * np.pi * 1.3 * t + 0.2),
                          frequency_hint=1.3)
        assert np.all(np.isfinite(list(fit.params.values())))

    @pytest.mark.parametrize("seed", range(12))
    def test_same_fit_as_the_sine_model_written_out(self, seed):
        # fit_sine runs the damped model at decay rate 0; the pure sine's
        # own residual and Jacobian from the same start give the same bits
        t, y, err = _noisy_damped_sine(seed=seed)
        errors = err if seed % 2 else None
        fit = an.fit_sine(t, y, errors=errors)
        ts, ys, w = an._fit_inputs(t, y, errors)
        a0, f0, phi0, _, c0 = an._best_start(ts, ys, w, an._frequency_candidates(ts, ys),
                                             [0.0])
        p, cov, rms, _, n_iter = an._lm(_sine_rj(ts, ys, w), [a0, f0, phi0, c0])
        an._canonicalize_sine(p)
        if errors is None:
            cov = cov * rms**2 * len(ts) / (len(ts) - 4)
        assert list(fit.params.values()) == p.tolist()
        assert fit.cov.tobytes() == cov.tobytes()
        assert fit.n_iter == n_iter


class TestStopRule:
    """``_lm`` ends converged on a small gradient, on a small step, or on a
    rejected step whose predicted cost reduction lies at the cost's
    rounding floor, and its fits land on MINPACK's optimum."""

    def test_rounding_level_stall_of_a_damped_rabi_fit_is_converged(self):
        # at the rounding floor every step is rejected; without the floor
        # test the damping climbed past its ceiling (29 iterations) and
        # the fit reported converged=False at its optimum
        t = np.linspace(1e-4, 0.35, 247)
        y = pr.rabi_scan((-2.5, -1.5), 70.0, model.FieldParams(960, -320), t,
                         lindblad=_criterion_2_channels("both")).population(-1.5)
        fit = an.fit_damped_sine(t, y, frequency_hint=70.0)
        assert fit.converged
        assert fit.n_iter <= 12
        assert fit["tau_s"] == pytest.approx(0.315521, rel=1e-6)

    def test_start_at_the_optimum_stops_on_the_floor_test(self):
        # a linear residual at its optimum p = 0, scaled so that the
        # rounding in its gradient lies above the gradient tolerance, and
        # p = 0 keeps every step large relative to p
        rng = np.random.default_rng(0)
        a = rng.standard_normal((50, 3))
        b = 1e6 * rng.standard_normal(50)
        b -= a @ np.linalg.lstsq(a, b, rcond=None)[0]
        assert np.abs(a.T @ b).max() > an.LM_TOL
        p, _, _, converged, n_iter = an._lm(lambda p: (a @ p - b, a), np.zeros(3))
        assert converged and n_iter == 1
        assert np.abs(p).max() < 1e-12

    def test_stall_above_the_floor_stops_unconverged(self):
        # a Jacobian of the wrong sign: no step lowers the cost, and each
        # predicts a reduction far above the rounding floor
        p, _, _, converged, _ = an._lm(
            lambda p: (1e3 * (p - 1.0), -1e3 * np.eye(1)), np.zeros(1))
        assert not converged
        assert p.tolist() == [0.0]

    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
    @pytest.mark.parametrize("seed", range(6))
    def test_damped_sine_lands_on_the_minpack_optimum(self, seed, weighted):
        t, y, err = _noisy_damped_sine(seed=seed)
        _assert_at_the_minpack_optimum(t, y, err if weighted else None, None)

    @pytest.mark.parametrize("omega", [70.0, 71.0])
    @pytest.mark.parametrize("channels", ["both", "scatter"])
    def test_damped_rabi_fit_lands_on_the_minpack_optimum(self, channels, omega):
        t = np.linspace(1e-4, 0.35, 247)
        y = pr.rabi_scan((-2.5, -1.5), omega, model.FieldParams(960.0, -320.0), t,
                         lindblad=_criterion_2_channels(channels)).population(-1.5)
        _assert_at_the_minpack_optimum(t, y, None, omega)


def _criterion_2_channels(channels):
    scatter = model.photon_scattering_channels()
    return {"both": scatter.merge(model.inhomogeneous_dephasing()),
            "scatter": scatter}[channels]


def _assert_at_the_minpack_optimum(t, y, errors, hint):
    """``fit_damped_sine`` converged, each fitted parameter within 1e-6 of
    its standard deviation of MINPACK's Levenberg-Marquardt (scipy's
    ``least_squares``) at its tightest tolerances, run on the fit's own
    weighted residual and Jacobian from the fit's own start."""
    fit = an.fit_damped_sine(t, y, errors=errors, frequency_hint=hint)
    assert fit.converged
    ts, ys, w = an._fit_inputs(t, y, errors)
    rj = an._damped_sine_rj(ts, ys, w)
    sol = least_squares(lambda p: rj(p)[0], an._best_start(ts, ys, w, *_grids(ts, ys, hint, True)),
                        jac=lambda p: rj(p)[1], method="lm",
                        xtol=1e-15, ftol=1e-15, gtol=1e-15)
    ref = sol.x.copy()
    an._canonicalize_sine(ref)
    sigma = fit.uncertainties
    for name, value in zip(("amplitude", "frequency_hz", "phase_rad", "decay_rate",
                            "offset"), ref):
        assert abs(fit[name] - value) <= 1e-6 * sigma[name], name


def _sine_rj(t, y, w):
    """Weighted residual and (n, 4) Jacobian of A sin(2 pi f t + phi) + c."""
    def rj(p):
        a, f, phi, c = p
        arg = an.TWO_PI * f * t + phi
        s, cs = np.sin(arg), np.cos(arg)
        jac = np.column_stack([s, a * cs * an.TWO_PI * t, a * cs, np.ones_like(t)])
        return (a * s + c - y) * w, jac * w[:, None]
    return rj


def _loop_start(t, y, w, f_cands, g_cands):
    """The start grid solved one point at a time by ``np.linalg.lstsq``:
    the first (f, g) of least weighted SSE, in frequency-major order, and
    its [A, f, phi, g, c]."""
    best = None
    for f0 in f_cands:
        if f0 <= 0:
            continue
        for g0 in g_cands:
            decay = np.exp(-g0 * t)
            basis = np.column_stack([decay * np.sin(2 * np.pi * f0 * t),
                                     decay * np.cos(2 * np.pi * f0 * t),
                                     np.ones_like(t)])
            coef, *_ = np.linalg.lstsq(basis * w[:, None], y * w, rcond=None)
            sse = np.sum(((basis @ coef - y) * w) ** 2)
            if best is None or sse < best[0]:
                best = (sse, [math.hypot(coef[0], coef[1]), f0,
                              math.atan2(coef[1], coef[0]), g0, coef[2]])
    return best[1]


def _grids(t, y, hint, damped):
    span = t[-1] - t[0]
    f_cands = ([hint] if hint else []) + an._frequency_candidates(t, y)
    g_cands = [0.0, 0.3 / span, 1.0 / span, 3.0 / span, 10.0 / span]
    return f_cands, g_cands if damped else [0.0]


def _assert_same_start(t, y, w, hint, damped):
    f_cands, g_cands = _grids(t, y, hint, damped)
    batched = an._best_start(t, y, w, f_cands, g_cands)
    looped = _loop_start(t, y, w, f_cands, g_cands)
    # the same grid point, and its linear parameters to rounding
    assert batched[1] == looped[1] and batched[3] == looped[3]
    np.testing.assert_allclose(batched, looped, rtol=1e-9, atol=1e-12)


class TestStartGrid:
    @settings(max_examples=40, deadline=None, database=None)
    @given(amplitude=st.floats(0.05, 1.0), freq=st.floats(5.0, 100.0),
           phase=st.floats(-np.pi, np.pi), tau=st.floats(0.02, 10.0),
           offset=st.floats(-0.5, 0.5), noise=st.sampled_from((0.0, 0.01, 0.1)),
           n=st.integers(8, 200), hinted=st.booleans(), weighted=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_batched_grid_picks_the_start_of_the_loop(self, amplitude, freq, phase,
                                                      tau, offset, noise, n, hinted,
                                                      weighted, seed):
        rng = np.random.default_rng(seed)
        t = np.sort(rng.uniform(0.0, 0.3, n))
        y = (amplitude * np.exp(-t / tau) * np.sin(2 * np.pi * freq * t + phase)
             + offset + noise * rng.standard_normal(n))
        w = 1.0 / rng.uniform(0.5, 2.0, n) if weighted else np.ones(n)
        hint = freq * rng.uniform(0.9, 1.1) if hinted else None
        for damped in (True, False):
            _assert_same_start(t, y, w, hint, damped)

    @pytest.mark.parametrize("channels", ["both", "scatter"])
    def test_batched_grid_on_the_criterion_2_scans(self, channels):
        durations = np.linspace(1e-4, 0.35, 247)
        y = pr.rabi_scan((-2.5, -1.5), 71.0, model.FieldParams(960.0, -320.0),
                         durations, lindblad=_criterion_2_channels(channels)).population(-1.5)
        _assert_same_start(durations, y, np.ones_like(y), 71.0, damped=True)

    def test_batched_grid_on_the_criterion_5_fringes(self):
        t_vals = np.linspace(0.0038, 0.0053, 121)
        res = pr.parallel_ramsey(t_vals, model.FieldParams(1000.0, -303.0),
                                 omega_hz=77.0)
        for m, hint in ((-1.5, 2213.0), (-3.5, 3425.0)):
            _assert_same_start(t_vals, res.population(m), np.ones_like(t_vals),
                               hint, damped=False)

    @pytest.mark.parametrize("seed", range(5))
    def test_underflowing_decays_on_noise_keep_the_loop_start(self, seed):
        # ~1000 s from 0, every decay rate above 0 underflows to exp(...) = 0,
        # so those bases have two zero columns
        rng = np.random.default_rng(seed)
        t = 1000.0 + np.sort(rng.uniform(0.0, 0.3, 60))
        y = 0.5 + 0.01 * rng.standard_normal(60)
        # a zero column's Householder vector is a unit one, so a projection
        # through it would fit the first samples exactly: make them outliers
        y[:2] += 0.3
        _assert_same_start(t, y, np.ones_like(t), None, damped=True)
        fit = an.fit_damped_sine(t, y)
        assert np.all(np.isfinite([fit[k] for k in ("amplitude", "frequency_hz",
                                                    "phase_rad", "offset")]))


def _noisy_damped_sine(n=60, seed=5):
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 0.3, n)
    y = (0.45 * np.exp(-t / 0.2) * np.sin(2 * np.pi * 31 * t + 0.4) + 0.5
         + rng.normal(0, 0.02, n))
    return t, y, rng.uniform(0.01, 0.03, n)


FITS = {"damped": an.fit_damped_sine, "sine": an.fit_sine}
# fits whose inputs _fit_inputs checks and sorts; y errors third
CHECKED_FITS = {**FITS, "phase_diffusion": an.fit_phase_diffusion}


class TestFitInputs:
    @pytest.mark.parametrize("fit", sorted(CHECKED_FITS))
    @pytest.mark.parametrize("bad", ["nan value", "inf value", "nan time",
                                     "zero error", "negative error",
                                     "nan error", "inf error"])
    def test_bad_inputs_raise_analysis_error(self, fit, bad, capfd):
        t, y, err = _noisy_damped_sine()
        where, what = bad.split()[1], {"nan": np.nan, "inf": np.inf, "zero": 0.0,
                                       "negative": -0.02}[bad.split()[0]]
        {"value": y, "time": t, "error": err}[where][7] = what
        with pytest.raises(an.AnalysisError, match="finite|positive"):
            CHECKED_FITS[fit](t, y, err)
        # rejected before LAPACK sees it: nothing printed
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("fit", sorted(CHECKED_FITS))
    @pytest.mark.parametrize("n_errors", [1, 3, 61])
    def test_errors_of_another_length_raise_analysis_error(self, fit, n_errors):
        t, y, _ = _noisy_damped_sine()
        with pytest.raises(an.AnalysisError, match="one per value"):
            CHECKED_FITS[fit](t, y, np.full(n_errors, 0.02))


class TestUncertainties:
    def test_unusable_variances_give_nan(self):
        fit = an.FitResult(params={}, cov=np.diag([4.0, 0.0, -1e-18, np.inf, np.nan]),
                           param_names=tuple("abcde"), residual_rms=0.0,
                           converged=False)
        sig = fit.uncertainties
        assert (sig["a"], sig["b"]) == (2.0, 0.0)
        assert all(np.isnan(sig[k]) for k in "cde")

    @pytest.mark.parametrize("fit", sorted(FITS))
    def test_flat_column_reports_no_uncertainty(self, fit):
        # a level the drive never reaches: nothing in the data fixes the
        # sine, so no parameter has an uncertainty (tau_s is infinite)
        t = np.linspace(0.0, 0.1, 40)
        sig = FITS[fit](t, np.zeros_like(t)).uncertainties
        assert all(np.isnan(v) for v in sig.values())


class TestOdrInputs:
    @pytest.mark.parametrize("bad", ["nan y", "inf y", "negative y",
                                     "nan x", "inf x", "negative x"])
    def test_bad_errors_raise_analysis_error(self, bad):
        t, y, err = _noisy_damped_sine()
        sx, sy = np.full_like(t, 1e-5), err.copy()
        what, where = bad.split()
        {"x": sx, "y": sy}[where][7] = {"nan": np.nan, "inf": np.inf,
                                       "negative": -0.02}[what]
        with pytest.raises(an.AnalysisError, match="non-negative and finite"):
            an.fit_sine_odr(t, y, sx, sy)

    def test_values_and_times_of_one_length(self):
        t, y, err = _noisy_damped_sine()
        with pytest.raises(an.AnalysisError, match="one length"):
            an.fit_sine_odr(t, y[:-1], np.full_like(t, 1e-5), err)

    @pytest.mark.parametrize("where", ["x", "y"])
    def test_errors_of_another_length_raise_analysis_error(self, where):
        # ODR would fit with them anyway, to another, unconverged result
        t, y, err = _noisy_damped_sine()
        errors = {"x": np.full_like(t, 1e-5), "y": err}
        errors[where] = errors[where][:3]
        with pytest.raises(an.AnalysisError, match="one per value"):
            an.fit_sine_odr(t, y, errors["x"], errors["y"])


class TestSampleOrder:
    @pytest.mark.parametrize("fit", sorted(CHECKED_FITS))
    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
    def test_any_order_fits_bit_identically(self, fit, weighted):
        t, y, err = _noisy_damped_sine()
        errors = err if weighted else None
        ref = CHECKED_FITS[fit](t, y, errors)
        rng = np.random.default_rng(9)
        for order in (np.arange(len(t))[::-1], rng.permutation(len(t))):
            got = CHECKED_FITS[fit](t[order], y[order],
                                    err[order] if weighted else None)
            assert got.params == ref.params
            assert got.cov.tobytes() == ref.cov.tobytes()
            assert got.n_iter == ref.n_iter


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

    def test_zero_y_error_counts_as_one(self):
        rng = np.random.default_rng(53)
        t = np.linspace(0.0038, 0.0053, 40)
        y = 0.25 - 0.25 * np.cos(2 * np.pi * 2213 * t + 0.4) + rng.normal(0, 0.01, 40)
        sy = np.full(40, 0.01)
        sy[5] = 0.0
        fit = an.fit_sine_odr(t, y, np.zeros(40), sy)
        ones = an.fit_sine_odr(t, y, np.zeros(40), np.where(sy > 0, sy, 1.0))
        assert fit.params == ones.params

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

    @pytest.mark.parametrize("errors", [0.0, np.r_[0.02, np.nan, np.full(28, 0.02)]],
                             ids=["zero", "nan"])
    def test_unusable_measurement_errors_rejected(self, errors, capfd, monkeypatch):
        def scorer(*args):
            raise AssertionError("errors reached the fringe fits")

        # rejected by phase_noise_estimate itself, before any fit or LAPACK
        # call (a LAPACK error would print): the scorer is never reached
        monkeypatch.setattr(an, "_moment_scorer", scorer)
        t = np.linspace(0, 0.02, 30)
        y = 0.5 + 0.4 * np.cos(2 * np.pi * 200 * t)
        with pytest.raises(an.AnalysisError, match="errors must be positive and finite"):
            an.phase_noise_estimate(t, y, errors)
        assert capfd.readouterr() == ("", "")

    def test_errors_of_another_length_rejected(self):
        t = np.linspace(0, 0.02, 30)
        y = 0.5 + 0.4 * np.cos(2 * np.pi * 200 * t)
        with pytest.raises(an.AnalysisError, match="one per value"):
            an.phase_noise_estimate(t, y, np.full(3, 0.02))

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

    def test_values_and_times_of_one_length(self):
        with pytest.raises(an.AnalysisError, match="one length"):
            an.fit_phase_diffusion(np.linspace(0.005, 0.1, 8), np.full(7, 0.04))

    def test_one_interrogation_time_rejected(self, capfd):
        # a line through one time is not determined: rejected before
        # the normal matrix is inverted
        with pytest.raises(an.AnalysisError, match="2 distinct interrogation times"):
            an.fit_phase_diffusion([0.1, 0.1, 0.1], [0.2, 0.3, 0.25])
        assert capfd.readouterr() == ("", "")


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
