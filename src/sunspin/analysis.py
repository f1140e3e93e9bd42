"""Estimation pipeline: sinusoid fits, trial-noisy-model contrast and
phase-noise estimation, and (q, b) reconstruction from dual phases.

The damped-sine family is fitted with a Levenberg-Marquardt damped
Gauss-Newton using analytic Jacobians and a deterministic multi-start
grid; orthogonal-distance regression wraps ODRPACK.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.odr as odr_pack

TWO_PI = 2.0 * np.pi
# phase_noise_estimate accepts a grid point when its z² lies below the
# 95 % quantile of a chi-square with 2 degrees of freedom (two moments).
Z2_ACCEPT = 6.18
# Added to a replica standard deviation before dividing by it.
STD_GUARD = 1e-12


class AnalysisError(ValueError):
    pass


@dataclass
class FitResult:
    params: dict[str, float]
    cov: np.ndarray
    param_names: tuple[str, ...]
    residual_rms: float
    converged: bool
    n_iter: int = 0
    meta: dict = field(default_factory=dict)

    @property
    def uncertainties(self) -> dict[str, float]:
        sig = np.sqrt(np.clip(np.diag(self.cov), 0.0, None))
        return dict(zip(self.param_names, sig))

    def __getitem__(self, name: str) -> float:
        return self.params[name]


# ---------------------------------------------------------------------------
# Levenberg-Marquardt core (analytic Jacobians, sinusoid family)
# ---------------------------------------------------------------------------

def _lm(residual_jac, p0, max_iter=300, xtol=1e-12, gtol=1e-12):
    """Damped Gauss-Newton; residual_jac(p) -> (r, J) with r weighted."""
    p = np.asarray(p0, dtype=float)
    r, jac = residual_jac(p)
    cost = 0.5 * r @ r
    lam = 1e-3 * max(np.sum(jac**2, axis=0).max(), 1e-30)
    n_iter = 0
    converged = False
    for n_iter in range(1, max_iter + 1):
        jtj = jac.T @ jac
        g = jac.T @ r
        if np.max(np.abs(g)) < gtol:
            converged = True
            break
        try:
            step = np.linalg.solve(jtj + lam * np.eye(len(p)), -g)
        except np.linalg.LinAlgError:
            lam *= 10
            continue
        p_new = p + step
        r_new, jac_new = residual_jac(p_new)
        cost_new = 0.5 * r_new @ r_new
        if cost_new < cost:
            rel = np.max(np.abs(step) / np.maximum(np.abs(p_new), 1e-30))
            p, r, jac, cost = p_new, r_new, jac_new, cost_new
            lam = max(lam * 0.3, 1e-14)
            if rel < xtol:
                converged = True
                break
        else:
            lam *= 10
            if lam > 1e16:
                break
    jtj = jac.T @ jac
    try:
        cov = np.linalg.inv(jtj)
    except np.linalg.LinAlgError:
        cov = np.full((len(p), len(p)), np.nan)
    return p, cov, float(np.sqrt(np.mean(r**2))), converged, n_iter


def _canonicalize_sine(p):
    """In place: amplitude p[0] made positive, phase p[2] wrapped to [-pi, pi)."""
    if p[0] < 0:
        p[0], p[2] = -p[0], p[2] + np.pi
    p[2] = (p[2] + np.pi) % TWO_PI - np.pi


def _damped_sine_rj(t, y, w):
    def rj(p):
        a, f, phi, g, c = p
        decay = np.exp(-g * t)
        arg = TWO_PI * f * t + phi
        s, cs = np.sin(arg), np.cos(arg)
        model = a * decay * s + c
        r = (model - y) * w
        jac = np.column_stack([
            decay * s,
            a * decay * cs * TWO_PI * t,
            a * decay * cs,
            -a * t * decay * s,
            np.ones_like(t),
        ]) * w[:, None]
        return r, jac
    return rj


def _frequency_candidates(t, y, n=5):
    """FFT peaks on a uniform resampling of (t, y), capped at the data Nyquist.

    The cap rejects the exact super-Nyquist alias of a sampled sinusoid,
    which on a uniform grid fits as well as the true frequency.
    """
    n_grid = max(64, 4 * len(t))
    tg = np.linspace(t[0], t[-1], n_grid)
    yg = np.interp(tg, t, y - np.mean(y))
    spec = np.abs(np.fft.rfft(yg * np.hanning(n_grid)))
    freqs = np.fft.rfftfreq(n_grid, tg[1] - tg[0])
    nyquist = 0.5 / np.median(np.diff(t))
    order = np.argsort(spec[1:])[::-1] + 1
    cands = []
    for idx in order:
        f = freqs[idx]
        if f > nyquist * (1 + 1e-9):
            continue
        if all(abs(f - c) > 0.25 * max(c, 1e-12) for c in cands):
            cands.append(f)
        if len(cands) >= n:
            break
    return cands or [1.0 / (t[-1] - t[0])]


def fit_damped_sine(times, values, errors=None, frequency_hint=None) -> FitResult:
    """A e^{-t/tau} sin(2 pi f t + phi) + c, weighted least squares.

    Multi-start over an FFT-seeded frequency grid and a decay-rate grid
    avoids local minima; within each start the linear parameters are
    solved exactly before the LM refinement.
    """
    t = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=float)
    if len(t) < 8:
        raise AnalysisError("need at least 8 samples")
    span = t[-1] - t[0]
    w = np.ones_like(y) if errors is None else 1.0 / np.asarray(errors, dtype=float)

    f_cands = ([frequency_hint] if frequency_hint else []) + _frequency_candidates(t, y)
    g_cands = [0.0, 0.3 / span, 1.0 / span, 3.0 / span, 10.0 / span]
    best = None
    for f0 in f_cands:
        if f0 <= 0:
            continue
        for g0 in g_cands:
            decay = np.exp(-g0 * t)
            basis = np.column_stack([decay * np.sin(TWO_PI * f0 * t),
                                     decay * np.cos(TWO_PI * f0 * t),
                                     np.ones_like(t)])
            coef, *_ = np.linalg.lstsq(basis * w[:, None], y * w, rcond=None)
            resid = basis @ coef - y
            sse = np.sum((resid * w) ** 2)
            if best is None or sse < best[0]:
                a0 = math.hypot(coef[0], coef[1])
                phi0 = math.atan2(coef[1], coef[0])
                best = (sse, [a0, f0, phi0, g0, coef[2]])
    p, cov, rms, converged, n_iter = _lm(_damped_sine_rj(t, y, w), best[1])
    _canonicalize_sine(p)
    if errors is None and len(t) > 5:
        cov = cov * rms**2 * len(t) / max(len(t) - 5, 1)
    tau = 1.0 / p[3] if p[3] > 0 else np.inf
    # delta-method variance for tau = 1/g
    var_tau = cov[3, 3] / p[3] ** 4 if p[3] > 0 else np.inf
    params = {"amplitude": p[0], "frequency_hz": p[1], "phase_rad": p[2],
              "decay_rate": p[3], "offset": p[4], "tau_s": tau}
    cov_full = np.zeros((6, 6))
    cov_full[:5, :5] = cov
    cov_full[5, 5] = var_tau
    return FitResult(params=params, cov=cov_full,
                     param_names=("amplitude", "frequency_hz", "phase_rad",
                                  "decay_rate", "offset", "tau_s"),
                     residual_rms=rms, converged=converged, n_iter=n_iter)


def fit_sine(times, values, errors=None, frequency_hint=None) -> FitResult:
    """Pure sinusoid (decay rate pinned to zero)."""
    t = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=float)
    w = np.ones_like(y) if errors is None else 1.0 / np.asarray(errors, dtype=float)
    f_cands = ([frequency_hint] if frequency_hint else []) + _frequency_candidates(t, y)
    best = None
    for f0 in f_cands:
        if f0 <= 0:
            continue
        basis = np.column_stack([np.sin(TWO_PI * f0 * t),
                                 np.cos(TWO_PI * f0 * t), np.ones_like(t)])
        coef, *_ = np.linalg.lstsq(basis * w[:, None], y * w, rcond=None)
        sse = np.sum(((basis @ coef - y) * w) ** 2)
        if best is None or sse < best[0]:
            a0 = math.hypot(coef[0], coef[1])
            best = (sse, [a0, f0, math.atan2(coef[1], coef[0]), coef[2]])

    def rj(p):
        a, f, phi, c = p
        arg = TWO_PI * f * t + phi
        s, cs = np.sin(arg), np.cos(arg)
        r = (a * s + c - y) * w
        jac = np.column_stack([s, a * cs * TWO_PI * t, a * cs,
                               np.ones_like(t)]) * w[:, None]
        return r, jac

    p, cov, rms, converged, n_iter = _lm(rj, best[1])
    _canonicalize_sine(p)
    if errors is None and len(t) > 4:
        cov = cov * rms**2 * len(t) / max(len(t) - 4, 1)
    return FitResult(params={"amplitude": p[0], "frequency_hz": p[1],
                             "phase_rad": p[2], "offset": p[3]},
                     cov=cov,
                     param_names=("amplitude", "frequency_hz", "phase_rad",
                                  "offset"),
                     residual_rms=rms, converged=converged, n_iter=n_iter)


def fit_sine_odr(times, values, x_errors, y_errors,
                 frequency_hint=None) -> FitResult:
    """Orthogonal-distance regression of a pure sinusoid.

    Minimizes combined normalized x/y residuals; with all x errors zero
    it reduces to ordinary least squares.
    """
    t = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=float)
    sx = np.asarray(x_errors, dtype=float)
    sy = np.asarray(y_errors, dtype=float)
    if len(np.unique(t)) < 4:
        raise AnalysisError("degenerate x spacing")
    init = fit_sine(t, y, errors=sy if np.any(sy > 0) else None,
                    frequency_hint=frequency_hint)
    beta0 = [init["amplitude"], init["frequency_hz"], init["phase_rad"],
             init["offset"]]

    def model(beta, x):
        return beta[0] * np.sin(TWO_PI * beta[1] * x + beta[2]) + beta[3]

    ols_mode = not np.any(sx > 0)
    data = odr_pack.RealData(t, y, sx=None if ols_mode else sx,
                             sy=np.where(sy > 0, sy, 1.0))
    problem = odr_pack.ODR(data, odr_pack.Model(model), beta0=beta0)
    if ols_mode:
        problem.set_job(fit_type=2)  # ordinary least squares
    out = problem.run()
    p = out.beta.copy()
    _canonicalize_sine(p)
    resid = model(p, t) - y
    converged = any(code in out.stopreason[0].lower()
                    for code in ("convergence", "sum of squares"))
    return FitResult(params={"amplitude": p[0], "frequency_hz": p[1],
                             "phase_rad": p[2], "offset": p[3]},
                     cov=out.cov_beta * out.res_var,
                     param_names=("amplitude", "frequency_hz", "phase_rad",
                                  "offset"),
                     residual_rms=float(np.sqrt(np.mean(resid**2))),
                     converged=converged,
                     meta={"stopreason": out.stopreason})


# ---------------------------------------------------------------------------
# trial-noisy-model contrast / phase-noise estimation
# ---------------------------------------------------------------------------

def _ramsey_point(contrast, phase, theta1, theta2, offset=0.5):
    """Two-pulse interferometer output with explicit pulse areas."""
    return (offset
            - 0.5 * contrast * np.sin(theta1) * np.sin(theta2) * np.cos(phase)
            + 0.5 * contrast * np.cos(theta1) * np.cos(theta2))


def synthesize_fringe(times, frequency_hz, contrast, phase_sigma,
                      measurement_errors, pulse_area_sigma, rng,
                      phase0: float = 0.0, offset: float = 0.5):
    """One synthetic single-shot-per-point fringe dataset."""
    t = np.asarray(times, dtype=float)
    n = len(t)
    dphi = rng.normal(0.0, phase_sigma, size=n) if phase_sigma > 0 else 0.0
    th1 = np.pi / 2 + rng.normal(0.0, pulse_area_sigma, size=n)
    th2 = np.pi / 2 + rng.normal(0.0, pulse_area_sigma, size=n)
    y = _ramsey_point(contrast, TWO_PI * frequency_hz * t + phase0 + dphi,
                      th1, th2, offset)
    return y + rng.normal(0.0, measurement_errors, size=n)


def _moment_scorer(t, y, err, pulse_area_sigma, z):
    """The data's fringe moments and a z² scorer on fixed replica draws.

    Returns ``(amp_data, rms_data, score)``.  ``score(c_grid, s_grid)``
    is the (len(c_grid), len(s_grid)) array of z² over the grid, every
    point scored on the same replicas built from ``z`` (see
    :func:`phase_noise_estimate`).
    """
    data_fit = fit_sine(t, y, errors=err)
    arg = TWO_PI * data_fit["frequency_hz"] * t
    phase = arg + data_fit["phase_rad"]
    # Fixed-frequency linear fringe fit (sin, cos, const), applied
    # identically to the data and to every replica (one per row).
    basis = np.column_stack([np.sin(arg), np.cos(arg), np.ones_like(t)])
    w = 1.0 / err
    pinv_t = np.linalg.pinv(basis * w[:, None]).T

    def fringe_fit(rows):
        """(coefficients, residuals) of each row."""
        coef = (rows * w) @ pinv_t
        return coef, coef @ basis.T - rows

    coef, resid = fringe_fit(y)
    amp_data = 2.0 * math.hypot(coef[0], coef[1])
    rms_data = math.sqrt(np.mean(resid**2))

    # A replica is base + c * g_s, with base the offset plus measurement
    # noise and g_s the :func:`_ramsey_point` fringe at contrast 1 and
    # offset 0.  The contrast c enters linearly, so the replica's
    # coefficients are k0 + c k_s and its mean squared residual is
    # c² a + 2 c b + d.
    th1 = np.pi / 2 + pulse_area_sigma * z[:, 1]
    th2 = np.pi / 2 + pulse_area_sigma * z[:, 2]
    sin_pair = np.sin(th1) * np.sin(th2)
    cos_pair = np.cos(th1) * np.cos(th2)
    k0, r0 = fringe_fit(data_fit["offset"] + err * z[:, 3])
    d = np.mean(r0**2, axis=1)

    def z2_of(values, target):
        """Squared standardized distance of the replica mean from the data."""
        return ((values.mean(axis=1) - target)
                / (values.std(axis=1, ddof=1) + STD_GUARD)) ** 2

    def score(c_grid, s_grid):
        c = np.asarray(c_grid, dtype=float)[:, None]
        z2 = np.empty((c.shape[0], len(s_grid)))
        for col, s in enumerate(s_grid):
            g = 0.5 * (cos_pair - sin_pair * np.cos(phase + s * z[:, 0]))
            ks, rs = fringe_fit(g)
            a = np.mean(rs**2, axis=1)
            b = np.mean(r0 * rs, axis=1)
            amps = 2.0 * np.hypot(k0[:, 0] + c * ks[:, 0], k0[:, 1] + c * ks[:, 1])
            rmss = np.sqrt(np.maximum(c**2 * a + 2.0 * c * b + d, 0.0))
            z2[:, col] = z2_of(amps, amp_data) + z2_of(rmss, rms_data)
        return z2

    return amp_data, rms_data, score


def phase_noise_estimate(times, values, measurement_errors,
                         pulse_area_sigma: float = 0.063,
                         n_replicas: int = 200, seed: int = 0,
                         contrast_grid=None, sigma_grid=None,
                         refine: bool = True) -> dict:
    """Contrast and RMS phase noise by matching trial noisy models.

    A simulated method of moments with two moments, the fitted fringe
    amplitude and the residual rms.  Each (contrast, sigma_phi)
    candidate is scored by z², the sum over both moments of the squared
    distance between the data's value and the mean over ``n_replicas``
    synthetic datasets, in units of the replicas' standard deviation.
    The replicas use the data's fitted frequency, phase and offset, the
    measurement errors and the pulse-area jitter.  Candidates with z²
    below the 2-dof 95 % quantile are accepted.  Returns the
    best-matching point, the accepted ranges as confidence intervals,
    and the best point's z² (``match_z2``).

    The simulation draws are fixed across parameter values: one
    standard-normal block of shape (n_replicas, 4, n) is drawn from
    ``seed`` per call, and every point of the coarse and the refine grid
    builds its replicas from it.  Per replica the block holds the phase
    offsets (scaled by sigma_phi), the two pulse-area jitters and the
    measurement noise, in that order, which is the stream of one
    :func:`synthesize_fringe` call with sigma_phi > 0.
    """
    t = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=float)
    err = np.broadcast_to(np.asarray(measurement_errors, dtype=float), y.shape)
    if pulse_area_sigma < 0 or np.any(err < 0):
        raise AnalysisError("pulse_area_sigma and measurement_errors must be >= 0")
    if n_replicas < 2:
        raise AnalysisError("n_replicas must be >= 2 for a replica spread")
    z = np.random.default_rng(seed).standard_normal((n_replicas, 4, len(t)))
    amp_data, rms_data, score = _moment_scorer(t, y, err, pulse_area_sigma, z)

    if contrast_grid is None:
        top = min(1.2, max(2.0 * amp_data, 0.2))
        contrast_grid = np.linspace(0.0, top, 13)
    if sigma_grid is None:
        sigma_grid = np.linspace(0.0, 1.5, 16)

    def score_grid(c_grid, s_grid):
        """Rows (z², c, s), contrast-major."""
        c, s = np.meshgrid(c_grid, s_grid, indexing="ij")
        return np.column_stack([score(c_grid, s_grid).ravel(), c.ravel(),
                                s.ravel()])

    rows = score_grid(contrast_grid, sigma_grid)
    z2_best, c_best, s_best = rows[np.argmin(rows[:, 0])]
    if refine:
        dc = (contrast_grid[1] - contrast_grid[0]) if len(contrast_grid) > 1 else 0.1
        ds = (sigma_grid[1] - sigma_grid[0]) if len(sigma_grid) > 1 else 0.1
        c_fine = np.linspace(max(0.0, c_best - dc), min(1.3, c_best + dc), 7)
        s_fine = np.linspace(max(0.0, s_best - ds), s_best + ds, 7)
        rows_fine = score_grid(c_fine, s_fine)
        z2_best, c_best, s_best = rows_fine[np.argmin(rows_fine[:, 0])]
        rows = np.vstack([rows, rows_fine])
    cs = rows[rows[:, 0] < Z2_ACCEPT, 1:]
    if not len(cs):
        cs = np.array([[c_best, s_best]])
    zero_contrast = bool(c_best < 1e-9
                         or amp_data < 2.0 * np.mean(err) / math.sqrt(len(t)))
    return {
        "contrast": float(c_best),
        "phase_sigma_rad": float(s_best),
        "phase_variance_rad2": float(s_best**2),
        "contrast_ci": (float(cs[:, 0].min()), float(cs[:, 0].max())),
        "phase_sigma_ci": (float(cs[:, 1].min()), float(cs[:, 1].max())),
        "match_z2": float(z2_best),
        "data_fit_amplitude_pp": float(amp_data),
        "data_residual_rms": float(rms_data),
        "zero_contrast": zero_contrast,
        "n_replicas": n_replicas,
    }


# ---------------------------------------------------------------------------
# phase diffusion and (q, b) reconstruction
# ---------------------------------------------------------------------------

def fit_phase_diffusion(t_values, variance_values, variance_errors=None
                        ) -> FitResult:
    """Weighted linear fit Var(phi) = var0 + D t.

    A negative fitted floor is clipped to zero and flagged.
    """
    t = np.asarray(t_values, dtype=float)
    v = np.asarray(variance_values, dtype=float)
    if len(t) < 3:
        raise AnalysisError("need at least 3 interrogation times")
    w = (np.ones_like(v) if variance_errors is None
         else 1.0 / np.asarray(variance_errors, dtype=float))
    basis = np.column_stack([np.ones_like(t), t])
    coef, *_ = np.linalg.lstsq(basis * w[:, None], v * w, rcond=None)
    resid = basis @ coef - v
    rms = float(np.sqrt(np.mean(resid**2)))
    cov = np.linalg.inv((basis * w[:, None]).T @ (basis * w[:, None]))
    if variance_errors is None and len(t) > 2:
        cov = cov * np.sum((resid * w) ** 2) / (len(t) - 2)
    clipped = coef[0] < 0
    var0 = max(coef[0], 0.0)
    d = coef[1]
    return FitResult(
        params={"var0_rad2": float(var0), "diffusion_rad2_per_s": float(d),
                "sqrt_d": float(np.sqrt(max(d, 0.0)))},
        cov=cov, param_names=("var0_rad2", "diffusion_rad2_per_s"),
        residual_rms=rms, converged=True,
        meta={"floor_clipped": bool(clipped)})


def reconstruct_qb(phi1: float, phi2: float, t_open: float,
                   mean_delta1_hz: float, mean_delta2_hz: float,
                   phi_sigmas: tuple[float, float] | None = None,
                   fringe_orders: tuple[int, int] = (0, 0)) -> dict:
    """Invert the dual-interferometer phases to (q, b).

    phi_i = 2 pi T (x_i - delta_i) with x_1 = 4q - b, x_2 = 8q - b (Hz);
    fringe orders add 2 pi n_i.  Linear error propagation from the phase
    uncertainties.
    """
    if t_open <= 0:
        raise AnalysisError("t_open must be positive")
    ph1 = phi1 + TWO_PI * fringe_orders[0]
    ph2 = phi2 + TWO_PI * fringe_orders[1]
    x1 = ph1 / (TWO_PI * t_open) + mean_delta1_hz
    x2 = ph2 / (TWO_PI * t_open) + mean_delta2_hz
    q = (x2 - x1) / 4.0
    b = x2 - 2.0 * x1
    out = {"q_hz": float(q), "b_hz": float(b)}
    if phi_sigmas is not None:
        s1, s2 = (s / (TWO_PI * t_open) for s in phi_sigmas)
        out["q_sigma_hz"] = float(np.hypot(s1, s2) / 4.0)
        out["b_sigma_hz"] = float(np.hypot(2.0 * s1, s2))
    return out
