"""Level shifts, Raman-tone couplings and dissipation channels.

These are the ingredients of the effective Hamiltonian:
:func:`sunspin.sequence.compile` turns them into segment data, and
:meth:`sunspin.dynamics.Segment.hamiltonian` evaluates H(t) from it.

Level shifts are parameterized by the linear splitting ``b`` and the
tensor-light-shift curvature ``q`` (both ordinary frequencies in Hz,
energy/h):  E(m)/h = b*m + q*m^2.

Raman tones couple pairs (m, m+dm), dm in {1, 2}.  The local-oscillator
(beat) frequency convention is signed,

    f_LO = (E(m_low) - E(m_high))/h - detuning,

so that the written ``detuning`` of a tone is the ordinary-frequency
offset of the drive from the pair resonance, and the free-evolution
phase of the pair advances at ``detuning`` Hz (positive detuning,
positive phase rate).

All dissipation rates are ordinary 1/e rates in 1/s.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Sequence

import numpy as np

from .spin_core import DIM, F, M_VALUES, clebsch_gordan, m_index


class ModelError(ValueError):
    pass


# ---------------------------------------------------------------------------
# field parameters and level shifts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FieldParams:
    """Linear and quadratic Zeeman-level splittings (Hz).

    ``b_vector_hz`` is the part of the linear splitting produced by the
    light field (vector light shift); it scales with the TLS multiplier
    while ``b_hz`` itself does not.  The fields are static: they carry
    no time envelopes, and the only time dependence of the level shifts
    is the TLS multiplier of the pulse segment.  The Hamiltonian itself
    is built only by :func:`sunspin.sequence.compile`.
    """

    b_hz: float
    q_hz: float
    b_vector_hz: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.b_hz) or not np.isfinite(self.q_hz):
            raise ModelError("b and q must be finite")

    def level_shifts(self, tls_multiplier: float = 1.0) -> np.ndarray:
        """E(m)/h for all ten levels (Hz)."""
        b = self.b_hz + self.b_vector_hz * tls_multiplier
        q = self.q_hz * tls_multiplier
        return b * M_VALUES + q * M_VALUES**2


def pair_splitting_hz(fields: FieldParams, m_low: float, dm: int = 1,
                      tls_multiplier: float = 1.0) -> float:
    """Transition frequency (E(m_low+dm) - E(m_low))/h in Hz, signed."""
    e = fields.level_shifts(tls_multiplier)
    return float(e[m_index(m_low + dm)] - e[m_index(m_low)])


# ---------------------------------------------------------------------------
# Raman tones and their couplings
# ---------------------------------------------------------------------------

# Two-photon legs through the F' = 9/2 excited manifold.  A dm = 1
# transfer absorbs a pi photon and emits a sigma- photon; dm = 2 uses the
# sigma+ / sigma- sideband pair.  Weights are signed amplitude products,
# cached because compile asks for the same handful on every segment.

@lru_cache
def two_photon_weight(m_low: float, dm: int = 1) -> float:
    f_ex = F
    if dm == 1:
        up = clebsch_gordan(F, m_low, 1, 0, f_ex, m_low)
        down = clebsch_gordan(F, m_low + 1, 1, -1, f_ex, m_low)
        return up * down
    if dm == 2:
        up = clebsch_gordan(F, m_low, 1, 1, f_ex, m_low + 1)
        down = clebsch_gordan(F, m_low + 2, 1, -1, f_ex, m_low + 1)
        return up * down
    raise ModelError(f"dm must be 1 or 2, got {dm}")


@dataclass(frozen=True)
class RamanTone:
    """One two-photon drive tone.

    ``omega_hz`` is the bare Rabi frequency (ordinary Hz) on the
    addressed pair; with ``cg_weighting`` every same-dm pair is driven
    with omega scaled by the ratio of its two-photon Clebsch-Gordan
    product to the addressed pair's.  ``detuning_hz`` offsets the drive
    from the pair resonance, and ``phase`` is a static drive phase
    (radians, rotation axis cos(phase) x + sin(phase) y).
    """

    m_low: float
    m_high: float
    omega_hz: float
    detuning_hz: float = 0.0
    phase: float = 0.0
    cg_weighting: bool = True

    def __post_init__(self):
        dm = round(self.m_high - self.m_low)
        if abs(self.m_high - self.m_low - dm) > 1e-9 or dm not in (1, 2):
            raise ModelError("tone must address a pair with |dm| in {1, 2}")
        m_index(self.m_low)
        m_index(self.m_high)
        if self.omega_hz < 0:
            raise ModelError("omega_hz must be >= 0")

    @property
    def dm(self) -> int:
        return round(self.m_high - self.m_low)

    @property
    def pair(self) -> tuple[float, float]:
        return (self.m_low, self.m_high)

    def coupling_matrix(self) -> np.ndarray:
        """Upper-triangular coupling amplitudes (Hz): entry [i, i+dm].

        Carries Omega_eff(m, m+dm), i.e. twice the RWA off-diagonal
        element; signed by the Clebsch-Gordan product ratio.
        """
        c = np.zeros((DIM, DIM))
        i0 = m_index(self.m_low)
        if not self.cg_weighting:
            c[i0, i0 + self.dm] = self.omega_hz
            return c
        w_ref = two_photon_weight(self.m_low, self.dm)
        for i in range(DIM - self.dm):
            w = two_photon_weight(float(M_VALUES[i]), self.dm)
            c[i, i + self.dm] = self.omega_hz * w / w_ref
        return c

    def lo_freq_hz(self, fields: FieldParams) -> float:
        """Signed local-oscillator frequency addressing this tone's pair."""
        return -pair_splitting_hz(fields, self.m_low, self.dm) - self.detuning_hz


# ---------------------------------------------------------------------------
# dissipation channels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LindbladSpec:
    """Jump channels (operator, rate in 1/s).

    Every rate is multiplied by the instantaneous TLS power multiplier
    during sequence execution: photon scattering and light-shift-
    inhomogeneity dephasing are both light-induced, and with the TLS
    off there is no decoherence.
    """

    channels: tuple[tuple[np.ndarray, float], ...] = ()
    label: str = ""

    def __post_init__(self):
        for op, rate in self.channels:
            if rate < 0:
                raise ModelError(f"negative channel rate {rate}")
            if op.shape != (DIM, DIM):
                raise ModelError("channel operators must be 10x10")

    def __len__(self) -> int:
        return len(self.channels)

    def merge(self, other: "LindbladSpec") -> "LindbladSpec":
        return replace(self, channels=self.channels + other.channels,
                       label=f"{self.label}+{other.label}")


CALIBRATED_TRANSFER_RATE = 0.5  # 1/s, net population transfer out of each state
DEFAULT_ASE_FACTOR = 3.0

_EXCITED_F = (3.5, 4.5, 5.5)


def scattering_branching_ratios(fprime_weights: dict[float, float] | None = None) -> np.ndarray:
    """B[m', m]: probability that a photon scattered from m lands in m'.

    Excitation is pi-polarized into F' in {7/2, 9/2, 11/2} with
    Clebsch-Gordan weights (optionally reweighted per F' to model the
    detuning of each hyperfine line), emission branches over
    m' in {m-1, m, m+1}.  Columns sum to 1.  The unweighted table is
    built once, on first use, and shared read-only.
    """
    if fprime_weights is None:
        return _default_branching_ratios()
    return _branching_ratios(fprime_weights)


@lru_cache(maxsize=1)
def _default_branching_ratios() -> np.ndarray:
    b = _branching_ratios(None)
    b.flags.writeable = False
    return b


def _branching_ratios(fprime_weights: dict[float, float] | None) -> np.ndarray:
    b = np.zeros((DIM, DIM))
    for i, m in enumerate(M_VALUES):
        exc = {}
        for fp in _EXCITED_F:
            w = clebsch_gordan(F, m, 1, 0, fp, m) ** 2
            if fprime_weights is not None:
                w *= fprime_weights.get(fp, 0.0)
            exc[fp] = w
        tot = sum(exc.values())
        if tot <= 0:
            continue
        for fp, w_exc in exc.items():
            for dm_ph in (-1, 0, 1):
                mp = m + dm_ph
                if abs(mp) > F:
                    continue
                w_em = clebsch_gordan(F, mp, 1, m - mp, fp, m) ** 2
                b[m_index(mp), i] += (w_exc / tot) * w_em
    return b


def photon_scattering_channels(fields: FieldParams | None = None,
                               scattering_budget="calibrated",
                               ase_factor: float = DEFAULT_ASE_FACTOR,
                               fprime_weights: dict[float, float] | None = None,
                               rayleigh_override: np.ndarray | None = None) -> LindbladSpec:
    """Raman + Rayleigh photon-scattering jump channels.

    ``scattering_budget`` is the per-state total photon-scattering rate
    in 1/s (scalar or per-level array) before ASE scaling, or
    "calibrated",
    which calibrates the per-state rate so that the net population
    transfer rate out of each state is 0.5/s after the default ASE
    factor of 3 is applied.  All rates are multiplied by ``ase_factor``.
    """
    branching = scattering_branching_ratios(fprime_weights)
    if rayleigh_override is not None:
        branching = branching.copy()
        for i in range(DIM):
            raman = 1.0 - branching[i, i]
            branching[:, i] *= (1.0 - rayleigh_override[i]) / raman if raman > 0 else 0.0
            branching[i, i] = rayleigh_override[i]

    if isinstance(scattering_budget, str):
        if scattering_budget != "calibrated":
            raise ModelError(f"unknown budget {scattering_budget!r}")
        transfer_frac = 1.0 - np.diag(branching)
        totals = np.where(transfer_frac > 0,
                          CALIBRATED_TRANSFER_RATE / np.maximum(transfer_frac, 1e-12)
                          / DEFAULT_ASE_FACTOR,
                          0.0)
    else:
        totals = np.broadcast_to(np.asarray(scattering_budget, dtype=float), (DIM,)).copy()
    if np.any(totals < 0):
        raise ModelError("scattering rates must be >= 0")

    channels = []
    for i in range(DIM):
        gamma = totals[i] * ase_factor
        if gamma <= 0:
            continue
        for ip in range(DIM):
            rate = gamma * branching[ip, i]
            if rate <= 0:
                continue
            op = np.zeros((DIM, DIM), dtype=complex)
            op[ip, i] = 1.0
            channels.append((op, float(rate)))
    return LindbladSpec(channels=tuple(channels), label="scattering")


def monochromatic_scattering_channels(**kwargs) -> LindbladSpec:
    """Spontaneous emission for an ideal monochromatic laser (no ASE pedestal)."""
    return photon_scattering_channels(scattering_budget="calibrated",
                                      ase_factor=1.0, **kwargs)


DEPHASING_TIME_UNIT = 0.210  # s, 1/e time of a |dm| = 1 coherence
DEFAULT_DEPHASING_MANIFOLD = (-4.5, -3.5, -2.5, -1.5)


def inhomogeneous_dephasing(tau_unit_s: float = DEPHASING_TIME_UNIT,
                            mode: str = "linear",
                            manifold: Sequence[float] = DEFAULT_DEPHASING_MANIFOLD) -> LindbladSpec:
    """Dephasing channels for the light-shift spatial inhomogeneity.

    ``mode='linear'`` (default) builds independent diagonal dephasers so
    that the coherence rho(m1, m2) decays with 1/e time
    ``tau_unit_s * |m1 - m2|`` exactly for every pair inside
    ``manifold``.  Such a set of decay rates is a squared-distance
    matrix; a Euclidean embedding of it only exists for up to four
    adjacent levels, so the default manifold is the four levels used by
    the drive protocols and larger manifolds raise.  Coherences between
    a manifold level and an outside level acquire incidental dephasing;
    outside pairs are untouched.

    ``mode='quadratic'`` uses the single jump operator proportional to
    m_F calibrated on the |dm| = 1 pairs, which makes the rate scale as
    |m1 - m2|^2 over the whole manifold.
    """
    if tau_unit_s <= 0:
        raise ModelError("tau_unit_s must be positive")
    if mode == "quadratic":
        op = np.diag(M_VALUES.astype(complex))
        return LindbladSpec(channels=((op, 2.0 / tau_unit_s),),
                            label="dephasing-quadratic")
    if mode != "linear":
        raise ModelError(f"unknown dephasing mode {mode!r}")

    ms = sorted(float(m) for m in manifold)
    n = len(ms)
    if n < 2:
        raise ModelError("manifold needs at least two levels")
    # Want sum_c (d_a - d_b)^2 = 2 R_ab with R_ab = 1/(tau |a-b|):
    # classic multidimensional-scaling embedding of the matrix 2R.
    dmat = np.zeros((n, n))
    for a in range(n):
        for b in range(n):
            if a != b:
                dmat[a, b] = 2.0 / (tau_unit_s * abs(ms[a] - ms[b]))
    center = np.eye(n) - np.ones((n, n)) / n
    gram = -0.5 * center @ dmat @ center
    evals, evecs = np.linalg.eigh(gram)
    if evals.min() < -1e-9 * max(evals.max(), 1.0):
        raise ModelError(
            f"linear |dm| dephasing is not realizable on {n} levels "
            "(no Euclidean embedding); restrict the manifold to at most "
            "4 adjacent levels or use mode='quadratic'")
    channels = []
    for lam, vec in zip(evals, evecs.T):
        if lam <= 1e-12 * evals.max():
            continue
        d = np.zeros(DIM)
        for coord, m in zip(np.sqrt(lam) * vec, ms):
            d[m_index(m)] = coord
        channels.append((np.diag(d).astype(complex), 1.0))
    return LindbladSpec(channels=tuple(channels), label="dephasing-linear")


# ---------------------------------------------------------------------------
# systematics
# ---------------------------------------------------------------------------

def ac_stark_estimate(omega_hz: float, q_hz: float) -> float:
    """Level shift Omega^2 / (8 q) from an off-resonant neighbor coupling (Hz).

    Both arguments are ordinary frequencies; the detuning of the
    parasitic process from its own resonance is the 2q resonance spacing.
    """
    if q_hz == 0:
        raise ModelError("ac_stark_estimate requires q != 0")
    return omega_hz**2 / (8.0 * q_hz)


@dataclass(frozen=True)
class ControlRegimeReport:
    controllable: bool
    b_hz: float
    q_hz: float
    threshold_hz: float
    resonances_hz: dict[float, float]            # m_low -> signed splitting
    degenerate_pairs: tuple[tuple[float, float, float], ...]  # (m1, m2, gap)


def control_regime_check(b_hz: float, q_hz: float, f: float = F,
                         tol_hz: float | None = None) -> ControlRegimeReport:
    """Whether all dm = 1 resonances are spectrally distinct: b > |q|(2F-1).

    When the condition fails the report lists quasi-degenerate pairs of
    resonances (|splittings| closer than ``tol_hz``, default |q|/2),
    which drive uncontrolled population transfer.
    """
    threshold = abs(q_hz) * (2 * f - 1)
    ok = b_hz > threshold
    m_lows = np.arange(-f, f)
    res = {float(m): b_hz + q_hz * (2 * m + 1) for m in m_lows}
    degenerate = []
    if not ok:
        tol = abs(q_hz) / 2 if tol_hz is None else tol_hz
        items = list(res.items())
        for i in range(len(items)):
            for j in range(i + 1, len(items)):
                gap = abs(abs(items[i][1]) - abs(items[j][1]))
                if gap < tol:
                    degenerate.append((items[i][0], items[j][0], gap))
    return ControlRegimeReport(controllable=bool(ok), b_hz=b_hz, q_hz=q_hz,
                               threshold_hz=threshold, resonances_hz=res,
                               degenerate_pairs=tuple(degenerate))
