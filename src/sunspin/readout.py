"""Detection model, projection-noise sampling, collective observables.

Atoms are independent (no interactions), so a projective population
measurement of N_at atoms draws multinomially from the single-particle
populations, and per-state detection applies independent binomial
thinning with efficiency eta(m_F).

The ancilla-mapped measurement uses qubit states up = -5/2, down = -7/2
and ancillas a = -3/2, b = -9/2.  Spin operators follow the
spin-1/2-per-atom convention: s_z = (N_up - N_down)/2 for a direct
measurement, and the mapped number differences N_a - N_b, N_up - N_down
after the measurement unitary estimate s_z and s_phi without the factor
of two (each mapping pulse moves half of the amplitude).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .spin_core import (DIM, density_matrix, m_index, pair_generator,
                        pair_rotation)

M_UP = -2.5
M_DOWN = -3.5
M_ANCILLA_A = -1.5
M_ANCILLA_B = -4.5

DEFAULT_EFFICIENCIES = {-3.5: 0.65, -2.5: 0.70, -1.5: 0.51}
MAX_RECALIBRATION = 0.06
# How far a row of populations may sum from 1 before sampling rejects
# it: evolution and map rounding, well above float64 sums of ten terms.
POPULATION_SUM_TOL = 1e-6
# Largest entry of U^dag U - 1 accepted for a measurement propagator.
UNITARITY_TOL = 1e-8


class ReadoutError(ValueError):
    pass


@dataclass(frozen=True)
class DetectionModel:
    """Per-state efficiencies and the two-states-per-shot constraint."""

    eta: dict[float, float] = field(default_factory=lambda: dict(DEFAULT_EFFICIENCIES))
    measurable_pairs: tuple[tuple[float, float], ...] = ((M_DOWN, M_ANCILLA_A),)
    all_states_mode: bool = False

    def __post_init__(self):
        for m, e in self.eta.items():
            m_index(m)
            if not 0.0 <= e <= 1.0:
                raise ReadoutError(f"eta({m}) = {e} outside [0, 1]")

    def efficiency_vector(self) -> np.ndarray:
        eta = np.ones(DIM)
        for m, e in self.eta.items():
            eta[m_index(m)] = e
        return eta

    def visible_mask(self) -> np.ndarray:
        if self.all_states_mode:
            return np.ones(DIM, dtype=bool)
        mask = np.zeros(DIM, dtype=bool)
        for pair in self.measurable_pairs:
            for m in pair:
                mask[m_index(m)] = True
        return mask

    @classmethod
    def ideal(cls) -> "DetectionModel":
        return cls(eta={}, all_states_mode=True)


@dataclass(frozen=True)
class ShotRecord:
    """One realization: true and detected per-state atom counts."""

    true_counts: np.ndarray      # (10,) int
    detected_counts: np.ndarray  # (10,) int, -1 where not visible
    n_atoms: int
    shot_index: int = 0
    recalibrated: bool = False


def sample_counts(populations: np.ndarray, n_atoms: int,
                  detection: DetectionModel | None = None,
                  rng: np.random.Generator | None = None
                  ) -> tuple[np.ndarray, np.ndarray]:
    """True and detected per-state counts, each (k, 10), of k shots.

    Row s of ``populations`` holds the single-atom populations of shot s.
    All k multinomial draws come first, then all k binomial thinnings, so
    a one-row call draws exactly as one shot.  Detected counts are -1
    where the detection model cannot see the state.
    """
    if n_atoms < 1:
        raise ReadoutError("n_atoms must be >= 1")
    rng = rng or np.random.default_rng()
    p = np.asarray(populations, dtype=float).clip(min=0.0)
    if p.ndim != 2 or p.shape[1] != DIM:
        raise ReadoutError(f"populations must have shape (k, {DIM}), got {p.shape}")
    total = p.sum(axis=1, keepdims=True)
    off = ~(np.abs(total - 1.0) <= POPULATION_SUM_TOL)
    if off.any():
        raise ReadoutError(f"populations sum to {total[off][0]}, expected 1")
    p /= total
    true = rng.multinomial(n_atoms, p)
    detection = detection or DetectionModel.ideal()
    detected = rng.binomial(true, detection.efficiency_vector())
    detected[:, ~detection.visible_mask()] = -1
    return true, detected


def sample_shot(state_or_rho: np.ndarray, n_atoms: int,
                detection: DetectionModel | None = None,
                rng: np.random.Generator | None = None,
                shot_index: int = 0) -> ShotRecord:
    """Multinomial projection noise plus binomial detection thinning of
    one shot: a one-row :func:`sample_counts`."""
    p = np.real(np.diag(density_matrix(state_or_rho)))
    true, detected = sample_counts(p[None], n_atoms, detection, rng)
    return ShotRecord(true_counts=true[0], detected_counts=detected[0],
                      n_atoms=n_atoms, shot_index=shot_index)


def recalibrate_efficiency(records: list[ShotRecord], detection: DetectionModel,
                           m: float = M_ANCILLA_A):
    """Raise eta(m) (by at most 6%) so the largest inferred fraction is 1.

    Mirrors the recalibration policy for a drifting detection efficiency:
    eta is never lowered, and records whose estimates forced the change
    are flagged.
    """
    i = m_index(m)
    eta0 = detection.eta.get(m, 1.0)
    worst = max((r.detected_counts[i] / (eta0 * r.n_atoms)) for r in records)
    if worst <= 1.0:
        return detection, records
    eta_new = min(eta0 * worst, eta0 * (1.0 + MAX_RECALIBRATION))
    new_det = replace(detection, eta={**detection.eta, m: eta_new})
    flagged = [replace(r, recalibrated=True)
               if r.detected_counts[i] / (eta0 * r.n_atoms) > 1.0 else r
               for r in records]
    return new_det, flagged


# ---------------------------------------------------------------------------
# collective observables of the ancilla-mapped measurement
# ---------------------------------------------------------------------------

def _projector(m: float) -> np.ndarray:
    p = np.zeros((DIM, DIM))
    p[m_index(m), m_index(m)] = 1.0
    return p


def ideal_measurement_propagator(phi: float = 0.0) -> np.ndarray:
    """Three exact pi/2 pulses plus the phase window, no dissipation.

    map up->a, map down->b, z-phase phi on the qubit pair, final pi/2 on
    (up, down).
    """
    u = pair_rotation(M_UP, M_ANCILLA_A, "x", np.pi / 2)
    u = pair_rotation(M_ANCILLA_B, M_DOWN, "x", np.pi / 2) @ u
    u = pair_rotation(M_DOWN, M_UP, "z", -phi) @ u  # +phi advance of up vs down
    return pair_rotation(M_DOWN, M_UP, "x", np.pi / 2) @ u


def collective_operators(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Single-particle representatives of the mapped number differences.

    O_z = U^dag (P_a - P_b) U and O_y = U^dag (P_up - P_down) U; the
    many-body operators are their sums over atoms.
    """
    if np.max(np.abs(u.conj().T @ u - np.eye(DIM))) > UNITARITY_TOL:
        raise ReadoutError("measurement propagator is not unitary")
    o_z = u.conj().T @ (_projector(M_ANCILLA_A) - _projector(M_ANCILLA_B)) @ u
    o_y = u.conj().T @ (_projector(M_UP) - _projector(M_DOWN)) @ u
    return o_z, o_y


def coherent_qubit_state(theta: float = np.pi / 2, phi: float = -np.pi / 2
                         ) -> np.ndarray:
    """cos(theta/2)|up> + e^{i phi} sin(theta/2)|down>; default -y pole."""
    psi = np.zeros(DIM, dtype=complex)
    psi[m_index(M_UP)] = np.cos(theta / 2)
    psi[m_index(M_DOWN)] = np.exp(1j * phi) * np.sin(theta / 2)
    return psi


def qubit_spin_ops() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Single-atom s_x, s_y, s_z on the (up, down) pair (eigenvalues +-1/2).

    pair_generator's sigma_z is +1 on the lower projection (down); the
    qubit convention has up = +z, so z and y are flipped to keep a
    right-handed frame.
    """
    sx = 0.5 * pair_generator(M_DOWN, M_UP, "x")
    sy = -0.5 * pair_generator(M_DOWN, M_UP, "y")
    sz = -0.5 * pair_generator(M_DOWN, M_UP, "z")
    return sx, sy, sz


def estimate_spin_projections(shot: ShotRecord, mode: str = "two-state"
                              ) -> tuple[float, float]:
    """(s_z estimate, s_phi estimate) from one shot's counts.

    two-state: uses only N(-3/2) and N(-7/2) with the half-manifold
    closures N(-9/2)+N(-3/2) = N(-7/2)+N(-5/2) = N_at/2.
    four-state: N_a - N_b and -(N_up - N_down).
    """
    n = shot.true_counts
    n_at = shot.n_atoms
    if mode == "two-state":
        s_z = 2.0 * n[m_index(M_ANCILLA_A)] - n_at / 2.0
        s_phi = -(2.0 * n[m_index(M_DOWN)] - n_at / 2.0)
        return s_z, s_phi
    if mode == "four-state":
        s_z = float(n[m_index(M_ANCILLA_A)] - n[m_index(M_ANCILLA_B)])
        s_phi = float(n[m_index(M_UP)] - n[m_index(M_DOWN)])
        return s_z, s_phi
    raise ReadoutError("mode must be 'two-state' or 'four-state'")


def phase_noise_mc(n_atoms: int, n_shots: int, scheme: str,
                   seed: int = 0) -> float:
    """Projection-noise-limited mid-fringe phase standard deviation.

    'single-all': one interferometer, all atoms, both output ports read.
    'dual-all': two parallel interferometers (half the atoms each), both
    ports of each read; returns the noise of one phase estimate.
    'dual-single-port': one output port per interferometer, normalized
    by the nominal N_at/2 (the atom number fed into the interferometer
    is not known shot to shot).
    Mid-fringe, unit contrast: phi_hat = 2 p_hat - 1 up to an offset.
    """
    rng = np.random.default_rng(seed)
    if scheme == "single-all":
        ports = rng.multinomial(n_atoms, [0.5, 0.5], size=n_shots)
        p_hat = ports[:, 0] / n_atoms
    elif scheme == "dual-all":
        counts = rng.multinomial(n_atoms, [0.25, 0.25, 0.25, 0.25],
                                 size=n_shots)
        n_if1 = counts[:, 0] + counts[:, 1]
        p_hat = counts[:, 0] / np.maximum(n_if1, 1)
    elif scheme == "dual-single-port":
        counts = rng.multinomial(n_atoms, [0.25, 0.25, 0.25, 0.25],
                                 size=n_shots)
        p_hat = counts[:, 0] / (n_atoms / 2)
    else:
        raise ReadoutError(f"unknown scheme {scheme!r}")
    return float((2.0 * p_hat).std(ddof=1))


def variance_check(input_state: np.ndarray, n_atoms: int, n_shots: int,
                   phi: float = 0.0, seed: int = 0) -> dict:
    """Monte-Carlo variances of the mapped observables and the direct spins.

    Samples counts after the ideal measurement propagator at control
    phase ``phi`` (for O_z, O_y) and direct projective measurements of
    the input in the z and y bases (for s_z, s_y).  Returns estimates
    with standard errors.
    """
    rho_in = density_matrix(input_state)
    u = ideal_measurement_propagator(phi)
    rho_out = u @ rho_in @ u.conj().T
    p_out = np.real(np.diag(rho_out)).clip(min=0)
    rng = np.random.default_rng(seed)

    counts = rng.multinomial(n_atoms, p_out / p_out.sum(), size=n_shots)
    o_z = counts[:, m_index(M_ANCILLA_A)] - counts[:, m_index(M_ANCILLA_B)]
    o_y = counts[:, m_index(M_UP)] - counts[:, m_index(M_DOWN)]

    # direct s_z: measure the input populations
    p_in = np.real(np.diag(rho_in)).clip(min=0)
    cz = rng.multinomial(n_atoms, p_in / p_in.sum(), size=n_shots)
    s_z = 0.5 * (cz[:, m_index(M_UP)] - cz[:, m_index(M_DOWN)])
    # direct s_y: rotate y -> z then measure
    v = pair_rotation(M_DOWN, M_UP, "x", np.pi / 2)
    rho_y = v @ rho_in @ v.conj().T
    p_y = np.real(np.diag(rho_y)).clip(min=0)
    cy = rng.multinomial(n_atoms, p_y / p_y.sum(), size=n_shots)
    # exp(-i pi/2 sx) maps s_y -> s_z (Heisenberg: V^dag s_z V = -s_y with
    # these conventions; fix the sign so the estimator targets +s_y)
    s_y = -0.5 * (cy[:, m_index(M_UP)] - cy[:, m_index(M_DOWN)])

    def stat(x):
        var = x.var(ddof=1)
        se = var * np.sqrt(2.0 / (len(x) - 1))
        return {"mean": float(x.mean()), "var": float(var), "var_se": float(se)}

    return {"O_z": stat(o_z.astype(float)), "O_y": stat(o_y.astype(float)),
            "s_z": stat(s_z), "s_y": stat(s_y), "n_atoms": n_atoms,
            "phi": phi}
