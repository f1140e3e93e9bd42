"""Decomposition of SU(10) targets into hardware pair rotations.

The hardware set is rotations about x/y on pairs with dm in {1, 2} plus
pairwise z phases: 9 + 8 = 17 x-type generators, matching 2N - 3 for
N = 10.  The canonical decomposition is a Givens-style reduction using
dm = 1 pairs only, which is sufficient for any unitary; dm = 2
rotations enter the generator accounting and plan simulation as an
optional extension, not the reduction.

The reduction runs on Python complex scalars (a 10x10 target is too
small for NumPy calls to pay off): each Givens step updates the live
columns of its two rows and takes its Euler angles in closed form.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import dynamics, sequence as sq
from .model import FieldParams, LindbladSpec
from .spin_core import DIM, F, M_VALUES, pair_indices, rotation_blocks
# Imported by name so that perfbench/spans.py can wrap it here.
from .spin_core import pair_rotation  # noqa: F401

TWO_PI = 2.0 * np.pi
_M = M_VALUES.tolist()  # m_F of basis index i, as Python floats


class SynthesisError(ValueError):
    pass


@dataclass(frozen=True)
class PlanRotation:
    m_low: float
    m_high: float
    axis: str
    angle: float


@dataclass
class RotationPlan:
    """Ordered elementary rotations; the first entry acts first."""

    rotations: list[PlanRotation]
    target: np.ndarray | None = None
    reconstruction_error: float | None = None

    def __len__(self):
        return len(self.rotations)

    def unitary(self) -> np.ndarray:
        """Product of the rotations, first acting first.

        Each 2x2 block updates only the two rows of its pair, which gives
        the chained product of full :func:`pair_rotation` matrices bit
        for bit.
        """
        rotations = self.rotations
        axes = [r.axis for r in rotations]
        low = np.array([r.m_low for r in rotations]) + F
        high = np.array([r.m_high for r in rotations]) + F
        i_low, i_high = np.rint(low), np.rint(high)
        valid = ((np.abs(low - i_low) <= 1e-9) & (np.abs(high - i_high) <= 1e-9)
                 & (0 <= i_low) & (i_low < i_high) & (i_high < DIM))
        if not (valid.all() and set(axes) <= {"x", "y", "z"}):
            for r in rotations:  # raises the SpinError of the first bad one
                pair_indices(r.m_low, r.m_high, r.axis)
        pairs = zip(i_low.astype(int).tolist(), i_high.astype(int).tolist())
        blocks = rotation_blocks(axes, [r.angle for r in rotations])
        u = np.eye(DIM, dtype=complex)
        for (i, j), block in zip(pairs, blocks):
            rows = slice(i, j + 1, j - i)  # rows i and j
            u[rows] = block @ u[rows]
        return u

    def prefix(self, n: int) -> "RotationPlan":
        return RotationPlan(rotations=list(self.rotations[:n]))

    def to_dict(self) -> dict:
        return {
            "rotations": [
                {"m_low": r.m_low, "m_high": r.m_high, "axis": r.axis,
                 "angle": r.angle} for r in self.rotations],
            "reconstruction_error": self.reconstruction_error,
            "n_rotations": len(self.rotations),
        }


def generator_set(dm_values=(1, 2)) -> list[tuple[float, float]]:
    """Available x-type pair generators: 2N - 3 = 17 for dm in {1, 2}."""
    pairs = []
    for dm in dm_values:
        pairs.extend((float(m), float(m + dm)) for m in M_VALUES[:DIM - dm])
    return pairs


def haar_unitary(dim: int = DIM, rng: np.random.Generator | None = None
                 ) -> np.ndarray:
    rng = rng or np.random.default_rng()
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def global_phase_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Operator-norm distance minimized over a global phase."""
    tr = np.trace(v.conj().T @ u)
    phase = tr / abs(tr) if abs(tr) > 1e-300 else 1.0
    return float(np.linalg.norm(u - phase * v, ord=2))


def _wrap(angle: float) -> float:
    """Wrap to (-2 pi, 2 pi]: exp(-i theta G/2) has period 4 pi in theta
    (theta and theta + 2 pi differ by a pair-local sign that is not a
    global phase on the full manifold)."""
    return (angle + TWO_PI) % (2 * TWO_PI) - TWO_PI


def _su2_euler_zxz(g00: complex, g10: complex) -> list[tuple[str, float]]:
    """Rz(gamma) Rx(beta) Rz(alpha) = g for the det-1 2x2 matrix
    g = [[g00, -conj(g10)], [g10, conj(g00)]].

    Rz(t) = diag(e^{-it/2}, e^{it/2}), Rx(t) = exp(-i t sigma_x / 2).
    Returned in application order (alpha first); near-zero angles are
    dropped, so a pure x rotation lowers to a single element.
    """
    abs00, abs10 = abs(g00), abs(g10)
    beta = 2.0 * math.atan2(abs10, abs00)
    if abs10 < 1e-14:
        angles = [("z", -2.0 * cmath.phase(g00))]
    elif abs00 < 1e-14:
        gamma_minus_alpha = 2.0 * (cmath.phase(g10) + math.pi / 2)
        angles = [("x", beta), ("z", gamma_minus_alpha)]
    else:
        gamma_plus_alpha = -2.0 * cmath.phase(g00)
        gamma_minus_alpha = 2.0 * (cmath.phase(g10) + math.pi / 2)
        alpha = (gamma_plus_alpha - gamma_minus_alpha) / 2.0
        gamma = (gamma_plus_alpha + gamma_minus_alpha) / 2.0
        angles = [("z", alpha), ("x", beta), ("z", gamma)]
        # Rz(-a) Rx(b) Rz(a) is a single rotation about cos(a) x - sin(a) y,
        # which depends on a only modulo 2 pi; snap the exact x / y
        # sandwiches to one element.
        if abs(_wrap(alpha + gamma)) < 1e-12:
            a = (alpha + math.pi) % TWO_PI - math.pi
            if abs(a) < 1e-12:
                angles = [("x", beta)]
            elif abs(abs(a) - math.pi) < 1e-12:
                angles = [("x", -beta)]
            elif abs(a - math.pi / 2) < 1e-12:
                angles = [("y", -beta)]
            elif abs(a + math.pi / 2) < 1e-12:
                angles = [("y", beta)]
    return [(ax, w) for ax, a in angles if abs(w := _wrap(a)) > 1e-13]


def decompose(target: np.ndarray, tolerance: float = 1e-9) -> RotationPlan:
    """Givens reduction of a 10x10 unitary onto adjacent-pair rotations.

    At most N(N-1)/2 Givens steps (each at most three elementary
    rotations, z-x-z) plus N-1 pairwise z phases for the residual
    diagonal; the global phase is discarded.
    """
    u = np.asarray(target, dtype=complex)
    if u.shape != (DIM, DIM):
        raise SynthesisError(f"target must be {DIM}x{DIM}")
    if np.max(np.abs(u.conj().T @ u - np.eye(DIM))) > 1e-10:
        raise SynthesisError("target is not unitary to 1e-10")

    work = u.tolist()
    # U = G_1^dag ... G_M^dag D: the inverse Euler elements of G_1, G_2,
    # ... collected in elimination order, then reversed into time order.
    undo: list[PlanRotation] = []
    for col in range(DIM - 1):
        for row in range(DIM - 1, col, -1):
            upper, lower = work[row - 1], work[row]
            v = lower[col]
            if abs(v) < 1e-15:
                continue
            a = upper[col]
            r = math.hypot(abs(a), abs(v))
            # g = [[g00, g01], [g10, g11]] zeroes v against a
            g00, g01 = a.conjugate() / r, v.conjugate() / r
            g10, g11 = -v / r, a / r
            for k in range(col + 1, DIM):
                x, y = upper[k], lower[k]
                upper[k] = g00 * x + g01 * y
                lower[k] = g10 * x + g11 * y
            upper[col], lower[col] = complex(r), 0j
            m_low, m_high = _M[row - 1], _M[row]
            for axis, angle in _su2_euler_zxz(g00, g10):
                undo.append(PlanRotation(m_low, m_high, axis, -angle))
    undo.reverse()

    # Residual diagonal e^{i gamma_m}: adjacent z rotations with angles
    # from the telescoping recursion theta_k = theta_{k-1} - 2 phi_k,
    # phi_m = gamma_m - mean(gamma) (sums to zero exactly).  D acts first.
    gammas = [cmath.phase(work[k][k]) for k in range(DIM)]
    mean = sum(gammas) / DIM
    rotations: list[PlanRotation] = []
    theta = 0.0
    for k in range(DIM - 1):
        theta -= 2.0 * (gammas[k] - mean)
        if abs(theta) > 1e-13:
            rotations.append(PlanRotation(_M[k], _M[k + 1], "z", theta))
    rotations += undo
    plan = RotationPlan(rotations=rotations, target=u)
    err = global_phase_distance(u, plan.unitary())
    plan.reconstruction_error = err
    if err > tolerance:
        raise SynthesisError(f"reconstruction error {err:.2e} above tolerance")
    return plan


# ---------------------------------------------------------------------------
# lowering to pulses and dissipative gate fidelity
# ---------------------------------------------------------------------------

def plan_to_sequence(plan: RotationPlan, fields: FieldParams, omega_hz: float,
                     gap_s: float = 0.0, cg_weighting: bool = True
                     ) -> tuple[sq.PulseSequence, np.ndarray]:
    """Lower a plan to resonant pulses with phase bookkeeping.

    z rotations are virtual: they (and the free in-frame level phases
    accumulated during earlier pulses) adjust the drive phases of later
    pulses, exactly like a phase-coherent DDS per transition.  Returns
    the sequence and the final per-level frame phases phi_m (rad); the
    lab propagator of the compiled sequence equals
    diag(e^{-i phi_m}) @ plan.unitary() up to off-resonant leakage.
    """
    # Combined ledger l_m: physical in-frame phases enter as +theta_m,
    # virtual z rotations as -zeta_m (an abstract Z between rotations
    # conjugates every later rotation with the opposite sense to the
    # frame evolution).  Lab propagator = diag(e^{-i l_m}) @ plan.
    level_phase = np.zeros(DIM)
    segments = []
    for r in plan.rotations:
        i, j = int(r.m_low + 4.5), int(r.m_high + 4.5)
        if r.axis == "z":
            level_phase[i] -= r.angle / 2.0
            level_phase[j] += r.angle / 2.0
            continue
        axis_phase = 0.0 if r.axis == "x" else np.pi / 2
        angle = r.angle
        if angle < 0:
            angle, axis_phase = -angle, axis_phase + np.pi
        if angle <= 1e-13:
            continue
        drive_phase = axis_phase - (level_phase[j] - level_phase[i])
        seg = sq.pulse((r.m_low, r.m_high), omega_hz, fields, area=angle,
                       phase=drive_phase, cg_weighting=cg_weighting,
                       warn_regime=False)
        segments.append(seg)
        # free in-frame phases accumulated during this pulse
        tone = seg.tones[0]
        f_lo = tone.lo_freq_hz(fields)
        diag = fields.level_shifts() + f_lo * M_VALUES
        level_phase += TWO_PI * diag * seg.duration
        if gap_s > 0:
            segments.append(sq.dark_time(gap_s))
            level_phase += TWO_PI * diag * gap_s
    if not segments:
        segments = [sq.dark_time(1e-9)]
    return sq.PulseSequence(segments=tuple(segments), fields=fields), level_phase


def average_gate_fidelity(s_channel: np.ndarray, u_ideal: np.ndarray,
                          active_levels) -> float:
    """Haar-average fidelity over states supported on ``active_levels``.

    F = (sum_k |tr_P A_k|^2 + sum_k tr_P(A_k^dag A_k)) / (d (d + 1)),
    A_k = P U^dag K_k P, evaluated from the channel superoperator
    (row-major vec convention).
    """
    idx = [int(m + 4.5) for m in active_levels]
    d = len(idx)
    s_eff = dynamics.unitary_superoperator(u_ideal).conj().T @ s_channel
    resh = s_eff.reshape(DIM, DIM, DIM, DIM)  # [out_i, out_j, in_k, in_l]
    tr2 = sum(resh[i, j, i, j].real for i in idx for j in idx)
    trp = sum(resh[i, i, j, j].real for i in idx for j in idx)
    return float((tr2 + trp) / (d * (d + 1)))


def simulate_plan(plan: RotationPlan, fields: FieldParams,
                  lindblad: LindbladSpec | None, omega_hz: float,
                  active_levels=None, cg_weighting: bool = True) -> float:
    """Average gate fidelity of the pulsed realization under dissipation.

    The plan is lowered to resonant pulses and simulated with the given
    channels; the reference is the noiseless propagator of the same
    schedule, so the reported infidelity isolates dissipation (the
    residual off-resonant leakage of the pulses themselves is a separate,
    coherent effect probed by the leakage scan).  Averaging runs over
    input states on the plan's active levels.
    """
    if active_levels is None:
        levels = sorted({m for r in plan.rotations for m in (r.m_low, r.m_high)})
        active_levels = levels or [-2.5, -1.5]
    seq, _ = plan_to_sequence(plan, fields, omega_hz, cg_weighting=cg_weighting)
    schedule = sq.compile(seq, lindblad=lindblad)
    s_sim = dynamics.superoperator(schedule)
    u_ref = dynamics.propagator(sq.compile(seq, lindblad=None))
    return average_gate_fidelity(s_sim, u_ref, active_levels)
