"""Decomposition of SU(10) targets into hardware pair rotations.

The hardware set is rotations about x/y on pairs with dm in {1, 2} plus
pairwise z phases: 9 + 8 = 17 x-type generators, matching 2N - 3 for
N = 10.  The canonical decomposition is a Givens-style reduction using
dm = 1 pairs only, which is sufficient for any unitary; dm = 2
rotations enter the generator accounting and plan simulation as an
optional extension, not the reduction.

The reduction runs on Python complex scalars (a 10x10 target is too
small for NumPy calls to pay off): each Givens step updates the live
columns of its two rows, takes its Euler angles in closed form and
appends their inverses to three flat lists (lower basis index, axis,
angle), which carry the plan to its reconstruction check.  A plan's
rotations are plain tuples (:class:`PlanRotation`), built once, after
that check.  The plan product is the other way round: rotations on
disjoint pairs commute, so one layer product, shared by
:func:`decompose` and :meth:`RotationPlan.unitary`, packs them into
layers (the 144 rotations of a Haar plan fill 60) and takes one dense
10x10 product per layer.  Each row of a layer matrix is the row of the
one pair rotation that moves it, which keeps the product bit for bit
equal to the chained product of full pair-rotation matrices.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np

from . import dynamics, sequence as sq
from .model import FieldParams, LindbladSpec
from .spin_core import (DIM, F, INDEX_TOL, M_VALUES, m_index, pair_indices,
                        rotation_blocks)
# Imported by name so that perfbench/spans.py can wrap it here.
from .spin_core import pair_rotation  # noqa: F401

TWO_PI = 2.0 * np.pi
_M = M_VALUES.tolist()  # m_F of basis index i, as Python floats

# decompose rejects a target whose U^dag U is further than this from the
# identity in any entry.
UNITARITY_TOL = 1e-10
# decompose's default bound on the reconstruction error of its plan.
RECONSTRUCTION_TOL = 1e-9
# A Givens step is skipped when the entry it would zero is this small.
GIVENS_SKIP = 1e-15
# Euler angles of one Givens step: below EULER_DEGENERATE one of the two
# column entries counts as zero and the z-x-z triple loses its x or its
# split z; within EULER_SNAP of a multiple of pi/2 a z-x-z sandwich is
# snapped to one x or y element; angles (wrapped) no larger than
# ANGLE_DROP are dropped, from plans and from their lowering to pulses.
EULER_DEGENERATE = 1e-14
EULER_SNAP = 1e-12
ANGLE_DROP = 1e-13
# global_phase_distance takes no phase from a trace smaller than this.
TRACE_GUARD = 1e-300
# A plan that lowers to no pulse at all becomes one dark time this long
# (s), so that its sequence still compiles to a schedule.
EMPTY_PLAN_DARK_S = 1e-9


class SynthesisError(ValueError):
    pass


class PlanRotation(NamedTuple):
    """exp(-i angle sigma_axis / 2) on the levels m_low < m_high."""

    m_low: float
    m_high: float
    axis: str
    angle: float


def _layer_product(lows, highs, axes, angles) -> np.ndarray:
    """Product of the pair rotations on rows ``lows[k] < highs[k]``
    (integer basis indices), first acting first.

    The rotations are packed into layers as soon as possible: each goes
    into the first layer after the last rotation that touched either of
    its rows, so the rotations of one layer act on disjoint rows and
    commute.  One dense layer matrix holds all of them (the identity
    with each 2x2 block scattered in), and the layers are multiplied
    from the identity.  Row i of a layer matrix is row i of the
    :func:`pair_rotation` of the pair holding i, with zeros elsewhere, so
    every element of a layer product takes exactly the arithmetic of the
    chained product of full :func:`pair_rotation` matrices, bit for bit.
    """
    last = [-1] * DIM  # the last layer that touched each row
    bases = []  # flat offset of each rotation's layer matrix
    for i, j in zip(lows, highs):
        k = (last[i] if last[i] > last[j] else last[j]) + 1
        last[i] = last[j] = k
        bases.append(k * DIM * DIM)
    n_layers = max(last) + 1
    stack = np.zeros((n_layers, DIM, DIM), dtype=complex)
    stack.reshape(n_layers, DIM * DIM)[:, ::DIM + 1] = 1.0
    flat = stack.reshape(-1)
    blocks = rotation_blocks(axes, angles)
    base, i, j = (np.array(v, dtype=int) for v in (bases, lows, highs))
    flat[base + i * (DIM + 1)] = blocks[:, 0, 0]
    flat[base + i * DIM + j] = blocks[:, 0, 1]
    flat[base + j * DIM + i] = blocks[:, 1, 0]
    flat[base + j * (DIM + 1)] = blocks[:, 1, 1]
    u = np.eye(DIM, dtype=complex)
    for layer in stack:
        u = layer.dot(u)  # the zgemm of layer @ u, with less dispatch
    return u


@dataclass
class RotationPlan:
    """Ordered elementary rotations; the first entry acts first."""

    rotations: list[PlanRotation]
    reconstruction_error: float | None = None

    def __len__(self):
        return len(self.rotations)

    def unitary(self) -> np.ndarray:
        """Product of the rotations, first acting first, taken in layers
        of commuting rotations (:func:`_layer_product`)."""
        rotations = self.rotations
        axes = [r.axis for r in rotations]
        low = np.array([r.m_low for r in rotations]) + F
        high = np.array([r.m_high for r in rotations]) + F
        i_low, i_high = np.rint(low), np.rint(high)
        valid = ((np.abs(low - i_low) <= INDEX_TOL)
                 & (np.abs(high - i_high) <= INDEX_TOL)
                 & (0 <= i_low) & (i_low < i_high) & (i_high < DIM))
        if not (valid.all() and set(axes) <= {"x", "y", "z"}):
            for r in rotations:  # raises the SpinError of the first bad one
                pair_indices(r.m_low, r.m_high, r.axis)
        return _layer_product(i_low.astype(int).tolist(),
                              i_high.astype(int).tolist(), axes,
                              [r.angle for r in rotations])


def generator_set() -> list[tuple[float, float]]:
    """Available x-type pair generators: 2N - 3 = 17 for dm in {1, 2}."""
    pairs = []
    for dm in (1, 2):
        pairs.extend((float(m), float(m + dm)) for m in M_VALUES[:DIM - dm])
    return pairs


def haar_unitary(rng: np.random.Generator | None = None) -> np.ndarray:
    rng = rng or np.random.default_rng()
    z = rng.normal(size=(DIM, DIM)) + 1j * rng.normal(size=(DIM, DIM))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def global_phase_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Operator-norm distance minimized over a global phase."""
    tr = np.trace(v.conj().T @ u)
    phase = tr / abs(tr) if abs(tr) > TRACE_GUARD else 1.0
    return float(np.linalg.norm(u - phase * v, ord=2))


def _wrap(angle: float) -> float:
    """Wrap to (-2 pi, 2 pi]: exp(-i theta G/2) has period 4 pi in theta
    (theta and theta + 2 pi differ by a pair-local sign that is not a
    global phase on the full manifold)."""
    return (angle + TWO_PI) % (2 * TWO_PI) - TWO_PI


def _append_inverse_euler(g00: complex, g10: complex, low: int, lows: list,
                          axes: list, angles: list) -> None:
    """Append the inverse z-x-z Euler elements of one Givens step on the
    rows (low, low + 1) to the flat lists of a plan.

    The det-1 2x2 matrix g = [[g00, -conj(g10)], [g10, conj(g00)]] is
    Rz(gamma) Rx(beta) Rz(alpha), with Rz(t) = diag(e^{-it/2}, e^{it/2})
    and Rx(t) = exp(-i t sigma_x / 2).  Its elements are taken in
    application order (alpha first), each wrapped; near-zero angles are
    dropped, so a pure x rotation gives a single element, and each kept
    angle is appended negated.
    """
    abs00, abs10 = abs(g00), abs(g10)
    beta = 2.0 * math.atan2(abs10, abs00)
    if abs10 < EULER_DEGENERATE:
        elements = (("z", -2.0 * cmath.phase(g00)),)
    elif abs00 < EULER_DEGENERATE:
        gamma_minus_alpha = 2.0 * (cmath.phase(g10) + math.pi / 2)
        elements = (("x", beta), ("z", gamma_minus_alpha))
    else:
        gamma_plus_alpha = -2.0 * cmath.phase(g00)
        gamma_minus_alpha = 2.0 * (cmath.phase(g10) + math.pi / 2)
        alpha = (gamma_plus_alpha - gamma_minus_alpha) / 2.0
        gamma = (gamma_plus_alpha + gamma_minus_alpha) / 2.0
        elements = (("z", alpha), ("x", beta), ("z", gamma))
        # Rz(-a) Rx(b) Rz(a) is a single rotation about cos(a) x - sin(a) y,
        # which depends on a only modulo 2 pi; snap the exact x / y
        # sandwiches to one element.
        if abs(_wrap(alpha + gamma)) < EULER_SNAP:
            a = (alpha + math.pi) % TWO_PI - math.pi
            if abs(a) < EULER_SNAP:
                elements = (("x", beta),)
            elif abs(abs(a) - math.pi) < EULER_SNAP:
                elements = (("x", -beta),)
            elif abs(a - math.pi / 2) < EULER_SNAP:
                elements = (("y", -beta),)
            elif abs(a + math.pi / 2) < EULER_SNAP:
                elements = (("y", beta),)
    for axis, a in elements:
        if abs(w := _wrap(a)) > ANGLE_DROP:
            lows.append(low)
            axes.append(axis)
            angles.append(-w)


def decompose(target: np.ndarray, tolerance: float = RECONSTRUCTION_TOL
              ) -> RotationPlan:
    """Givens reduction of a 10x10 unitary onto adjacent-pair rotations.

    At most N(N-1)/2 Givens steps (each at most three elementary
    rotations, z-x-z) plus N-1 pairwise z phases for the residual
    diagonal; the global phase is discarded.
    """
    u = np.asarray(target, dtype=complex)
    if u.shape != (DIM, DIM):
        raise SynthesisError(f"target must be {DIM}x{DIM}")
    if np.max(np.abs(u.conj().T @ u - np.eye(DIM))) > UNITARITY_TOL:
        raise SynthesisError(f"target is not unitary to {UNITARITY_TOL:g}")

    work = u.tolist()
    # U = G_1^dag ... G_M^dag D: the inverse Euler elements of G_1, G_2,
    # ... collected in elimination order (lower row, axis, angle), then
    # reversed into time order.
    lows: list[int] = []
    axes: list[str] = []
    angles: list[float] = []
    for col in range(DIM - 1):
        for row in range(DIM - 1, col, -1):
            upper, lower = work[row - 1], work[row]
            v = lower[col]
            if abs(v) < GIVENS_SKIP:
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
            _append_inverse_euler(g00, g10, row - 1, lows, axes, angles)

    # Residual diagonal e^{i gamma_m}: adjacent z rotations with angles
    # from the telescoping recursion theta_k = theta_{k-1} - 2 phi_k,
    # phi_m = gamma_m - mean(gamma) (sums to zero exactly).  D acts first.
    gammas = [cmath.phase(work[k][k]) for k in range(DIM)]
    mean = sum(gammas) / DIM
    z_lows, z_angles = [], []
    theta = 0.0
    for k in range(DIM - 1):
        theta -= 2.0 * (gammas[k] - mean)
        if abs(theta) > ANGLE_DROP:
            z_lows.append(k)
            z_angles.append(theta)
    lows = z_lows + lows[::-1]
    highs = [i + 1 for i in lows]
    axes = ["z"] * len(z_lows) + axes[::-1]
    angles = z_angles + angles[::-1]
    err = global_phase_distance(u, _layer_product(lows, highs, axes, angles))
    if err > tolerance:
        raise SynthesisError(f"reconstruction error {err:.2e} above tolerance")
    # tuple.__new__ is PlanRotation._make without its length check
    rotations = list(map(tuple.__new__, repeat(PlanRotation), zip(
        [_M[i] for i in lows], [_M[i] for i in highs], axes, angles)))
    return RotationPlan(rotations=rotations, reconstruction_error=err)


# ---------------------------------------------------------------------------
# lowering to pulses and dissipative gate fidelity
# ---------------------------------------------------------------------------

def plan_to_sequence(plan: RotationPlan, fields: FieldParams, omega_hz: float,
                     cg_weighting: bool = True
                     ) -> tuple[sq.PulseSequence, np.ndarray]:
    """Lower a plan to resonant pulses with phase bookkeeping.

    z rotations are virtual: they (and the free in-frame level phases
    accumulated during earlier pulses) adjust the drive phases of later
    pulses, exactly like a phase-coherent DDS per transition; a pulse's
    in-frame phases come from the diagonal its compiled segment gets
    (:func:`sunspin.sequence.frame_diagonal`).  Returns
    the sequence and the final per-level frame phases phi_m (rad); the
    lab propagator of the compiled sequence equals
    diag(e^{-i phi_m}) @ plan.unitary() up to off-resonant leakage.
    A rotation that :meth:`RotationPlan.unitary` rejects raises the same
    :class:`SpinError` here.
    """
    # Combined ledger l_m: physical in-frame phases enter as +theta_m,
    # virtual z rotations as -zeta_m (an abstract Z between rotations
    # conjugates every later rotation with the opposite sense to the
    # frame evolution).  Lab propagator = diag(e^{-i l_m}) @ plan.
    level_phase = np.zeros(DIM)
    segments = []
    for r in plan.rotations:
        i, j = pair_indices(r.m_low, r.m_high, r.axis)
        if r.axis == "z":
            level_phase[i] -= r.angle / 2.0
            level_phase[j] += r.angle / 2.0
            continue
        axis_phase = 0.0 if r.axis == "x" else np.pi / 2
        angle = r.angle
        if angle < 0:
            angle, axis_phase = -angle, axis_phase + np.pi
        if angle <= ANGLE_DROP:
            continue
        drive_phase = axis_phase - (level_phase[j] - level_phase[i])
        seg = sq.pulse((r.m_low, r.m_high), omega_hz, area=angle,
                       phase=drive_phase, cg_weighting=cg_weighting)
        segments.append(seg)
        # free in-frame phases accumulated during this pulse, at the
        # diagonal compile gives it
        (tone,) = seg.tones
        frame = sq.frame_diagonal(fields, seg.tls_start, tone.lo_freq_hz(fields), tone.dm)
        level_phase += TWO_PI * frame * seg.duration
    if not segments:
        segments = [sq.dark_time(EMPTY_PLAN_DARK_S)]
    return sq.PulseSequence(segments=tuple(segments), fields=fields), level_phase


def average_gate_fidelity(s_channel: np.ndarray, s_ideal: np.ndarray,
                          active_levels) -> float:
    """Haar-average fidelity over states supported on ``active_levels``.

    F = (sum_k |tr_P A_k|^2 + sum_k tr_P(A_k^dag A_k)) / (d (d + 1)),
    A_k = P U^dag K_k P, from the channel's map and the ideal map
    kron(U, conj U) (row-major vec convention).
    """
    idx = [m_index(m) for m in active_levels]
    d = len(idx)
    s_eff = s_ideal.conj().T @ s_channel
    resh = s_eff.reshape(DIM, DIM, DIM, DIM)  # [out_i, out_j, in_k, in_l]
    tr2 = sum(resh[i, j, i, j].real for i in idx for j in idx)
    trp = sum(resh[i, i, j, j].real for i in idx for j in idx)
    return float((tr2 + trp) / (d * (d + 1)))


def simulate_plan(plan: RotationPlan, fields: FieldParams,
                  lindblad: LindbladSpec | None, omega_hz: float,
                  active_levels=None, cg_weighting: bool = True) -> float:
    """Average gate fidelity of the pulsed realization under dissipation.

    The plan is lowered to resonant pulses and simulated with the given
    channels; the reference is the map of the same schedule without
    them, so the reported infidelity isolates dissipation (the
    residual off-resonant leakage of the pulses themselves is a separate,
    coherent effect probed by the leakage scan).  Averaging runs over
    input states on the plan's active levels.
    """
    if active_levels is None:
        levels = sorted({m for r in plan.rotations for m in (r.m_low, r.m_high)})
        active_levels = levels or [-2.5, -1.5]
    seq, _ = plan_to_sequence(plan, fields, omega_hz, cg_weighting=cg_weighting)
    s_sim = dynamics.pullback(sq.compile(seq, lindblad=lindblad), np.eye(DIM * DIM))
    s_ref = dynamics.pullback(sq.compile(seq), np.eye(DIM * DIM))
    return average_gate_fidelity(s_sim, s_ref, active_levels)
