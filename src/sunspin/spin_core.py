"""Exact linear algebra for the F = 9/2 Zeeman manifold.

Provides the two-level ("pair") su(N) generators, the usual spin-F
operators, Clebsch-Gordan coefficients, the Majorana stellar
representation, and the sub-Bloch-sphere picture of adjacent-level
coherences.

Conventions (shared by every module in this package):

* Basis index ``i`` corresponds to ``m_F = i - 9/2``, ascending, so
  index 0 is m_F = -9/2 and index 9 is m_F = +9/2.
* A "rotation about x" on a pair means ``exp(-i theta sigma_x / 2)``.
  The sub-Bloch vector of pair ``(m, m+1)`` is
  ``u = 2 Re rho(m, m+1)``, ``v = 2 Im rho(m, m+1)``,
  ``w = p(m) - p(m+1)``, which makes
  ``exp(-i (pi/2) sigma_x / 2)|m> -> (u, v, w) = (0, 1, 0)``.
* Pair rotations are built in closed form,
  ``cos(theta/2) I - i sin(theta/2) sigma`` on the two levels and the
  identity elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

F = 4.5
DIM = 10
M_VALUES = np.arange(DIM) - F  # m_F ascending, index 0 <-> -9/2

_AXES = ("x", "y", "z")


class SpinError(ValueError):
    """Invalid quantum numbers or states."""


def m_index(m: float) -> int:
    """Index of the Zeeman level with projection ``m`` (m_F = -9/2 .. +9/2)."""
    i = m + F
    j = int(round(i))
    if abs(i - j) > 1e-9 or not 0 <= j < DIM:
        raise SpinError(f"invalid spin projection m_F = {m}")
    return j


def basis_state(m: float) -> np.ndarray:
    """Unit vector |m>."""
    psi = np.zeros(DIM, dtype=complex)
    psi[m_index(m)] = 1.0
    return psi


def normalize(psi: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(psi)
    if n < 1e-14:
        raise SpinError("cannot normalize a zero state")
    return np.asarray(psi, dtype=complex) / n


def density_matrix(state_or_rho: np.ndarray) -> np.ndarray:
    """Promote a pure state to a density matrix; pass density matrices through."""
    arr = np.asarray(state_or_rho, dtype=complex)
    if arr.ndim == 1:
        return np.outer(arr, arr.conj())
    if arr.shape != (DIM, DIM):
        raise SpinError(f"expected a length-{DIM} state or {DIM}x{DIM} density matrix")
    return arr


# Row-major entries (00, 01, 10, 11) of the 2x2 identity and Pauli matrices.
_IDENTITY_2 = (1, 0, 0, 1)
_PAULI = {"x": (0, 1, 1, 0), "y": (0, -1j, 1j, 0), "z": (1, 0, 0, -1)}


def pair_indices(m_low: float, m_high: float, axis: str) -> tuple[int, int]:
    """Basis indices (i, j), i < j, of a pair generator's two levels."""
    if axis not in _AXES:
        raise SpinError(f"axis must be one of {_AXES}, got {axis!r}")
    i, j = m_index(m_low), m_index(m_high)
    if i >= j:
        raise SpinError("pair generator requires m_low < m_high")
    return i, j


def pair_generator(m_low: float, m_high: float, axis: str) -> np.ndarray:
    """Pauli matrix embedded on the two-level subspace {|m_low>, |m_high>}.

    The restriction to span{|m_low>, |m_high>} (ordered ascending) is the
    2x2 Pauli matrix for ``axis``; every other entry is zero.  sigma_z is
    +1 on the lower projection.
    """
    i, j = pair_indices(m_low, m_high, axis)
    g = np.zeros((DIM, DIM), dtype=complex)
    g[i, i], g[i, j], g[j, i], g[j, j] = _PAULI[axis]
    return g


def pair_rotation(m_low: float, m_high: float, axis: str, angle: float) -> np.ndarray:
    """Unitary exp(-i angle * sigma_axis(m_low, m_high) / 2)."""
    i, j = pair_indices(m_low, m_high, axis)
    u = np.eye(DIM, dtype=complex)
    u[i, i], u[i, j], u[j, i], u[j, j] = rotation_blocks((axis,), (angle,)).flat
    return u


def rotation_blocks(axes, angles) -> np.ndarray:
    """The 2x2 blocks cos(angle/2) I - i sin(angle/2) sigma_axis, shape
    (n, 2, 2), one per (axis, angle) pair, from one cos and one sin call."""
    half = np.asarray(angles, dtype=float) / 2
    pauli = np.array([_PAULI[a] for a in axes], dtype=complex).reshape(-1, 4)
    blocks = (np.cos(half)[:, None] * np.array(_IDENTITY_2)
              - 1j * np.sin(half)[:, None] * pauli)
    return blocks.reshape(-1, 2, 2)


def spin_operators(f: float = F) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Standard spin-f matrices (F_x, F_y, F_z) in the ascending-m basis."""
    two_f = round(2 * f)
    if abs(2 * f - two_f) > 1e-9 or two_f < 0:
        raise SpinError(f"f must be a non-negative half-integer, got {f}")
    dim = two_f + 1
    m = np.arange(dim) - f
    fz = np.diag(m.astype(complex))
    # <m+1| F+ |m> = sqrt(f(f+1) - m(m+1))
    raise_elems = np.sqrt(f * (f + 1) - m[:-1] * (m[:-1] + 1))
    fp = np.zeros((dim, dim), dtype=complex)
    fp[np.arange(1, dim), np.arange(dim - 1)] = raise_elems
    fx = 0.5 * (fp + fp.conj().T)
    fy = -0.5j * (fp - fp.conj().T)
    return fx, fy, fz


def _as_int(x: float) -> int | None:
    i = round(x)
    return i if abs(x - i) < 1e-9 else None


def clebsch_gordan(f1: float, m1: float, f2: float, m2: float, f: float, m: float) -> float:
    """Clebsch-Gordan coefficient <f1 m1; f2 m2 | f m>, Condon-Shortley.

    Out-of-range or selection-rule-violating quantum numbers return 0.
    Evaluated with the Racah closed form using exact integer factorials.
    """
    if abs(m1) > f1 or abs(m2) > f2 or abs(m) > f:
        return 0.0
    if _as_int(m1 + m2 - m) != 0:
        return 0.0
    if f > f1 + f2 or f < abs(f1 - f2):
        return 0.0
    # All factorial arguments must be non-negative integers.
    int_args = [f1 + m1, f1 - m1, f2 + m2, f2 - m2, f + m, f - m,
                f1 + f2 - f, f1 - f2 + f, -f1 + f2 + f, f1 + f2 + f + 1]
    ints = [_as_int(a) for a in int_args]
    if any(v is None or v < 0 for v in ints):
        return 0.0
    fac = math.factorial
    norm = (2 * f + 1) * fac(ints[6]) * fac(ints[7]) * fac(ints[8]) / fac(ints[9])
    norm *= fac(ints[4]) * fac(ints[5]) * fac(ints[0]) * fac(ints[1]) * fac(ints[2]) * fac(ints[3])
    total = 0.0
    k_max = min(ints[6], ints[1], ints[2])
    for k in range(0, k_max + 1):
        denoms = (k,
                  ints[6] - k,                      # f1+f2-f-k
                  ints[1] - k,                      # f1-m1-k
                  ints[2] - k,                      # f2+m2-k
                  _as_int(f - f2 + m1) + k,         # f-f2+m1+k
                  _as_int(f - f1 - m2) + k)         # f-f1-m2+k
        if any(d < 0 for d in denoms):
            continue
        term = 1.0
        for d in denoms:
            term *= fac(d)
        total += (-1.0) ** k / term
    return math.sqrt(norm) * total


@dataclass(frozen=True)
class MajoranaRoots:
    """2F points on the unit sphere encoding a pure spin-F state."""

    theta: np.ndarray  # polar angles, 0 = north pole (m = +F coherent direction)
    phi: np.ndarray    # azimuthal angles

    def __len__(self) -> int:
        return len(self.theta)


def _majorana_coefficients(state: np.ndarray) -> np.ndarray:
    """Polynomial coefficients, highest power of z first.

    P(z) = sum_k (-1)^k sqrt(C(2F, k)) c_{F-k} z^(2F-k) with k = F - m.
    """
    n = len(state) - 1  # 2F
    coeffs = np.empty(n + 1, dtype=complex)
    for k in range(n + 1):
        coeffs[k] = (-1.0) ** k * math.sqrt(math.comb(n, k)) * state[n - k]
    return coeffs


def majorana_roots(state: np.ndarray, cluster_tol: float = 1e-8) -> MajoranaRoots:
    """Majorana stellar representation of a pure state.

    Roots of the Majorana polynomial mapped to the sphere through
    z = tan(theta/2) e^{i phi}; missing leading degrees (roots at
    infinity) map to the south pole.  Roots closer than ``cluster_tol``
    are snapped to their cluster centroid so that degenerate roots are
    repeated with multiplicity.
    """
    psi = normalize(np.asarray(state, dtype=complex))
    coeffs = _majorana_coefficients(psi)
    scale = np.max(np.abs(coeffs))
    lead = 0
    while lead < len(coeffs) - 1 and abs(coeffs[lead]) < 1e-13 * scale:
        lead += 1
    trimmed = coeffs[lead:]
    n_inf = lead  # degree deficit -> roots at z = infinity (south pole)
    if len(trimmed) > 1:
        z = np.roots(trimmed)
    else:
        z = np.array([], dtype=complex)
    theta = 2.0 * np.arctan(np.abs(z))
    phi = np.angle(z)
    theta = np.concatenate([theta, np.full(n_inf, np.pi)])
    phi = np.concatenate([phi, np.zeros(n_inf)])
    if cluster_tol > 0 and len(theta) > 1:
        theta, phi = _cluster_sphere_points(theta, phi, cluster_tol)
    order = np.lexsort((phi, theta))
    return MajoranaRoots(theta=theta[order], phi=phi[order])


def _cluster_sphere_points(theta, phi, tol):
    pts = np.column_stack((np.sin(theta) * np.cos(phi),
                           np.sin(theta) * np.sin(phi),
                           np.cos(theta)))
    n = len(pts)
    assigned = np.full(n, -1)
    centers = []
    for i in range(n):
        for c, ctr in enumerate(centers):
            if np.linalg.norm(pts[i] - ctr) < tol:
                assigned[i] = c
                break
        if assigned[i] < 0:
            assigned[i] = len(centers)
            centers.append(pts[i])
    out_t = np.empty(n)
    out_p = np.empty(n)
    for c in range(len(centers)):
        members = assigned == c
        ctr = pts[members].mean(axis=0)
        r = np.linalg.norm(ctr)
        ctr = ctr / r if r > 0 else np.array([0.0, 0.0, 1.0])
        out_t[members] = np.arccos(np.clip(ctr[2], -1, 1))
        out_p[members] = np.arctan2(ctr[1], ctr[0])
    return out_t, out_p


def state_from_majorana_roots(roots: MajoranaRoots) -> np.ndarray:
    """Inverse of :func:`majorana_roots`, up to global phase."""
    n = len(roots)
    at_inf = roots.theta > np.pi - 1e-12
    z = np.tan(roots.theta[~at_inf] / 2.0) * np.exp(1j * roots.phi[~at_inf])
    poly = np.polynomial.polynomial.polyfromroots(z)[::-1]  # highest power first
    coeffs = np.concatenate([np.zeros(int(at_inf.sum()), dtype=complex), poly])
    state = np.empty(n + 1, dtype=complex)
    for k in range(n + 1):
        state[n - k] = (-1.0) ** k * coeffs[k] / math.sqrt(math.comb(n, k))
    return normalize(state)


@dataclass(frozen=True)
class SubBlochVector:
    """Bloch vector of the two-level subspace (m, m+1)."""

    m_low: float
    u: float
    v: float
    w: float

    @property
    def pair(self) -> tuple[float, float]:
        return (self.m_low, self.m_low + 1)


def sub_bloch_vector(state_or_rho: np.ndarray, m: float) -> SubBlochVector:
    """(u, v, w) of the pair (m, m+1) from the restricted density matrix."""
    i, j = m_index(m), m_index(m + 1)
    rho = density_matrix(state_or_rho)
    coh = rho[i, j]
    return SubBlochVector(m_low=float(m),
                          u=2.0 * coh.real,
                          v=2.0 * coh.imag,
                          w=(rho[i, i] - rho[j, j]).real)
