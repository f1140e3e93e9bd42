"""Time evolution engines for the 10-level manifold.

Pure-state Schroedinger propagation and Lindblad master-equation
propagation over piecewise-defined time-dependent Hamiltonians.  The
engines take a :class:`Schedule` of data :class:`Segment` s (built by
:func:`sunspin.sequence.compile`) or a constant matrix, held as one
segment.  :meth:`Segment.hamiltonian` is the one place H(t) is
evaluated, and every segment's Liouvillian is its Hamiltonian part plus
mult(t) D_s + D_f: the TLS multiplier times the dissipator of the
scaled channels, plus that of the fixed ones.  Hamiltonians are in
ordinary frequency units (Hz); the 2*pi lives in the equations of
motion.  Rates are 1/e rates in 1/s.

All four engines are folds of one schedule walker over one segment
stepper.  The stepper advances a state of shape (d,) or (d, k) in
Hilbert space (d = 10) or in Liouville space (row-major vec(rho),
d = 100): ``evolve_pure`` walks a state vector, ``evolve_density`` a
vectorized density matrix, ``propagator`` the 10x10 identity and
``superoperator`` the 100x100 identity.  Each segment gets one method
by its kind:

* constant H, Hilbert space - exact stepping through the
  eigendecomposition of H; arbitrarily long steps at machine precision.
* diagonal H, Hilbert space (dark times and TLS ramps: diagonal entries
  linear in t) - a phase vector by exact quadrature.
* constant H, Liouville space - with at least ``EIG_MIN_ENDS``
  distinct ends, every end straight from the segment start through
  one eigendecomposition L = V diag(lambda) V^-1
  (method 14 of Moler & Van Loan, SIAM Rev. 45, 3 (2003)); with fewer
  ends, or when cond(V) exceeds ``EIG_COND_MAX`` (L is not normal and
  can be defective), chained exponentials of the Liouvillian.
* diagonal H with diagonal/transfer channels, Liouville space - closed
  form: populations through the exponential of the classical rate
  matrix, coherences through phases and scalar decay factors.  Exact
  for the channel structure this package generates, so
  ``superoperator`` steps dark segments in closed form too.
* anything else - adaptive RK45 on the flattened state, with the
  maximum step bounded by 1/(50 f_max), one solve per stretch between
  the corners of a linear ramp; in Liouville space in commutator form,
  building no Liouvillian.

Work that depends only on content is done once and kept: per channel
set, the 100x100 dissipator and the closed-form rate and coherence
matrices; per constant Liouville segment, the map expm(L dt) for each
step length dt.  Both caches are keyed by the bytes of the operators and
Hamiltonian, the rates and the multiplier, never by object identity, so
identical pulses at different scan points share one map.  Cached arrays
are read-only; ``clear_caches`` empties both.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from .spin_core import DIM, m_index

TWO_PI = 2.0 * np.pi

DEFAULT_RTOL = 1e-9
DEFAULT_ATOL = 1e-12

# Distinct segment ends from which one eigendecomposition beats chained
# expm: a 100x100 eig plus inverse costs 8.9 + 0.85 ms against 2.8-5.0 ms
# per expm (1 BLAS thread on a 2-vCPU x86-64 host).
EIG_MIN_ENDS = 4
# Largest accepted ||V||_1 ||V^-1||_1 of the Liouvillian's eigenvectors.
# The eigen path's deviation from expm grows with cond(V): on a decaying
# driven pair near its exceptional point it was 1e-13 at cond(V) = 4e3,
# 2e-12 at 3e4 and 6e-9 at the defective point itself (cond(V) = 1e8).
# The package's own Rabi segments have cond(V) below 20.
EIG_COND_MAX = 1e4
# Entries kept by content: channel sets (a 160 KB dissipator each) and
# constant-segment Liouville maps (160 KB each).  Each bundled config
# uses at most 2 distinct sets and 4 distinct maps; one pass over the
# damped Rabi scans uses 3 sets, one over the noisy dual Ramsey 5 maps.
CHANNEL_SETS_CACHED = 4
MAPS_CACHED = 8
# A segment whose TLS multiplier moves by less than this is flat, and a
# tone beating slower than this (Hz) is static: a square, rotating-frame
# segment with both is constant.
FLAT_MULTIPLIER = 1e-15
ZERO_BEAT_HZ = 1e-12


class DynamicsError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# schedule representation
# ---------------------------------------------------------------------------

def _trapezoid(s: float, r: float) -> float:
    if s < r:
        return s / r
    if s > 1 - r:
        return (1 - s) / r
    return 1.0


# Pulse envelopes as functions of the segment fraction s in [0, 1] and
# the envelope parameter r (the ramp fraction of linear_ramp).
ENVELOPES = {
    "square": lambda s, r: 1.0,
    "linear_ramp": _trapezoid,
    "raised_cosine": lambda s, r: 0.5 * (1.0 - np.cos(2 * np.pi * s)),
}


@dataclass(frozen=True)
class Segment:
    """One piecewise element of a schedule, held as plain data.

    ``diag_start`` and ``diag_end`` are the level diagonal (Hz) at the
    TLS multiplier endpoints ``mult_start`` and ``mult_end``; across the
    segment both move linearly in t.  Each tone is (upper coupling
    triangle, beat Hz, phase rad), driven under ``envelope`` in the
    rotating frame, or in the lab-beat frame when ``lab``.
    ``channels`` hold (jump operator, base rate); their rates are scaled
    by the multiplier.  ``channels_fixed`` are not multiplier-scaled.
    """

    t0: float
    t1: float
    diag_start: np.ndarray
    diag_end: np.ndarray
    tones: tuple[tuple[np.ndarray, float, float], ...] = ()
    envelope: str = "square"
    envelope_param: float = 0.25
    lab: bool = False
    channels: tuple[tuple[np.ndarray, float], ...] = ()
    channels_fixed: tuple[tuple[np.ndarray, float], ...] = ()
    mult_start: float = 1.0
    mult_end: float = 1.0
    label: str = ""

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    @functools.cached_property
    def kind(self) -> str:
        """constant | diagonal (no tones) | general: what the stepper sees."""
        if not self.tones:
            return "diagonal"
        static = (self.envelope == "square" and not self.lab
                  and abs(self.mult_end - self.mult_start) < FLAT_MULTIPLIER
                  and all(abs(beat) < ZERO_BEAT_HZ for _, beat, _ in self.tones))
        return "constant" if static else "general"

    @functools.cached_property
    def h_const(self) -> np.ndarray | None:
        """H of a constant segment; None for the other kinds."""
        return self.hamiltonian(self.t0) if self.kind == "constant" else None

    @functools.cached_property
    def f_max_hz(self) -> float:
        """Frequency scale of H (Hz), which bounds the RK45 step."""
        if self.kind == "constant":
            return float(np.max(np.abs(self.h_const)))
        return float(max(np.max(np.abs(self.diag_start)), np.max(np.abs(self.diag_end)),
                         *(abs(beat) for _, beat, _ in self.tones)))

    @property
    def kinks(self) -> tuple[float, ...]:
        """Times inside the segment where the envelope is not smooth:
        the corners of a linear ramp."""
        if self.envelope != "linear_ramp":
            return ()
        ramp = self.envelope_param * self.duration
        return tuple(sorted(t for t in {self.t0 + ramp, self.t1 - ramp}
                            if self.t0 < t < self.t1))

    def hamiltonian(self, t: float) -> np.ndarray:
        """H(t) (Hz): the package's one Raman Hamiltonian.

        The level diagonal at the ramped TLS multiplier plus, per tone
        (coupling triangle, beat rate, phase), the enveloped coupling and
        its conjugate: rotating at the residual beat in the RWA frame,
        oscillating as 2 cos at the full beat (counter-rotating terms
        kept) in the lab-beat frame.  The drive phase rides on the
        raising coupling |high><low|, so the stored (low, high) side gets
        e^{-i.}.
        """
        s = np.clip(self._fraction(t), 0.0, 1.0)
        hm = np.diag(self._diag_at(s)).astype(complex)
        env = ENVELOPES[self.envelope](s, self.envelope_param)
        for cmat, rate, phi0 in self.tones:
            arg = 2 * np.pi * rate * (t - self.t0) + phi0
            if self.lab:
                upper = 2.0 * env * cmat * np.cos(arg)
            else:
                upper = env * cmat * np.exp(-1j * arg)
            hm += upper + upper.conj().T
        return hm

    def _fraction(self, t: float) -> float:
        return (t - self.t0) / self.duration if self.duration > 0 else 0.0

    def _diag_at(self, s: float) -> np.ndarray:
        return self.diag_start + s * (self.diag_end - self.diag_start)

    def _diag_integral(self, ta: float, tb: float) -> np.ndarray:
        """Exact integral of the (linear-in-t) diagonal over [ta, tb], Hz*s."""
        return 0.5 * (self._diag_at(self._fraction(ta))
                      + self._diag_at(self._fraction(tb))) * (tb - ta)

    def multiplier(self, t: float) -> float:
        s = self._fraction(t)
        return self.mult_start + s * (self.mult_end - self.mult_start)

    def _multiplier_integral(self, ta: float, tb: float) -> float:
        return 0.5 * (self.multiplier(ta) + self.multiplier(tb)) * (tb - ta)


@dataclass(frozen=True)
class Schedule:
    """Ordered piecewise schedule; segments touch without gaps."""

    segments: tuple[Segment, ...]
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        for a, b in zip(self.segments, self.segments[1:]):
            if abs(a.t1 - b.t0) > 1e-12 * max(1.0, abs(a.t1)):
                raise DynamicsError("schedule segments must be contiguous")

    @property
    def t0(self) -> float:
        return self.segments[0].t0

    @property
    def t1(self) -> float:
        return self.segments[-1].t1

    def hamiltonian(self, t: float) -> np.ndarray:
        return self._segment_at(t).hamiltonian(t)

    def _segment_at(self, t: float) -> Segment:
        for seg in self.segments:
            if seg.t0 <= t <= seg.t1 + 1e-15:
                return seg
        raise DynamicsError(f"time {t} outside schedule [{self.t0}, {self.t1}]")

    def has_dissipation(self) -> bool:
        return any(seg.channels or seg.channels_fixed for seg in self.segments)


def _coerce_schedule(hamiltonian, t0, t1, channels=()) -> Schedule:
    """Accept a compiled Schedule, or a constant matrix held over [t0, t1].

    The matrix is stored as its real diagonal plus one zero-beat tone
    carrying its upper triangle.
    """
    if isinstance(hamiltonian, Schedule):
        return hamiltonian
    channels = tuple((np.asarray(op, dtype=complex), float(r)) for op, r in channels)
    if any(r < 0 for _, r in channels):
        raise DynamicsError("negative channel rate")
    h0 = np.asarray(hamiltonian, dtype=complex)
    _check_hermitian(h0)
    diag = h0.diagonal().real.copy()
    return Schedule((Segment(t0=t0, t1=t1, diag_start=diag, diag_end=diag,
                             tones=((np.triu(h0, 1), 0.0, 0.0),),
                             channels=channels),))


def _check_hermitian(h: np.ndarray, tol: float = 1e-9):
    scale = max(1.0, np.max(np.abs(h)))
    if np.max(np.abs(h - h.conj().T)) > tol * scale:
        raise DynamicsError("non-Hermitian Hamiltonian sample")


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

@dataclass
class Trajectory:
    """Sampled evolution: states at strictly increasing times."""

    times: np.ndarray
    states: np.ndarray          # (n, 10) complex or (n, 10, 10) complex
    kind: str                   # pure | density
    meta: dict = field(default_factory=dict)

    def populations(self) -> np.ndarray:
        if self.kind == "pure":
            return np.abs(self.states) ** 2
        return np.real(np.einsum("nii->ni", self.states))

    def coherence(self, m1: float, m2: float) -> np.ndarray:
        i, j = m_index(m1), m_index(m2)
        if self.kind == "pure":
            return self.states[:, i] * self.states[:, j].conj()
        return self.states[:, i, j]

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]

    def to_csv(self, path, coherence_pairs: Sequence[tuple[float, float]] = ()):
        cols = [self.times] + list(self.populations().T)
        header = ["time_s"] + [f"pop_{m:+.1f}" for m in np.arange(DIM) - 4.5]
        for m1, m2 in coherence_pairs:
            c = self.coherence(m1, m2)
            cols += [c.real, c.imag]
            header += [f"re_coh_{m1:+.1f}_{m2:+.1f}", f"im_coh_{m1:+.1f}_{m2:+.1f}"]
        data = np.column_stack(cols)
        np.savetxt(path, data, delimiter=",", header=",".join(header),
                   comments="", fmt="%.12g")


def _resolve_times(schedule: Schedule, t_eval) -> np.ndarray:
    if t_eval is None:
        times = np.array([schedule.t0, schedule.t1])
    else:
        times = np.atleast_1d(np.asarray(t_eval, dtype=float))
    if np.any(np.diff(times) <= 0):
        raise DynamicsError("sample times must be strictly increasing")
    if times[0] < schedule.t0 - 1e-12 or times[-1] > schedule.t1 + 1e-12:
        raise DynamicsError("sample times outside the schedule span")
    return times


# ---------------------------------------------------------------------------
# the schedule walker and the segment stepper
# ---------------------------------------------------------------------------

def _walk(schedule: Schedule, state: np.ndarray, times, tol: float,
          liouville: bool) -> tuple[list, np.ndarray]:
    """Fold ``state`` through the schedule.

    Returns the states at ``times`` (sorted, inside the schedule span)
    and the state at the end of the last segment stepped; with no
    sample times every segment is stepped.
    """
    if not liouville and schedule.has_dissipation():
        raise DynamicsError("unitary evolution cannot carry dissipation channels")
    samples: list = []
    t_from = schedule.t0
    for seg in schedule.segments:
        inside = [float(t) for t in times[len(samples):] if t <= seg.t1 + 1e-15]
        got, state = _step(seg, state, t_from, inside, tol, liouville)
        samples += got
        t_from = seg.t1
        if len(times) and len(samples) == len(times):
            break
    if len(samples) < len(times):
        raise DynamicsError("failed to reach all sample times")
    return samples, state


def _step(seg: Segment, state, t_from, sample_ts, tol, liouville):
    """Advance ``state`` from ``t_from`` to seg.t1.

    Returns (states at ``sample_ts``, state at seg.t1).  This is the
    one place that picks a segment's method (see the module docstring).
    """
    ends = sample_ts + [seg.t1]
    if not liouville and seg.kind == "constant":
        w, v = np.linalg.eigh(seg.h_const)
        states = _spectral(-1j * TWO_PI * w, v, v.conj().T, state, t_from, ends)
    elif not liouville and seg.kind == "diagonal":
        states = [_rows(np.exp(-1j * TWO_PI * seg._diag_integral(t_from, ts)), state)
                  for ts in ends]
    elif seg.kind == "constant":
        key = (seg.h_const.tobytes(), _channel_key(seg.channels),
               _channel_key(seg.channels_fixed), seg.mult_start)
        eigen = (_eigen(_constant_liouvillian(*key))
                 if len(set(ends)) >= EIG_MIN_ENDS else None)
        if eigen is not None:
            states = _spectral(*eigen, state, t_from, ends)
        else:
            states = _chained(lambda vec, ta, tb: _constant_map(*key, tb - ta) @ vec,
                              state, t_from, ends)
    elif _has_closed_form(seg):
        states = _chained(_closed_form_step(seg), state, t_from, ends)
    else:
        states = _rk45(seg, state, t_from, ends, tol, liouville)
    return states[:len(sample_ts)], states[-1]


def _rows(factors: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``factors`` times x, broadcast over x's trailing axes.

    A vector of factors gives diag(factors) @ x for x of shape (n,) or
    (n, k); an (n, n) array scales (n, n) or (n, n, k) entrywise.
    """
    return factors.reshape(factors.shape + (1,) * (x.ndim - factors.ndim)) * x


def _spectral(rates, v, v_inv, state, t_from, ends):
    """States at ``ends``: v diag(exp(rates (t - t_from))) v_inv @ state."""
    coeff = v_inv @ state
    return [v @ _rows(np.exp(rates * (ts - t_from)), coeff) for ts in ends]


def _eigen(sup: np.ndarray):
    """(eigenvalues, V, V^-1) of ``sup``, or None when V is ill-conditioned."""
    lam, v = np.linalg.eig(sup)
    try:
        v_inv = np.linalg.inv(v)
    except np.linalg.LinAlgError:
        return None
    if np.linalg.norm(v, 1) * np.linalg.norm(v_inv, 1) > EIG_COND_MAX:
        return None
    return lam, v, v_inv


def _chained(step, state, t_from, ends):
    """States at ``ends`` from successive steps ``step(state, ta, tb)``."""
    states, t_prev = [], t_from
    for ts in ends:
        if ts > t_prev:
            state = step(state, t_prev, ts)
            t_prev = ts
        states.append(state)
    return states


def _max_step(seg: Segment) -> float:
    span = seg.duration
    if seg.f_max_hz <= 0:
        return span if span > 0 else np.inf
    return min(span, 1.0 / (50.0 * seg.f_max_hz)) if span > 0 else np.inf


def _rk45(seg: Segment, state, t_from, ends, tol, liouville):
    shape = state.shape
    if liouville:
        d_scaled = _channel_set(seg.channels).dissipator
        d_fixed = _channel_set(seg.channels_fixed).dissipator

        def rhs(t, y):
            # -2 pi i [H, rho] on each column, then the dissipators
            vec = y.reshape(DIM * DIM, -1)
            rho = vec.reshape(DIM, DIM, -1).transpose(2, 0, 1)
            h = seg.hamiltonian(t)
            comm = (h @ rho - rho @ h).transpose(1, 2, 0)
            return (-1j * TWO_PI * comm.reshape(vec.shape)
                    + seg.multiplier(t) * (d_scaled @ vec)
                    + d_fixed @ vec).reshape(-1)
    else:
        def rhs(t, y):
            return (-1j * TWO_PI * (seg.hamiltonian(t) @ y.reshape(shape))).reshape(-1)

    # RK45's error control assumes a smooth right-hand side, so each
    # stretch between kinks of the envelope is solved on its own
    max_step = _max_step(seg)
    y, states, t_a = state.reshape(-1), [], t_from
    for t_b in [t for t in seg.kinks if t > t_from]:
        here = [t for t in ends[len(states):] if t <= t_b]
        *got, y = _rk45_span(rhs, y, t_a, here + [t_b], tol, max_step)
        states += got
        t_a = t_b
    states += _rk45_span(rhs, y, t_a, ends[len(states):], tol, max_step)
    return [s.reshape(shape) for s in states]


def _rk45_span(rhs, y, t_from, ends, tol, max_step):
    """Flat states at ``ends`` (the last one is the span's end)."""
    # t_eval must stay inside the span, so a last sample within 1e-18 s
    # of the span's end stands for the end state
    samples = ends[:-1]
    at_end = bool(samples) and samples[-1] >= ends[-1] - 1e-18
    t_eval = samples if at_end else ends
    sol = solve_ivp(rhs, (t_from, ends[-1]), y, t_eval=t_eval, rtol=tol,
                    atol=tol * 1e-3, max_step=max_step, method="RK45")
    if not sol.success:
        raise DynamicsError(f"integrator failure: {sol.message}")
    states = [sol.y[:, k] for k in range(len(t_eval))]
    return states + states[-1:] if at_end else states


# ---------------------------------------------------------------------------
# pure-state propagation
# ---------------------------------------------------------------------------

def evolve_pure(state: np.ndarray, hamiltonian, t0: float = 0.0,
                t1: float | None = None, tol: float = DEFAULT_RTOL,
                t_eval=None) -> Trajectory:
    """Schroedinger evolution of a normalized pure state.

    ``hamiltonian`` is a compiled :class:`Schedule` or a constant 10x10
    Hermitian matrix (Hz) held from ``t0`` to ``t1``.  A schedule whose
    segments carry dissipation channels raises.
    """
    psi = np.asarray(state, dtype=complex)
    if abs(np.linalg.norm(psi) - 1.0) > 1e-9:
        raise DynamicsError("initial state is not normalized")
    schedule = _coerce_schedule(hamiltonian, t0, t1 if t1 is not None else t0)
    times = _resolve_times(schedule, t_eval)
    out = np.array(_walk(schedule, psi, times, tol, liouville=False)[0])
    norm_err = abs(np.linalg.norm(out[-1]) - 1.0)
    if norm_err > max(1e-6, 100 * tol):
        raise DynamicsError(f"norm drift {norm_err:.2e}; reduce tol or max step")
    return Trajectory(times=times, states=out, kind="pure",
                      meta={"tol": tol, **schedule.meta})


# ---------------------------------------------------------------------------
# density-matrix propagation
# ---------------------------------------------------------------------------

def liouvillian(h: np.ndarray, channels: Sequence[tuple[np.ndarray, float]]) -> np.ndarray:
    """Superoperator on row-major-vectorized rho (100x100), 1/s units.

    The Hamiltonian part plus the channel set's dissipator, which is
    built once per distinct set of (operator, rate) contents and kept
    read-only; the returned sum is a new array.
    """
    eye = np.eye(DIM)
    return (-1j * TWO_PI * (np.kron(h, eye) - np.kron(eye, h.T))
            + _channel_set(channels).dissipator)


class _ChannelSet(NamedTuple):
    """What depends only on a channel set, built once per set."""

    dissipator: np.ndarray                # 100x100; zero-rate channels dropped
    diagonal_safe: bool                   # over every channel, zero rates too
    rate_matrix: np.ndarray | None        # closed-form data, if diagonal_safe
    coherence_rates: np.ndarray | None


def _channel_key(channels) -> tuple:
    return tuple((np.asarray(op, dtype=complex).tobytes(), float(rate))
                 for op, rate in channels)


def _channels_of(key: tuple) -> list[tuple[np.ndarray, float]]:
    return [(np.frombuffer(op, dtype=complex).reshape(DIM, DIM), rate)
            for op, rate in key]


def _channel_set(channels) -> _ChannelSet:
    return _channel_set_of(_channel_key(channels))


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=CHANNEL_SETS_CACHED)
def _channel_set_of(key: tuple) -> _ChannelSet:
    channels = _channels_of(key)
    eye = np.eye(DIM)
    dissipator = np.zeros((DIM * DIM, DIM * DIM), dtype=complex)
    for op, rate in channels:
        if rate == 0:
            continue
        ll = op.conj().T @ op
        dissipator += rate * (np.kron(op, op.conj())
                              - 0.5 * np.kron(ll, eye)
                              - 0.5 * np.kron(eye, ll.T))
    if not _is_diagonal_safe(channels):
        return _ChannelSet(_frozen(dissipator), False, None, None)
    return _ChannelSet(_frozen(dissipator), True, _frozen(_rate_matrix(channels)),
                       _frozen(_coherence_rates(channels)))


def _constant_liouvillian(h_bytes: bytes, channel_key: tuple, fixed_key: tuple,
                          mult: float) -> np.ndarray:
    """Liouvillian of a constant segment at TLS multiplier ``mult``:
    the Hamiltonian part and the fixed channels plus ``mult`` times the
    scaled channels' dissipator."""
    h = np.frombuffer(h_bytes, dtype=complex).reshape(DIM, DIM)
    return (liouvillian(h, _channels_of(fixed_key))
            + mult * _channel_set_of(channel_key).dissipator)


@functools.lru_cache(maxsize=MAPS_CACHED)
def _constant_map(h_bytes: bytes, channel_key: tuple, fixed_key: tuple,
                  mult: float, dt: float) -> np.ndarray:
    """expm(L dt) of a constant segment, kept by content."""
    return _frozen(expm(_constant_liouvillian(h_bytes, channel_key, fixed_key,
                                              mult) * dt))


def clear_caches() -> None:
    """Drop every cached channel set and constant-segment map."""
    _channel_set_of.cache_clear()
    _constant_map.cache_clear()


def _check_density(rho: np.ndarray, tol: float = 1e-10):
    if abs(np.trace(rho) - 1.0) > 1e-8:
        raise DynamicsError("density matrix trace != 1")
    if np.max(np.abs(rho - rho.conj().T)) > tol * 10:
        raise DynamicsError("density matrix is not Hermitian")
    if np.linalg.eigvalsh(rho).min() < -tol:
        raise DynamicsError("density matrix is not positive semidefinite")


def evolve_density(rho: np.ndarray, hamiltonian, lindblad=None, t0: float = 0.0,
                   t1: float | None = None, tol: float = DEFAULT_RTOL,
                   t_eval=None, positivity_floor: float = -1e-8) -> Trajectory:
    """Lindblad master-equation evolution.

    ``hamiltonian`` is a compiled :class:`Schedule` or a constant 10x10
    Hermitian matrix (Hz) held from ``t0`` to ``t1``.  ``lindblad`` gives
    the matrix's channels, as a LindbladSpec-like object with
    ``.channels`` or a plain sequence of (operator, rate).  A compiled
    Schedule carries its own channels, so passing ``lindblad`` with one
    raises.
    Positivity is monitored, not enforced: eigenvalues below
    ``positivity_floor`` raise.
    """
    rho0 = np.asarray(rho, dtype=complex)
    _check_density(rho0)
    channels = ()
    if lindblad is not None:
        if isinstance(hamiltonian, Schedule):
            raise DynamicsError("a compiled Schedule carries its own channels; "
                                "pass lindblad to sequence.compile instead")
        channels = getattr(lindblad, "channels", lindblad)
    schedule = _coerce_schedule(hamiltonian, t0, t1 if t1 is not None else t0,
                                channels=channels)
    times = _resolve_times(schedule, t_eval)
    samples, _ = _walk(schedule, rho0.reshape(-1), times, tol, liouville=True)
    out = np.array(samples).reshape(len(times), DIM, DIM)
    final = out[-1]
    if abs(np.trace(final).real - 1.0) > 1e-6:
        raise DynamicsError("trace drift beyond tolerance")
    min_eig = np.linalg.eigvalsh(0.5 * (final + final.conj().T)).min()
    if min_eig < positivity_floor:
        raise DynamicsError(f"positivity violation: min eigenvalue {min_eig:.2e}")
    return Trajectory(times=times, states=out, kind="density",
                      meta={"tol": tol, **schedule.meta})


def _is_diagonal_safe(channels) -> bool:
    """True if every op is diagonal or has a single nonzero entry."""
    for op, _ in channels:
        if np.count_nonzero(np.abs(op) > 1e-15) > 1 and not _is_diag_matrix(op):
            return False
    return True


def _is_diag_matrix(h) -> bool:
    return np.count_nonzero(np.abs(h - np.diag(np.diag(h))) > 1e-15) == 0


def _has_closed_form(seg: Segment) -> bool:
    return (seg.kind == "diagonal" and _channel_set(seg.channels).diagonal_safe
            and _channel_set(seg.channels_fixed).diagonal_safe)


def _rate_matrix(channels) -> np.ndarray:
    """Classical population rate matrix of the transfer channels."""
    t_mat = np.zeros((DIM, DIM))
    for op, rate in channels:
        if _is_diag_matrix(op):
            continue
        dst, src = np.nonzero(op)
        d, s = int(dst[0]), int(src[0])
        w = rate * abs(op[d, s]) ** 2
        t_mat[d, s] += w
        t_mat[s, s] -= w
    return t_mat


def _coherence_rates(channels) -> np.ndarray:
    """Decay rate of every coherence (a, b); zero on the diagonal."""
    g = np.zeros((DIM, DIM))
    for op, rate in channels:
        ll = (op.conj().T @ op).real
        dop = np.diag(op)
        for a in range(DIM):
            g[a, :] += 0.5 * rate * ll[a, a]
            g[:, a] += 0.5 * rate * ll[a, a]
        g -= rate * np.real(np.outer(dop.conj(), dop))
    np.fill_diagonal(g, 0.0)
    return g


def _closed_form_step(seg: Segment):
    """Exact, linear step ``(vec, ta, tb) -> vec`` on vec(rho) or its columns.

    For a tone-free segment with diagonal/transfer channels: populations
    follow the classical rate matrix, coherences pick up phases and
    decay, the scaled channels' rates integrated over the multiplier
    ramp.
    """
    _, _, t_scaled, g_scaled = _channel_set(seg.channels)
    _, _, t_fixed, g_fixed = _channel_set(seg.channels_fixed)
    levels = np.arange(DIM)

    def step(vec, ta, tb):
        dt = tb - ta
        tau_eff = seg._multiplier_integral(ta, tb)
        rho = vec.reshape((DIM, DIM) + vec.shape[1:])
        pops = expm(t_scaled * tau_eff + t_fixed * dt) @ rho[levels, levels]
        phases = seg._diag_integral(ta, tb)
        phase_mat = np.exp(-1j * TWO_PI * (phases[:, None] - phases[None, :]))
        decay = np.exp(-(g_scaled * tau_eff + g_fixed * dt))
        rho = _rows(decay, _rows(phase_mat, rho))
        rho[levels, levels] = pops
        return rho.reshape(vec.shape)

    return step


# ---------------------------------------------------------------------------
# propagators and superoperators
# ---------------------------------------------------------------------------

def propagator(hamiltonian, t0: float = 0.0, t1: float | None = None,
               tol: float = DEFAULT_RTOL) -> np.ndarray:
    """Unitary time-ordered propagator.

    ``hamiltonian`` is a compiled :class:`Schedule` or a constant 10x10
    Hermitian matrix (Hz) held from ``t0`` to ``t1``.  A schedule whose
    segments carry dissipation channels raises.
    """
    schedule = _coerce_schedule(hamiltonian, t0, t1 if t1 is not None else t0)
    return _walk(schedule, np.eye(DIM, dtype=complex), (), tol, liouville=False)[1]


def superoperator(schedule: Schedule, tol: float = DEFAULT_RTOL) -> np.ndarray:
    """Process matrix of the full schedule on row-major vec(rho)."""
    return _walk(schedule, np.eye(DIM * DIM, dtype=complex), (), tol,
                 liouville=True)[1]


def unitary_superoperator(u: np.ndarray) -> np.ndarray:
    return np.kron(u, u.conj())
