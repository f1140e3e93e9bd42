"""Time evolution engines for the 10-level manifold.

Pure-state Schroedinger propagation and Lindblad master-equation
propagation over piecewise-defined Hamiltonians, each piece stepped
exactly.  The engines take a :class:`Schedule` of data :class:`Segment`
s, built by :func:`sunspin.sequence.compile`, or by :func:`hold` for a
constant matrix the compiler does not make.  The schedule selects its engine
(``Schedule.density``), and :func:`evolve`, :func:`expect` and
:func:`pullback` run it there.  A segment carries its duration and runs
on its own clock from 0, so a pulse maps the same wherever it sits;
schedule time is ``Schedule.starts``, the running sum of the durations.
One formula gives H, the level diagonal plus the coupling triangle and
its conjugate transpose: :meth:`Segment.hamiltonian` evaluates it at t,
and ``Segment.h_const`` and the spectrum cache on a flat diagonal.
Every segment's Liouvillian is its Hamiltonian part plus mult(t) D: the
TLS multiplier times the dissipator of its channels, every rate being
light-induced.  Hamiltonians are in ordinary frequency units (Hz); the
2*pi lives in the equations of motion.  Rates are 1/e rates in 1/s.

All four engines are folds of one schedule walker over one segment
stepper.  The stepper advances a state of shape (d,) or (d, k) in
Hilbert space (d = 10) or in Liouville space (row-major vec(rho),
d = 100), and the state's leading length d says which: ``evolve_pure``
walks a state vector, ``evolve_density`` a vectorized density matrix,
``propagator`` the 10x10 identity and ``superoperator`` the 100x100
identity.  ``evolve_pure``, ``evolve_density`` and ``expect`` share one
checked path: it resolves the sample times, checks the start state (the
pure engine takes a normalized vector of shape (10,), the density
engine a state vector or a 10x10 density matrix), walks, and checks the
state at the walk's end.  ``pullback`` walks the other way: it maps k
observable rows r (p = r @ vec(rho) at the schedule's end) to their
rows at its start, last segment first, each segment by the transpose of
its forward method.  That is the adjoint (Heisenberg picture) master
equation (Breuer & Petruccione, *The Theory of Open Quantum Systems*,
sec. 3.2.3), and k rows cost k columns, where the superoperator steps
100.  ``expect`` is its forward twin: it walks a state as ``evolve``
does, but returns only the k real readings r @ vec(rho(t)) of
Hermitian-reading rows at each sample time, and a segment's sampler
forms those instead of the 100 entries of each rho(t).  So k rows cost
k columns both ways.  The state carried from segment to segment is the
full one, stepped by the same method.  Each segment gets one method by
its kind, which it takes when it is built: a segment that neither kind
fits raises :class:`DynamicsError` there.

* constant H (a coupling, the static drive ``compile`` folds from
  square tones, under a flat TLS multiplier and level diagonal; or no
  coupling, both flat, and channels the closed form does not take) -
  exact stepping from the segment start through one spectrum (method
  14 of Moler & Van Loan, SIAM Rev. 45, 3 (2003)): in Hilbert space
  the eigendecomposition H = V diag(w) V^H.  In Liouville space with no
  acting channel (the set's dissipator is zero, or the multiplier is
  0), the same one: U rho U^H for U = V diag(p) V^H and
  p = exp(-2 pi i w t), which is exact with cond 1 and takes 10
  exponentials per sample.  Otherwise
  L = V diag(lambda) V^-1, a real one: in the Hermitian basis (rho_aa,
  sqrt2 Re rho_ab, -sqrt2 Im rho_ab) a Lindblad generator is a real
  matrix.  Arbitrarily long steps at machine precision, and a state
  vector reaches all its ends in one matrix product.  As L is real
  there, its eigenvalues come in conjugate pairs, and a reading off a
  Hermitian rho gets conjugate terms from a pair: ``expect`` sums the
  eigenvalues with Im lambda >= 0 only, each complex one twice, and
  takes the real part, one exponential per pair.  A channel-free
  segment read by rows R_k forms vec(M) @ vec(V^T R_k conj(V)), for
  M_ab = C_ab p_a conj(p_b) and C = V^H rho V, instead of U rho U^H.
  When that basis leaves L complex, LAPACK fails or
  cond(V) exceeds ``EIG_COND_MAX`` (L is not normal and can be
  defective), chained exponentials of the Liouvillian instead.
* diagonal H (no coupling, and channels that are each diagonal or a single
  transfer: dark times and TLS ramps, diagonal entries linear in t) -
  closed form from the segment start: in Hilbert space a phase vector by
  exact quadrature; in Liouville space populations through the
  exponential of the classical rate matrix and coherences through phases
  and scalar decay factors.  Exact for the channel structure this
  package generates, on TLS ramps too
  (one rate matrix times mult(t) commutes with itself).  Every sample
  time is stepped from the segment start, with the factors of all of
  them from one stacked evaluation (one exponential of the stacked rate
  matrices), so a time scan samples one lengthened dark segment rather
  than stepping a section per point.

Backward, a constant segment with no acting channel costs U^T R conj(U)
for each row R read as a 10x10 matrix, the pure engine's formula; one
with channels costs ((r @ V) * exp(lambda t)) @ V^-1 on the spectrum
the forward step keeps; and a diagonal one scales the coherence
entries of r by their phase and decay factors and maps its population
entries by r_pop @ P, P the rate-matrix exponential.

The matrix exponential is the package's own :func:`expm`: scaling and
squaring of a diagonal Pade approximant of degree 3, 5, 7, 9 or 13,
picked by the 1-norm (Higham, SIAM J. Matrix Anal. Appl. 26, 1179
(2005), Algorithm 2.3).  It takes real or complex input, batched over
leading axes, and each matrix of a stack picks its own degree and
scaling, so its result does not depend on the others.

Two costly results are kept by content, because one run asks for them
again and again:

* per channel set, keyed by its operator bytes and rates: the 100x100
  dissipator and the closed-form rate and coherence matrices;
* per constant Liouville segment on which a channel acts, keyed by the
  bytes of its level diagonal and coupling (never the duration), the
  channel set's key and the multiplier: the spectrum of its
  Liouvillian, or None when it takes chained exponentials.  A spectrum
  does not depend on the step length, so a pulse repeated anywhere in a
  run, sampled at any times, is diagonalized once.  A segment with no
  acting channel keeps nothing: it takes only the 10x10 ``eigh`` of the
  pure engine.

Both are ``functools.lru_cache`` s on those content arguments, and each
rebuilds its arrays from the bytes it is keyed by.  A segment holds its
channel set as looked up (``Segment.channel_set``), and the spectrum
cache keys it by the set's own stored key.  Keys are content, never object identity; cached arrays are
read-only; both caches are bounded.  ``clear_caches`` empties them and
the two ``lru_cache`` s of :mod:`sunspin.model`.
A scan does not lean on them to share its pulses: :mod:`sunspin.protocols`
evolves each pulse of a scan once.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from . import model
from .spin_core import DIM, m_index

TWO_PI = 2.0 * np.pi

# Largest accepted max|Im R| / max|R| of the Liouvillian R in the
# Hermitian basis.  A Lindblad generator keeps rho Hermitian, so R is
# real up to rounding (below 1e-20 on the package's channel sets); a
# Liouvillian that is complex beyond this takes chained expm.
EIG_IMAG_MAX = 1e-14
# Largest accepted ||V||_1 ||V^-1||_1 of the Liouvillian's eigenvectors.
# The eigen path's deviation from expm grows with cond(V): on a decaying
# driven pair near its exceptional point it was 1e-13 at cond(V) = 4e3,
# 2e-12 at 3e4 and 6e-9 at the defective point itself (cond(V) = 1e8).
# The package's own Rabi segments have cond(V) below 20.
EIG_COND_MAX = 1e4
# Sample ends of a channel-free constant segment read by rows in Liouville
# space (``expect``), formed together.  A block's temporaries stay near 50 KB, under glibc's 128 KiB mmap
# threshold: the 248 ends of a Rabi scan in one block cost about 100
# page faults and 0.2 ms more per scan.
UNITARY_BLOCK = 32
# Entries kept by content: channel sets (a 160 KB dissipator each) and
# constant-segment Liouville spectra (320 KB each).  Each bundled config
# uses at most 1 set and 3 spectra.  By ``cache_info`` over one warm pass
# of each benchmark workload (seed 7), the damped Rabi scans use 3 sets
# and 2 spectra, the pulse scans 1 set and 3 spectra, the noisy dual
# Ramsey 1 set and asks 10 times for its 3 spectra, and the estimation
# 1 set and 1 spectrum.
CHANNEL_SETS_CACHED = 4
SPECTRA_CACHED = 8
# A segment whose TLS multiplier moves by less than this is flat.
FLAT_MULTIPLIER = 1e-15
# How far past the schedule's end (s) a sample time may lie; a segment
# is handed the samples up to this far past its own end.
TIME_SLACK = 1e-12
# A jump operator entry of at most this magnitude counts as zero when a
# channel set is sorted into diagonal and single-transfer operators.
CHANNEL_ENTRY_ZERO = 1e-15
# Input checks: a Hamiltonian's anti-Hermitian part relative to its
# largest entry (at least 1); a state's norm; a density matrix's trace,
# Hermiticity and smallest eigenvalue.
HERMITIAN_TOL = 1e-9
NORM_TOL = 1e-9
DENSITY_TRACE_TOL = 1e-8
DENSITY_PSD_TOL = 1e-10
DENSITY_HERMITIAN_TOL = 10 * DENSITY_PSD_TOL
# expect's rows: each, read as a 10x10 matrix R, may have an
# anti-Hermitian part up to this times its largest entry (at least 1).
# A Hermitian R reads a real value off every density matrix, which the
# folded conjugate eigenvalue pairs of a constant segment rely on.
READING_HERMITIAN_TOL = 1e-12
# Output checks: the final state's norm may drift by NORM_DRIFT_FLOOR;
# the final trace may drift by TRACE_DRIFT_MAX; the final density
# matrix's eigenvalues may reach DENSITY_POSITIVITY_FLOOR (positivity is
# monitored, not enforced).
NORM_DRIFT_FLOOR = 1e-6
TRACE_DRIFT_MAX = 1e-6
DENSITY_POSITIVITY_FLOOR = -1e-8


class DynamicsError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# schedule representation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Segment:
    """One piecewise element of a schedule, held as plain data.

    ``diag_start`` and ``diag_end`` are the level diagonal (Hz) at the
    TLS multiplier endpoints ``mult_start`` and ``mult_end``; across the
    segment both move linearly in t.  ``coupling``, when given, is the
    complex upper triangle of a static drive in the rotating frame, its
    phases applied: a 10x10 array, zero on and below the diagonal; H is
    the diagonal plus it and its conjugate transpose.  ``channel_set``
    is a set from :func:`channel_set`, by default the empty one; its
    rates are scaled by the multiplier.  The level diagonals (10 finite
    real numbers each) and the coupling are kept as read-only copies, so
    the cached ``h_const`` and spectra cannot go stale.  Arrays of
    another form, and a segment that no exact method steps (see
    ``kind``), raise :class:`DynamicsError` when built.
    """

    duration: float
    diag_start: np.ndarray
    diag_end: np.ndarray
    coupling: np.ndarray | None = None
    channel_set: _ChannelSet = field(default_factory=lambda: channel_set(()),
                                     repr=False)
    mult_start: float = 1.0
    mult_end: float = 1.0

    def __post_init__(self):
        # set through the instance dict, as cached_property does: the
        # dataclass is frozen
        attrs = vars(self)
        for name in ("diag_start", "diag_end"):
            diag = np.asarray(attrs[name])
            if diag.shape != (DIM,) or np.iscomplexobj(diag) or not np.isfinite(diag).all():
                raise DynamicsError(f"a level diagonal must be {DIM} finite real "
                                    f"numbers, got shape {diag.shape}")
            attrs[name] = _frozen(np.array(diag, dtype=float))
        if self.coupling is not None:
            coupling = np.array(self.coupling, dtype=complex)
            if coupling.shape != (DIM, DIM) or coupling[_ON_OR_BELOW].any():
                raise DynamicsError(
                    f"a coupling must be a {DIM}x{DIM} array, zero on and below "
                    f"the diagonal, got shape {coupling.shape}")
            attrs["coupling"] = _frozen(coupling)
        if not isinstance(self.channel_set, _ChannelSet):
            raise DynamicsError("a segment's channel_set is a set from "
                                "dynamics.channel_set")
        self.kind  # taken now, so a segment no exact method steps raises here

    @functools.cached_property
    def kind(self) -> str:
        """constant | diagonal: the exact method that steps the segment.

        A coupling makes it constant when the multiplier and the level
        diagonal are flat.  With none it is diagonal (the closed form) when
        its channels are diagonal-safe, and otherwise constant when both
        are flat.  Anything else raises, naming the cause.
        """
        flat = abs(self.mult_end - self.mult_start) < FLAT_MULTIPLIER
        if self.coupling is not None:
            if not flat:
                raise DynamicsError(
                    f"a tone during a TLS ramp ({self.mult_start:g} to "
                    f"{self.mult_end:g}): no exact method steps it")
            if self._diag_flat is None:
                raise DynamicsError("a coupling over a moving level diagonal: "
                                    "no exact method steps it")
            return "constant"
        if self.channel_set.diagonal_safe:
            return "diagonal"
        if flat and self._diag_flat is not None:
            return "constant"
        raise DynamicsError(
            "a ramp (of the TLS multiplier or the level diagonal) under channels "
            "that are not diagonal-safe (each diagonal or a single transfer): no "
            "exact method steps it")

    @functools.cached_property
    def h_const(self) -> np.ndarray | None:
        """H of a constant segment, ``hamiltonian(0.0)`` bit for bit; None
        for a diagonal one."""
        if self.kind != "constant":
            return None
        return _raman_hamiltonian(self._diag_flat, self.coupling)

    @property
    def channel_free(self) -> bool:
        """True when no channel acts: the set's dissipator is zero, or the
        multiplier is 0 at both ends."""
        return self.channel_set.channel_free or self.mult_start == self.mult_end == 0

    def hamiltonian(self, t: float) -> np.ndarray:
        """H(t) (Hz) at time t into the segment: the level diagonal at the
        ramped TLS multiplier, plus the coupling and its conjugate."""
        s = np.clip(self._fraction(t), 0.0, 1.0)
        return _raman_hamiltonian(self._diag_at(s), self.coupling)

    def _fraction(self, t: float) -> float:
        return t / self.duration if self.duration > 0 else 0.0

    def _diag_at(self, s) -> np.ndarray:
        """The level diagonal at segment fraction ``s``: (10,), or (k, 10)
        for k fractions."""
        return self.diag_start + np.multiply.outer(s, self.diag_end - self.diag_start)

    @functools.cached_property
    def _diag_flat(self) -> np.ndarray | None:
        """The diagonal when it does not move (+0.0 for -0.0, as
        ``_diag_at`` gives it), else None."""
        return None if (self.diag_end - self.diag_start).any() else self.diag_start + 0.0

    def _diag_integral(self, tb) -> np.ndarray:
        """Exact integral of the (linear-in-t) diagonal over [0, tb], Hz*s:
        (10,), or (k, 10) for k ends ``tb``."""
        dt = np.expand_dims(tb, -1)
        if self._diag_flat is not None:
            return self._diag_flat * dt
        return 0.5 * (self._diag_at(0.0) + self._diag_at(self._fraction(tb))) * dt

    def multiplier(self, t: float) -> float:
        return self.mult_start + self._fraction(t) * (self.mult_end - self.mult_start)

    def _multiplier_integral(self, tb):
        """Integral of the multiplier over [0, tb]."""
        return 0.5 * (self.mult_start + self.multiplier(tb)) * tb


@dataclass(frozen=True)
class Schedule:
    """Ordered piecewise schedule from time 0: each segment starts where
    the one before it ends.  ``density`` selects the engine of
    :func:`evolve` and :func:`pullback`: density matrices when set,
    state vectors otherwise."""

    segments: tuple[Segment, ...]
    density: bool = False

    @functools.cached_property
    def starts(self) -> tuple[float, ...]:
        """Each segment's start time, then the end (s): the one running
        sum of the durations."""
        return tuple(itertools.accumulate((seg.duration for seg in self.segments),
                                          initial=0.0))

    @property
    def duration(self) -> float:
        return self.starts[-1]

    def has_dissipation(self) -> bool:
        return any(seg.channel_set.key for seg in self.segments)


def hold(h, duration: float, channels=None) -> Schedule:
    """A constant 10x10 Hermitian matrix ``h`` (Hz) held for
    ``duration``, as a one-segment schedule.

    The matrix is stored as its real diagonal plus its upper triangle as
    the coupling.  Given ``channels`` (operator, rate), even none, the
    schedule is on the density engine; :func:`channel_set` checks them.
    """
    h0 = np.asarray(h, dtype=complex)
    if h0.shape != (DIM, DIM):
        raise DynamicsError(f"hold takes a {DIM}x{DIM} matrix, got shape {h0.shape}")
    _check_hermitian(h0)
    diag = h0.diagonal().real.copy()
    return Schedule((Segment(duration=duration, diag_start=diag, diag_end=diag,
                             coupling=np.triu(h0, 1),
                             channel_set=channel_set(channels or ())),),
                    density=channels is not None)


def _raman_hamiltonian(diag: np.ndarray, coupling: np.ndarray | None) -> np.ndarray:
    """The package's one Raman Hamiltonian (Hz): the level diagonal, plus
    the coupling's upper triangle and its conjugate transpose."""
    hm = np.diag(diag).astype(complex)
    if coupling is not None:
        hm += coupling + coupling.conj().T
    return hm


def _check_hermitian(h: np.ndarray):
    scale = max(1.0, np.max(np.abs(h)))
    if np.max(np.abs(h - h.conj().T)) > HERMITIAN_TOL * scale:
        raise DynamicsError("non-Hermitian Hamiltonian sample")


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

@dataclass
class Trajectory:
    """Sampled evolution: states at strictly increasing times, (n, 10)
    state vectors or (n, 10, 10) density matrices."""

    times: np.ndarray
    states: np.ndarray

    @property
    def kind(self) -> str:
        """pure | density, read off the states' shape."""
        return "pure" if self.states.ndim == 2 else "density"

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


def _resolve_times(schedule: Schedule, t_eval) -> np.ndarray:
    if t_eval is None:
        times = np.array([0.0, schedule.duration])
    else:
        times = np.atleast_1d(np.asarray(t_eval, dtype=float))
    if not len(times):
        raise DynamicsError("no sample times")
    bad = times[~np.isfinite(times)]
    if len(bad):
        raise DynamicsError(f"sample time {bad[0]} is not finite")
    if np.any(np.diff(times) <= 0):
        raise DynamicsError("sample times must be strictly increasing")
    if times[0] < -TIME_SLACK or times[-1] > schedule.duration + TIME_SLACK:
        raise DynamicsError("sample times outside the schedule span")
    return times


# ---------------------------------------------------------------------------
# the schedule walker and the segment stepper
# ---------------------------------------------------------------------------

def _walk(schedule: Schedule, state: np.ndarray, times,
          rows=None) -> tuple[np.ndarray | None, np.ndarray]:
    """Fold ``state`` through the schedule.

    Returns the samples at ``times`` (a sorted array, inside the schedule
    span) as one array, the states there or, given ``rows``, their (n, k)
    readings (see ``_read``), and the state at the end of the last
    segment stepped.  With no sample times every segment is stepped, and
    the samples are None.  A segment gets its sample times as an array
    of times into it.
    """
    if len(state) == DIM and schedule.has_dissipation():
        raise DynamicsError("unitary evolution cannot carry dissipation channels")
    blocks, n_done = [], 0
    starts = schedule.starts
    for seg, start, end in zip(schedule.segments, starts, starts[1:]):
        n_in = times.searchsorted(end + TIME_SLACK, "right")
        inside = times[n_done:n_in] - start
        got, state = _step(seg, state, inside, rows)
        if len(inside):
            blocks.append(got)
            n_done = n_in
            if n_done == len(times):
                break
    if n_done < len(times):
        raise DynamicsError("failed to reach all sample times")
    return (np.concatenate(blocks) if blocks else None), state


def _step(seg: Segment, state, sample_ts, rows=None):
    """Advance ``state`` across the segment.

    Returns (samples at ``sample_ts``, state at the end); times count
    from the segment's start, and the samplers get them as one array
    ``ends`` with the segment's duration last.  The samples are the
    states there or, given ``rows``, their readings; the state at the end
    is stepped by the same method either way.  This is the one place that picks a
    segment's method (see the module docstring).
    """
    # filled in place: np.append costs more than the step of a short
    # segment sampled once or not at all
    ends = np.empty(len(sample_ts) + 1)
    ends[:-1] = sample_ts
    ends[-1] = seg.duration
    if seg.kind == "diagonal":
        states = _closed_form(seg, state, ends)
    elif len(state) == DIM or seg.channel_free:
        return _unitary(seg, state, ends, rows)
    else:
        spectrum = _constant_spectrum(seg)
        if spectrum is not None:
            return _eigen_step(spectrum, state, ends, rows)
        states = _chained(_constant_liouvillian(seg), state, ends)
    return _read(rows, states)


def _read(rows, states):
    """(samples, end state) as ``_step`` returns them from the states at
    its ends: the samples are the states before the last or, given
    ``rows``, their (n, k) readings rows @ vec(rho), taken off
    vec(|psi><psi|) on the pure engine.  Of that outer product only the
    entries some row reads are formed.  The readings are complex; their
    real part is the value."""
    samples, end = states[:-1], states[-1]
    if rows is None:
        return samples, end
    if len(end) == DIM * DIM:
        return np.reshape(samples, (len(samples), DIM * DIM)) @ rows.T, end
    psi = np.reshape(samples, (len(samples), DIM))
    read = np.flatnonzero(rows.any(axis=0))
    left, right = np.divmod(read, DIM)
    return (psi[:, left] * psi[:, right].conj()) @ rows[:, read].T, end


def _rows(factors: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``factors`` times x, broadcast over x's trailing axes.

    A vector of factors gives diag(factors) @ x for x of shape (n,) or
    (n, k); an (n, n) array scales (n, n) or (n, n, k) entrywise.
    """
    return factors.reshape(factors.shape + (1,) * (x.ndim - factors.ndim)) * x


def _spectral(v, coeff, factors):
    """v diag(f) coeff for each row f of ``factors``: the states at the
    ends whose spectral factors those rows are, ``coeff`` being the state
    in the eigenbasis v.

    A state vector is stepped to several ends in one matrix product; a
    block of columns (a propagator or superoperator, which samples
    nothing) and a single end go end by end.
    """
    if coeff.ndim > 1 or len(factors) == 1:
        return [v @ _rows(f, coeff) for f in factors]
    factors *= coeff
    return factors @ v.T


def _unitary(seg: Segment, state, ends, rows=None):
    """Samples and end state (see ``_step``) of a constant segment
    without acting channels, from H = V diag(w) V^H by ``eigh`` and the
    10 factors p = exp(-2 pi i w t) per end.

    In Liouville space each column rho of the state goes to U rho U^H,
    U = V diag(p) V^H, at every end at once: an exact map with a unitary
    eigenbasis (cond 1), which takes no 100x100 eigensolver.  Samples
    read by ``rows`` take no U rho U^H: with C = V^H rho V, row R_k
    (read as a 10x10 matrix) reads vec(M) @ vec(K_k) off
    M_ab = C_ab p_a conj(p_b), K_k = V^T R_k conj(V) built once, one
    product per block of ``UNITARY_BLOCK`` ends.
    """
    w, v = np.linalg.eigh(seg.h_const)
    p = np.exp(np.multiply.outer(ends, -1j * TWO_PI * w))
    vh = v.conj().T
    if len(state) == DIM:
        return _read(rows, _spectral(v, vh @ state, p))
    # U rho U^H for each column rho of the state, at every end or, given
    # rows, at the last: (ends, columns, 10, 10)
    u = (v * (p if rows is None else p[-1:])[:, None, :]) @ vh
    rho = np.moveaxis(state.reshape(DIM, DIM, -1), -1, 0)
    out = u[:, None] @ rho @ np.swapaxes(u.conj(), 1, 2)[:, None]
    states = np.moveaxis(out, 1, -1).reshape((len(u),) + state.shape)
    if rows is None:
        return _read(None, states)
    # the state is one column here
    k, c, samples = _through_unitary(v, rows).T, vh @ rho[0] @ v, p[:-1]
    readings = np.empty((len(samples), len(rows)), dtype=complex)
    for lo in range(0, len(samples), UNITARY_BLOCK):
        pb = samples[lo:lo + UNITARY_BLOCK]
        m = pb.T[:, :, None] * c[:, None]
        m *= pb.conj()
        readings[lo:lo + UNITARY_BLOCK] = m.transpose(1, 0, 2).reshape(len(pb), -1) @ k
    return readings, states[0]


# Entries (a, b), a >= b, that a segment's coupling leaves zero
_ON_OR_BELOW = np.tri(DIM, dtype=bool)
# Row-major vec(rho) indices of rho_aa, and of rho_ab and rho_ba for a < b
_UPPER = np.triu_indices(DIM, 1)
_VEC_DIAG = np.arange(DIM) * (DIM + 1)
_VEC_UPPER = _UPPER[0] * DIM + _UPPER[1]
_VEC_LOWER = _UPPER[1] * DIM + _UPPER[0]
_ROOT_HALF = np.sqrt(0.5)


def _to_hermitian_basis(m: np.ndarray) -> np.ndarray:
    """T @ m, for T the unitary from vec(rho) to the coordinates
    (rho_aa, sqrt2 Re rho_ab, -sqrt2 Im rho_ab), a < b, which are real
    when rho is Hermitian."""
    upper, lower = m[_VEC_UPPER], m[_VEC_LOWER]
    return np.concatenate([m[_VEC_DIAG], _ROOT_HALF * (upper + lower),
                           1j * _ROOT_HALF * (upper - lower)])


def _from_hermitian_basis(x: np.ndarray) -> np.ndarray:
    """T^H @ x, the inverse of ``_to_hermitian_basis``."""
    plus, minus = np.split(x[DIM:], 2)
    out = np.empty(x.shape, dtype=complex)
    out[_VEC_DIAG] = x[:DIM]
    out[_VEC_UPPER] = _ROOT_HALF * (plus - 1j * minus)
    out[_VEC_LOWER] = _ROOT_HALF * (plus + 1j * minus)
    return out


def _eigen(sup: np.ndarray):
    """(eigenvalues, V, V^-1) of the Liouvillian ``sup``, read-only, or None.

    A Lindblad generator keeps rho Hermitian, so R = T sup T^H is real
    (Havel, J. Math. Phys. 44, 534 (2003)); R = W diag(lambda) W^-1 by
    the real eigensolver gives V = T^H W and V^-1 = W^-1 T.  None when R
    is not real to ``EIG_IMAG_MAX``, LAPACK fails, or V is
    ill-conditioned.
    """
    r = _to_hermitian_basis(_to_hermitian_basis(sup).conj().T).conj().T
    if np.max(np.abs(r.imag)) > EIG_IMAG_MAX * np.max(np.abs(r)):
        return None
    try:
        lam, w = np.linalg.eig(r.real)
        w_inv = np.linalg.inv(w)
    except np.linalg.LinAlgError:
        return None
    v = _from_hermitian_basis(w)
    v_inv = _from_hermitian_basis(w_inv.conj().T).conj().T
    if np.linalg.norm(v, 1) * np.linalg.norm(v_inv, 1) > EIG_COND_MAX:
        return None
    return _frozen(lam), _frozen(v), _frozen(v_inv)


def _eigen_step(spectrum, state, ends, rows):
    """Samples and end state (see ``_step``) of a constant segment on
    which a channel acts, from the spectrum (lambda, V, V^-1) of its
    Liouvillian: V diag(exp(lambda t)) V^-1 state at each end.

    Read by ``rows``, the samples take half the exponentials.  The
    Liouvillian is real in the Hermitian basis, so its eigenvalues and
    eigenvectors come in conjugate pairs there, and so do a pair's terms
    of a reading off a Hermitian rho.  A reading is then the real part of
    the sum over Im lambda >= 0, each complex eigenvalue's term counted
    twice.
    """
    rates, v, v_inv = spectrum
    coeff = v_inv @ state
    if rows is None:
        states = _spectral(v, coeff, np.exp(np.multiply.outer(ends, rates),
                                            dtype=complex))
        return states[:-1], states[-1]
    upper = rates.imag >= 0
    folded = np.where(rates.imag[upper] > 0, 2.0, 1.0) * coeff[upper]
    readings = _spectral(rows @ v[:, upper], folded, np.exp(
        np.multiply.outer(ends[:-1], rates[upper]), dtype=complex))
    (end,) = _spectral(v, coeff, np.exp(np.multiply.outer(ends[-1:], rates),
                                        dtype=complex))
    return readings, end


def _chained(sup, state, ends):
    """States at ``ends`` from successive exponentials of the Liouvillian
    ``sup``."""
    states, t_prev = [], 0.0
    for ts in ends:
        if ts > t_prev:
            state, t_prev = expm(sup * (ts - t_prev)) @ state, ts
        states.append(state)
    return states


def solve_ivp(*args, **kwargs):
    """``scipy.integrate.solve_ivp(*args, **kwargs)``, its result as it
    comes, SciPy imported on the first call.  No function of the package
    calls it: every segment is stepped exactly.  Its one reader is the
    benchmark's tracer, whose ``perfbench/spans.py`` ``TARGETS`` wraps
    this name."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(*args, **kwargs)


# ---------------------------------------------------------------------------
# the matrix exponential
# ---------------------------------------------------------------------------

# Higham (2005), sec. 2: the largest 1-norm at which the diagonal Pade
# approximant of degree 3, 5, 7 and 9 reaches double-precision accuracy
# unscaled, and that of degree 13, to which larger norms are scaled by 2^-s.
PADE_THETAS = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1,
               7: 9.504178996162932e-1, 9: 2.097847961257068e0}
PADE_THETA_13 = 5.371920351148152e0
# The coefficients b_k of A^k, k = 0..m, in the degree-m numerator
# p(A) = U + V of the approximant; its denominator is p(-A) = V - U.
PADE_COEFFS = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0,
         670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
         16380.0, 182.0, 1.0),
}


def expm(a) -> np.ndarray:
    """exp(A) of a square matrix, or of each matrix of a stack (..., n, n).

    Scaling and squaring (Higham 2005, Algorithm 2.3): the lowest Pade
    degree m whose theta bounds the 1-norm, else degree 13 on A / 2^s,
    the result squared s times, s the least with ||A||_1 / 2^s at most
    theta_13.  Each matrix of a stack picks its own m and s, and the
    matrices sharing both take them in one batch, so a matrix's
    exponential is the same, bit for bit, alone or in any stack.
    """
    a = np.asarray(a)
    groups: dict = {}
    for i, norm in enumerate(np.abs(a).sum(axis=-2).max(axis=-1).ravel().tolist()):
        groups.setdefault(_pade_plan(norm), []).append(i)
    if len(groups) == 1:
        (plan,) = groups
        return _scaled_pade(a, *plan)
    flat = a.reshape((-1,) + a.shape[-2:])
    x = np.empty_like(flat)
    for plan, at in groups.items():
        x[at] = _scaled_pade(flat[at], *plan)
    return x.reshape(a.shape)


def _pade_plan(norm: float) -> tuple[int, int]:
    """(Pade degree m, squarings s) for a matrix of 1-norm ``norm``; s
    comes exactly from the binary exponent of norm / theta_13."""
    for m, theta in PADE_THETAS.items():
        if norm <= theta:
            return m, 0
    if not math.isfinite(norm):
        raise DynamicsError("matrix exponential of non-finite entries")
    # norm / theta_13 = f 2^e with f in [0.5, 1): s = e, or e - 1 at f = 0.5
    fraction, exponent = math.frexp(norm / PADE_THETA_13)
    return 13, max(exponent - (fraction == 0.5), 0)


def _scaled_pade(a, m: int, s: int) -> np.ndarray:
    """The degree-m approximant of exp(A / 2^s), squared s times."""
    x = _pade(a * 2.0 ** -s if s else a, m)
    for _ in range(s):
        x = x @ x
    return x


def _pade(a, m: int) -> np.ndarray:
    """The degree-m diagonal Pade approximant of exp(A): p(-A)^-1 p(A) by
    one solve, p's odd part U and even part V built from the even powers
    of A (Higham 2005, sec. 2; degree 13 nests A^6)."""
    b = PADE_COEFFS[m]
    evens = [a @ a]
    while len(evens) < (m // 2 if m < 13 else 3):
        evens.append(evens[-1] @ evens[0])
    if m < 13:
        odd = _with_identity(_combine(b[3::2], evens), b[1])
        v = _with_identity(_combine(b[2::2], evens), b[0])
    else:
        a6 = evens[2]
        odd = _with_identity(a6 @ _combine(b[9::2], evens)
                             + _combine(b[3:8:2], evens), b[1])
        v = _with_identity(a6 @ _combine(b[8::2], evens)
                           + _combine(b[2:7:2], evens), b[0])
    u = a @ odd
    return np.linalg.solve(v - u, v + u)


def _combine(coeffs, powers) -> np.ndarray:
    """sum_k coeffs[k] powers[k], as a new array."""
    out = coeffs[0] * powers[0]
    for c, p in zip(coeffs[1:], powers[1:]):
        out += c * p
    return out


def _with_identity(x: np.ndarray, c: float) -> np.ndarray:
    """x + c I, in place on each matrix of x (contiguous)."""
    n = x.shape[-1]
    x.reshape(x.shape[:-2] + (n * n,))[..., ::n + 1] += c
    return x


# ---------------------------------------------------------------------------
# the engine a schedule selects
# ---------------------------------------------------------------------------

def evolve(schedule: Schedule, state: np.ndarray, t_eval=None) -> Trajectory:
    """Evolve an initial state through a schedule on the engine it
    selects: :func:`evolve_density` when ``Schedule.density`` is set,
    :func:`evolve_pure` otherwise."""
    if not schedule.density:
        return evolve_pure(state, schedule, t_eval=t_eval)
    return evolve_density(state, schedule, t_eval=t_eval)


def evolve_pure(state: np.ndarray, schedule: Schedule, t_eval=None) -> Trajectory:
    """Schroedinger evolution of a normalized state vector of shape (10,).

    A schedule whose segments carry dissipation channels raises.
    """
    return Trajectory(*_run(schedule, state, t_eval, density=False))


def evolve_density(rho: np.ndarray, schedule: Schedule, t_eval=None) -> Trajectory:
    """Lindblad master-equation evolution under the schedule's channels
    of a 10x10 density matrix, or of a state vector taken as its density
    matrix.

    Positivity is monitored, not enforced: eigenvalues below
    ``DENSITY_POSITIVITY_FLOOR`` raise.
    """
    times, samples = _run(schedule, rho, t_eval, density=True)
    return Trajectory(times, samples.reshape(len(times), DIM, DIM))


def expect(schedule: Schedule, state: np.ndarray, rows, t_eval) -> np.ndarray:
    """(n, k) real readings ``rows @ vec(rho(t))`` at the n times
    ``t_eval``: the forward twin of :func:`pullback`.

    ``rows`` (k, 100) read k observables off row-major vec(rho), and
    each, read as a 10x10 matrix, must be Hermitian (to
    ``READING_HERMITIAN_TOL``), so that it reads a real value off every
    density matrix.  The state and the times are taken and checked as
    :func:`evolve` takes them; on the pure engine the rows read
    vec(|psi><psi|).  Each segment is stepped by the method
    :func:`evolve` gives it, but its samples are read, not returned: k
    rows cost k columns per sample, and a constant segment with channels
    takes one exponential per conjugate pair of eigenvalues.
    """
    rows = np.asarray(rows, dtype=complex)
    if rows.ndim != 2 or rows.shape[1] != DIM * DIM:
        raise DynamicsError(f"rows must have shape (k, {DIM * DIM}), got {rows.shape}")
    mats = rows.reshape(-1, DIM, DIM)
    skew = np.abs(mats - mats.conj().transpose(0, 2, 1)).max(initial=0.0)
    if skew > READING_HERMITIAN_TOL * max(1.0, np.abs(rows).max(initial=0.0)):
        raise DynamicsError("a row does not read a real value off every density "
                            "matrix: read as a 10x10 matrix it is not Hermitian")
    return _run(schedule, state, t_eval, schedule.density, rows)[1].real


def _run(schedule: Schedule, state, t_eval, density: bool, rows=None):
    """(times, samples) of ``state`` through the schedule on the density
    engine or the pure one, the one path of :func:`evolve_pure`,
    :func:`evolve_density` and :func:`expect`: it resolves the sample
    times, checks the start state, walks (see ``_walk``), and checks the
    state at the walk's end."""
    times = _resolve_times(schedule, t_eval)
    start = np.asarray(state, dtype=complex)
    if not density:
        if start.shape != (DIM,):
            raise DynamicsError(f"the pure engine takes a state vector of shape "
                                f"({DIM},), got shape {start.shape}")
        if abs(np.linalg.norm(start) - 1.0) > NORM_TOL:
            raise DynamicsError("initial state is not normalized")
        samples, end = _walk(schedule, start, times, rows)
        if abs(np.linalg.norm(end) - 1.0) > NORM_DRIFT_FLOOR:
            raise DynamicsError(f"norm drift {abs(np.linalg.norm(end) - 1.0):.2e}")
        return times, samples
    if start.shape == (DIM,):
        start = np.outer(start, start.conj())
    if start.shape != (DIM, DIM):
        raise DynamicsError(f"the density engine takes a state of shape ({DIM},) or "
                            f"({DIM}, {DIM}), got shape {start.shape}")
    if abs(np.trace(start) - 1.0) > DENSITY_TRACE_TOL:
        raise DynamicsError("density matrix trace != 1")
    if np.max(np.abs(start - start.conj().T)) > DENSITY_HERMITIAN_TOL:
        raise DynamicsError("density matrix is not Hermitian")
    if np.linalg.eigvalsh(start).min() < -DENSITY_PSD_TOL:
        raise DynamicsError("density matrix is not positive semidefinite")
    samples, end = _walk(schedule, start.reshape(-1), times, rows)
    end = end.reshape(DIM, DIM)
    if abs(np.trace(end).real - 1.0) > TRACE_DRIFT_MAX:
        raise DynamicsError("trace drift beyond tolerance")
    min_eig = np.linalg.eigvalsh(0.5 * (end + end.conj().T)).min()
    if min_eig < DENSITY_POSITIVITY_FLOOR:
        raise DynamicsError(f"positivity violation: min eigenvalue {min_eig:.2e}")
    return times, samples


# ---------------------------------------------------------------------------
# density-matrix propagation
# ---------------------------------------------------------------------------

def liouvillian(h: np.ndarray, channels: Sequence[tuple[np.ndarray, float]]) -> np.ndarray:
    """Superoperator on row-major-vectorized rho (100x100), 1/s units.

    The Hamiltonian part plus the channel set's dissipator, which is
    built once per distinct set of (operator, rate) contents and kept
    read-only; the returned sum is a new array.
    """
    return _liouvillian(h, channel_set(channels), 1.0)


def _liouvillian(h: np.ndarray, channels: _ChannelSet, mult: float) -> np.ndarray:
    """The package's one Liouvillian: the Hamiltonian part of ``h`` plus
    ``mult`` times the dissipator of the set ``channels``."""
    return _hamiltonian_part(h) + mult * channels.dissipator


def _hamiltonian_part(h: np.ndarray) -> np.ndarray:
    """-2 pi i [H, .] on row-major vec(rho)."""
    eye = np.eye(DIM)
    return -1j * TWO_PI * (np.kron(h, eye) - np.kron(eye, h.T))


class _ChannelSet(NamedTuple):
    """What depends only on a channel set, built once per set."""

    key: tuple                            # the key it was built under
    dissipator: np.ndarray                # 100x100; zero-rate channels dropped
    channel_free: bool                    # the dissipator is zero
    diagonal_safe: bool                   # over every channel, zero rates too
    rate_matrix: np.ndarray | None        # closed-form data, if diagonal_safe
    coherence_rates: np.ndarray | None


def channel_set(channels) -> _ChannelSet:
    """The set of ``channels`` (operator, rate), built once per content.

    Each operator must be 10x10 and each rate finite and non-negative.
    The lookup hashes every operator's bytes, so a builder of many
    segments on one set looks it up once and hands it to each
    (``Segment.channel_set``).
    """
    key = []
    for op, rate in channels:
        op, rate = np.asarray(op, dtype=complex), float(rate)
        if op.shape != (DIM, DIM):
            raise DynamicsError("channel operators must be 10x10")
        if not math.isfinite(rate):
            raise DynamicsError(f"channel rate {rate} is not finite")
        if rate < 0:
            raise DynamicsError(f"negative channel rate {rate}")
        key.append((op.tobytes(), rate))
    return _channel_set_of(tuple(key))


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@functools.lru_cache(maxsize=CHANNEL_SETS_CACHED)
def _channel_set_of(key: tuple) -> _ChannelSet:
    """The channel set of ``key``, one (operator bytes, rate) per channel."""
    channels = [(np.frombuffer(op, dtype=complex).reshape(DIM, DIM), rate)
                for op, rate in key]
    eye = np.eye(DIM)
    dissipator = np.zeros((DIM * DIM, DIM * DIM), dtype=complex)
    for op, rate in channels:
        if rate == 0:
            continue
        ll = op.conj().T @ op
        dissipator += rate * (np.kron(op, op.conj())
                              - 0.5 * np.kron(ll, eye)
                              - 0.5 * np.kron(eye, ll.T))
    channel_free = not dissipator.any()
    if not _is_diagonal_safe(channels):
        return _ChannelSet(key, _frozen(dissipator), channel_free, False, None, None)
    return _ChannelSet(key, _frozen(dissipator), channel_free, True,
                       _frozen(_rate_matrix(channels)),
                       _frozen(_coherence_rates(channels)))


def _constant_liouvillian(seg: Segment) -> np.ndarray:
    """Liouvillian of a constant segment: the Hamiltonian part plus the
    TLS multiplier times the channels' dissipator."""
    return _liouvillian(seg.h_const, seg.channel_set, seg.mult_start)


def _constant_spectrum(seg: Segment):
    """``_eigen`` of a constant segment's Liouvillian, kept by content:
    None is kept too, and sends the segment to chained exponentials."""
    coupling = None if seg.coupling is None else seg.coupling.tobytes()
    return _spectrum(seg._diag_flat.tobytes(), coupling, seg.channel_set.key,
                     seg.mult_start)


@functools.lru_cache(maxsize=SPECTRA_CACHED)
def _spectrum(diag: bytes, coupling: bytes | None, channels: tuple, mult: float):
    """``_eigen`` of the Liouvillian of the level diagonal ``diag`` and the
    coupling triangle ``coupling`` (bytes of the arrays, or None) under
    the channel set of key ``channels`` at multiplier ``mult``."""
    h = _raman_hamiltonian(np.frombuffer(diag), None if coupling is None else
                           np.frombuffer(coupling, dtype=complex).reshape(DIM, DIM))
    return _eigen(_liouvillian(h, _channel_set_of(channels), mult))


def clear_caches() -> None:
    """Empty both content caches, and the ``lru_cache`` s of
    :func:`sunspin.model.two_photon_weight` and
    :func:`sunspin.model.scattering_branching_ratios`, so a run after it
    starts cold."""
    _channel_set_of.cache_clear()
    _spectrum.cache_clear()
    model.two_photon_weight.cache_clear()
    model.scattering_branching_ratios.cache_clear()


def _is_diagonal_safe(channels) -> bool:
    """True if every op is diagonal or has a single nonzero entry."""
    for op, _ in channels:
        if np.count_nonzero(np.abs(op) > CHANNEL_ENTRY_ZERO) > 1 and not _is_diag_matrix(op):
            return False
    return True


def _is_diag_matrix(h) -> bool:
    return np.count_nonzero(np.abs(h - np.diag(np.diag(h))) > CHANNEL_ENTRY_ZERO) == 0


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


def _closed_form_factors(seg: Segment, tau_eff, phases):
    """The closed-form step of a coupling-free segment with diagonal/transfer
    channels over stretches (shape (...)) across which the multiplier
    integrates to ``tau_eff`` and the level diagonal to ``phases``
    (..., 10): populations follow the classical rate matrix, coherences
    pick up phases and decay.

    Returns (population maps, coherence phase factors, coherence decay
    factors), each (..., 10, 10); the maps are None when every rate is
    zero, and the exponentials of a stack are taken in one call.
    """
    channels, tau_eff = seg.channel_set, np.asarray(tau_eff)[..., None, None]
    rates = channels.rate_matrix * tau_eff
    phase = np.exp(-1j * TWO_PI * (phases[..., :, None] - phases[..., None, :]))
    decay = np.exp(-(channels.coherence_rates * tau_eff))
    return (expm(rates) if rates.any() else None), phase, decay


def _closed_form(seg: Segment, state, ends):
    """States at ``ends`` of a coupling-free segment, each stepped from its
    start in closed form: a phase vector in Hilbert space; in
    Liouville space (diagonal or single-transfer channels) populations
    through the rate matrix, coherences through phases and decay.  The
    factors of all ends come from one stacked evaluation."""
    ends = np.asarray(ends)
    phases = seg._diag_integral(ends)
    if len(state) == DIM:
        return [_rows(factors, state) for factors in np.exp(-1j * TWO_PI * phases)]
    pop_maps, phase, decay = _closed_form_factors(
        seg, seg._multiplier_integral(ends), phases)
    levels = np.arange(DIM)
    rho = state.reshape((DIM, DIM) + state.shape[1:])
    pops = rho[levels, levels]
    states = []
    for k in range(len(ends)):
        out = _rows(decay[k], _rows(phase[k], rho))
        out[levels, levels] = pops if pop_maps is None else pop_maps[k] @ pops
        states.append(out.reshape(state.shape))
    return states


# ---------------------------------------------------------------------------
# propagators and superoperators
# ---------------------------------------------------------------------------

def propagator(schedule: Schedule) -> np.ndarray:
    """Unitary time-ordered propagator.

    A schedule whose segments carry dissipation channels raises.
    """
    return _walk(schedule, np.eye(DIM, dtype=complex), np.empty(0))[1]


def superoperator(schedule: Schedule) -> np.ndarray:
    """Process matrix of the full schedule on row-major vec(rho)."""
    return _walk(schedule, np.eye(DIM * DIM, dtype=complex), np.empty(0))[1]


def pullback(schedule: Schedule, rows) -> np.ndarray:
    """``rows`` @ the schedule's map on row-major vec(rho).

    ``rows`` (k, 100) read k observables off vec(rho) at the schedule's
    end; the result reads them off vec(rho) at its start.  On the density
    engine (``Schedule.density``) the rows are stepped backward, last
    segment first, each by the transpose of its forward step, so k rows
    cost k columns, not the 100 of :func:`superoperator`.  On the pure
    engine they are the rows of kron(U, conj U) for the schedule's
    propagator U.
    """
    rows = np.asarray(rows, dtype=complex)
    if not schedule.density:
        return _through_unitary(propagator(schedule), rows)
    for seg in reversed(schedule.segments):
        rows = _step_back(seg, rows)
    return rows


def _step_back(seg: Segment, rows):
    """``rows`` @ the segment's map in Liouville space: the adjoint of the
    method ``_step`` takes."""
    if seg.kind == "diagonal":
        # coherences scale by their phase and decay; populations go
        # through the transpose of the rate-matrix map
        pop_map, phase, decay = _closed_form_factors(
            seg, seg._multiplier_integral(seg.duration),
            seg._diag_integral(seg.duration))
        out = rows * (phase * decay).reshape(-1)
        pops = rows[:, _VEC_DIAG]
        out[:, _VEC_DIAG] = pops if pop_map is None else pops @ pop_map
        return out
    if seg.channel_free:
        u = _unitary(seg, np.eye(DIM, dtype=complex), [seg.duration])[1]
        return _through_unitary(u, rows)
    spectrum = _constant_spectrum(seg)
    if spectrum is None:
        return rows @ expm(_constant_liouvillian(seg) * seg.duration)
    rates, v, v_inv = spectrum
    return ((rows @ v) * np.exp(rates * seg.duration)) @ v_inv


def _through_unitary(u: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``rows`` @ kron(u, conj u): U^T R conj(U) for each row R read as a
    10x10 matrix."""
    return (u.T @ rows.reshape(-1, DIM, DIM) @ u.conj()).reshape(rows.shape)
