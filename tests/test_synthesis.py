import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sunspin import dynamics, model, sequence as sq, synthesis as sy
from sunspin.spin_core import DIM, SpinError, pair_indices, pair_rotation

REF_FIELDS = model.FieldParams(b_hz=960.0, q_hz=-320.0)
PAULI = {"x": np.array([[0, 1], [1, 0]], dtype=complex),
         "y": np.array([[0, -1j], [1j, 0]]),
         "z": np.array([[1, 0], [0, -1]], dtype=complex)}


def block_product(plan) -> np.ndarray:
    """The plan's unitary, built from 2x2 blocks acting on two rows."""
    u = np.eye(DIM, dtype=complex)
    for r in plan.rotations:
        rows = [int(r.m_low + 4.5), int(r.m_high + 4.5)]
        block = (np.cos(r.angle / 2) * np.eye(2)
                 - 1j * np.sin(r.angle / 2) * PAULI[r.axis])
        u[rows] = block @ u[rows]
    return u


def chained_product(rotations) -> np.ndarray:
    """The chained product of full pair-rotation matrices, first acting
    first."""
    u = np.eye(DIM, dtype=complex)
    for r in rotations:
        u = pair_rotation(r.m_low, r.m_high, r.axis, r.angle) @ u
    return u


def axis_rotation(m_low, phi, theta) -> np.ndarray:
    """exp(-i theta (cos(phi) sigma_x + sin(phi) sigma_y) / 2) on the
    pair (m_low, m_low + 1)."""
    i = int(m_low + 4.5)
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    u = np.eye(DIM, dtype=complex)
    u[i:i + 2, i:i + 2] = [[c, -1j * s * np.exp(-1j * phi)],
                           [-1j * s * np.exp(1j * phi), c]]
    return u


PHASES = np.diag(np.exp(1j * np.random.default_rng(5).uniform(-np.pi, np.pi,
                                                             DIM)))
LEVEL_SWAP = np.eye(DIM, dtype=complex)[[0, 1, 2, 4, 3, 5, 6, 7, 8, 9]]

# Targets reaching each branch of the Euler step, with the axes of the
# plan they give (time order; the nine residual phases come first).
EULER_BRANCHES = {
    # no Givens step at all
    "diagonal": (PHASES, ["z"] * 9),
    # |g10| < 1e-14: the step on (-0.5, 0.5) is a single z
    "near-diagonal": (PHASES @ pair_rotation(-0.5, 0.5, "x", 8e-15),
                      ["z"] * 10),
    # |g00| < 1e-14: x then z
    "x-pi": (pair_rotation(-2.5, -1.5, "x", np.pi), ["z", "x"]),
    "level-swap": (LEVEL_SWAP, ["z"] * 10 + ["x"]),
    # z-x-z sandwiches that collapse: alpha = pi, -pi/2, +pi/2
    "x-sandwich": (pair_rotation(-2.5, -1.5, "x", 0.7), ["x"]),
    # alpha = 1e-13: an axis 1e-13 short of -x
    "x-sandwich-near-zero": (axis_rotation(-2.5, np.pi - 1e-13, 0.7), ["x"]),
    "y-sandwich-minus": (pair_rotation(1.5, 2.5, "y", -0.7), ["y"]),
    # +pi/2 needs phase(g10) just above -pi: an axis 1e-13 past y
    "y-sandwich-plus": (axis_rotation(-2.5, np.pi / 2 + 1e-13, 0.7), ["y"]),
    # alpha = -3pi/2 is the +pi/2 sandwich a turn lower: exactly, and
    # 1e-13 above.  A sandwich has alpha + gamma = -2 phase(g00) = 0 and
    # gamma - alpha = 2 phase(g10) + pi in (-pi, 3pi], so alpha lies in
    # [-3pi/2, pi/2) and +3pi/2 cannot occur.
    "y-sandwich-minus-3pi/2": (pair_rotation(1.5, 2.5, "y", 0.7), ["y"]),
    "y-sandwich-near-minus-3pi/2": (axis_rotation(-2.5, -np.pi / 2 - 1e-13, -0.7),
                                    ["y"]),
}

BAD_ROTATIONS = [
    sy.PlanRotation(-5.5, -4.5, "x", 0.3),  # below m_F = -9/2
    sy.PlanRotation(3.5, 5.5, "x", 0.3),  # above m_F = +9/2
    sy.PlanRotation(-2.3, -1.5, "x", 0.3),  # not a half-integer
    sy.PlanRotation(-1.5, -1.5, "y", 0.3),  # m_low == m_high
    sy.PlanRotation(-0.5, -1.5, "z", 0.3),  # m_low > m_high
    sy.PlanRotation(-2.5, -1.5, "w", 0.3),  # unknown axis
]


def euler_oracle(g00: complex, g10: complex) -> list[tuple[str, float]]:
    """The Euler step as a function returning its (axis, wrapped angle)
    elements in application order: the reference for the step that
    appends their inverses to a plan's flat lists."""
    abs00, abs10 = abs(g00), abs(g10)
    beta = 2.0 * math.atan2(abs10, abs00)
    if abs10 < sy.EULER_DEGENERATE:
        angles = [("z", -2.0 * cmath.phase(g00))]
    elif abs00 < sy.EULER_DEGENERATE:
        gamma_minus_alpha = 2.0 * (cmath.phase(g10) + math.pi / 2)
        angles = [("x", beta), ("z", gamma_minus_alpha)]
    else:
        gamma_plus_alpha = -2.0 * cmath.phase(g00)
        gamma_minus_alpha = 2.0 * (cmath.phase(g10) + math.pi / 2)
        alpha = (gamma_plus_alpha - gamma_minus_alpha) / 2.0
        gamma = (gamma_plus_alpha + gamma_minus_alpha) / 2.0
        angles = [("z", alpha), ("x", beta), ("z", gamma)]
        if abs(sy._wrap(alpha + gamma)) < sy.EULER_SNAP:
            a = (alpha + math.pi) % sy.TWO_PI - math.pi
            if abs(a) < sy.EULER_SNAP:
                angles = [("x", beta)]
            elif abs(abs(a) - math.pi) < sy.EULER_SNAP:
                angles = [("x", -beta)]
            elif abs(a - math.pi / 2) < sy.EULER_SNAP:
                angles = [("y", -beta)]
            elif abs(a + math.pi / 2) < sy.EULER_SNAP:
                angles = [("y", beta)]
    return [(ax, w) for ax, a in angles if abs(w := sy._wrap(a)) > sy.ANGLE_DROP]


def appended_inverse(g00: complex, g10: complex) -> list[tuple[str, float]]:
    """(axis, angle) of what the Euler step appends to empty plan lists."""
    lows, axes, angles = [], [], []
    sy._append_inverse_euler(g00, g10, 3, lows, axes, angles)
    assert lows == [3] * len(axes) and len(angles) == len(axes)
    return list(zip(axes, angles))


def su2_column(theta: float, phi0: float, phi1: float) -> tuple[complex, complex]:
    """(g00, g10) = (cos(theta) e^{i phi0}, sin(theta) e^{i phi1})."""
    return (math.cos(theta) * cmath.exp(1j * phi0),
            math.sin(theta) * cmath.exp(1j * phi1))


DROP = sy.ANGLE_DROP
SNAP = sy.EULER_SNAP
# (g00, g10) inputs at the edges of the Euler step's branches
EULER_EDGES = {
    # |g10| or |g00| below EULER_DEGENERATE, at it and just above it
    **{f"g10-{s:g}": (cmath.exp(0.7j), s * cmath.exp(-2.1j))
       for s in (0.0, 3e-15, 9.9e-15, 1e-14, 1.2e-14)},
    **{f"g00-{s:g}": (s * cmath.exp(2.9j), cmath.exp(-0.4j))
       for s in (0.0, 3e-15, 9.9e-15, 1e-14, 1.2e-14)},
    # the four x / y sandwiches (a = 0, pi, pi/2, -pi/2), exactly ...
    "a=0": (0.6 + 0j, -0.8j),
    "a=pi": (0.6 + 0j, 0.8j),
    "a=pi/2": (0.6 + 0j, -0.8 + 0j),
    "a=-pi/2": (0.6 + 0j, 0.8 + 0j),
    # ... and with alpha or alpha + gamma moved inside and outside EULER_SNAP
    **{f"a={name}{d:+g}{part}": su2_column(0.9, *(
        (d, phi1) if part == "g00" else (0.0, phi1 + d)))
       for name, phi1 in (("0", -math.pi / 2), ("pi", math.pi / 2),
                          ("pi/2", math.pi - SNAP / 2), ("-pi/2", 0.0))
       for d in (-2 * SNAP, -0.4 * SNAP, 0.4 * SNAP, 2 * SNAP)
       for part in ("g00", "g10")},
    # a z angle of -2 phase(g00) within ANGLE_DROP of 0 and of -2 pi, 2 pi
    **{f"z{phi0:+.17g}": (cmath.exp(1j * phi0), 0j)
       for phi0 in (0.0, 0.4 * DROP, -0.6 * DROP, 2 * DROP, math.pi,
                    math.pi - 0.3 * DROP, -math.pi + 0.3 * DROP)},
    # alpha within ANGLE_DROP of 0 and of -2 pi, gamma of 2 pi
    **{f"alpha-0{d:+g}": su2_column(0.8, 0.3, -0.3 - math.pi / 2 + d)
       for d in (0.0, 0.5 * DROP, -2 * DROP)},
    **{f"alpha-2pi{d:+g}": su2_column(0.8, 0.8 * math.pi, 0.7 * math.pi + d)
       for d in (0.0, 0.5 * DROP, -2 * DROP)},
    **{f"gamma-2pi{d:+g}": su2_column(0.8, -0.6 * math.pi, 0.9 * math.pi + d)
       for d in (0.0, 0.5 * DROP, -2 * DROP)},
}


class TestDecompose:
    def test_identity_gives_empty_plan(self):
        plan = sy.decompose(np.eye(DIM, dtype=complex))
        assert len(plan) == 0
        assert plan.reconstruction_error < 1e-12

    def test_single_pair_rotation_single_element(self):
        plan = sy.decompose(pair_rotation(-2.5, -1.5, "x", 0.7))
        assert len(plan) == 1
        r = plan.rotations[0]
        assert (r.axis, r.m_low, r.m_high) == ("x", -2.5, -1.5)
        assert r.angle == pytest.approx(0.7)

    def test_haar_targets_reconstruct(self):
        rng = np.random.default_rng(70)
        for _ in range(30):
            u = sy.haar_unitary(rng=rng)
            plan = sy.decompose(u)
            assert plan.reconstruction_error < 1e-8
            # bound: 45 Givens steps x 3 elements + 9 phases
            assert len(plan) <= 45 * 3 + 9

    def test_plan_product_from_two_by_two_blocks(self):
        rng = np.random.default_rng(72)
        for _ in range(20):
            u = sy.haar_unitary(rng=rng)
            plan = sy.decompose(u)
            v = block_product(plan)
            tr = np.trace(v.conj().T @ u)
            assert np.linalg.norm(u - tr / abs(tr) * v, ord=2) < 1e-13
            assert np.max(np.abs(plan.unitary() - v)) < 1e-13

    def test_only_adjacent_dm1_pairs_used(self):
        rng = np.random.default_rng(71)
        plan = sy.decompose(sy.haar_unitary(rng=rng))
        for r in plan.rotations:
            assert r.m_high - r.m_low == pytest.approx(1.0)

    @pytest.mark.parametrize("name", EULER_BRANCHES)
    def test_euler_branches(self, name):
        u, axes = EULER_BRANCHES[name]
        plan = sy.decompose(u)
        assert [r.axis for r in plan.rotations] == axes
        assert plan.reconstruction_error < 1e-12
        assert plan.reconstruction_error == sy.global_phase_distance(
            u, plan.unitary())

    def test_reconstruction_error_is_the_plan_products_distance(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            u = sy.haar_unitary(rng=rng)
            plan = sy.decompose(u)
            assert plan.reconstruction_error == sy.global_phase_distance(
                u, plan.unitary())

    @pytest.mark.parametrize("name", ["y-sandwich-minus-3pi/2",
                                      "y-sandwich-near-minus-3pi/2"])
    def test_three_half_pi_sandwich_is_one_y_rotation(self, name):
        # both targets turn by +0.7 about +y
        plan = sy.decompose(EULER_BRANCHES[name][0])
        (r,) = plan.rotations
        assert r.axis == "y"
        assert r.angle == pytest.approx(0.7, abs=1e-12)
        assert plan.reconstruction_error < 1e-12

    @pytest.mark.parametrize("bad", BAD_ROTATIONS)
    def test_unitary_rejects_invalid_rotation(self, bad):
        with pytest.raises(SpinError) as expected:
            pair_indices(bad.m_low, bad.m_high, bad.axis)
        plan = sy.RotationPlan([sy.PlanRotation(-2.5, -1.5, "x", 0.3), bad])
        with pytest.raises(SpinError, match=re.escape(str(expected.value))):
            plan.unitary()

    def test_non_unitary_rejected(self):
        with pytest.raises(sy.SynthesisError):
            sy.decompose(np.ones((DIM, DIM), dtype=complex))


PROPERTY = settings(max_examples=25, deadline=None, database=None)
SEEDS = st.integers(0, 2**32 - 1)
PHASES_RAD = st.floats(-math.pi, math.pi)


class TestEulerStep:
    """The Euler step appends exactly the negated elements that
    euler_oracle returns."""

    @PROPERTY
    @given(theta=st.floats(0.0, math.pi / 2), phi0=PHASES_RAD, phi1=PHASES_RAD)
    def test_drawn_columns(self, theta, phi0, phi1):
        g00, g10 = su2_column(theta, phi0, phi1)
        assert appended_inverse(g00, g10) == [
            (ax, -w) for ax, w in euler_oracle(g00, g10)]

    @pytest.mark.parametrize("name", EULER_EDGES)
    def test_branch_edges(self, name):
        g00, g10 = EULER_EDGES[name]
        assert appended_inverse(g00, g10) == [
            (ax, -w) for ax, w in euler_oracle(g00, g10)]

    def test_edges_reach_every_outcome(self):
        # the edge inputs are not all alike: each snapped axis and each
        # count of kept elements occurs
        outcomes = {tuple(ax for ax, _ in euler_oracle(*g))
                    for g in EULER_EDGES.values()}
        assert {(), ("z",), ("x",), ("y",), ("x", "z"), ("z", "z"),
                ("z", "x", "z")} <= outcomes
ROTATIONS = st.builds(
    lambda levels, axis, angle: sy.PlanRotation(levels[0] - 4.5,
                                                levels[1] - 4.5, axis, angle),
    st.lists(st.integers(0, DIM - 1), min_size=2, max_size=2,
             unique=True).map(sorted),
    st.sampled_from("xyz"),
    st.floats(-4 * np.pi, 4 * np.pi))


class TestPlanProperties:
    @PROPERTY
    @given(seed=SEEDS)
    def test_decompose_round_trips_haar_targets(self, seed):
        u = sy.haar_unitary(rng=np.random.default_rng(seed))
        plan = sy.decompose(u)
        assert sy.global_phase_distance(u, block_product(plan)) < 1e-12
        assert plan.reconstruction_error < 1e-12
        assert len(plan) <= 45 * 3 + 9

    @PROPERTY
    @given(rotations=st.lists(ROTATIONS, max_size=150))
    def test_unitary_equals_chained_pair_rotations(self, rotations):
        assert np.array_equal(sy.RotationPlan(rotations).unitary(),
                              chained_product(rotations))


class TestLayeredProduct:
    """unitary() multiplies layers of rotations on disjoint pairs; the
    product stays the chained pair-rotation product bit for bit."""

    def test_full_haar_plans(self):
        rng = np.random.default_rng(28)
        for _ in range(20):
            plan = sy.decompose(sy.haar_unitary(rng=rng))
            assert len(plan) == 45 * 3 + 9
            assert np.array_equal(plan.unitary(), chained_product(plan.rotations))

    def test_non_adjacent_and_repeated_pairs(self):
        # pairs with dm up to 9 that share layers, and back-to-back
        # repeats of one pair that each need a layer of their own
        pairs = [(-4.5, 4.5), (-3.5, 0.5), (1.5, 3.5), (-2.5, -1.5), (-4.5, 4.5),
                 (-4.5, 4.5), (-0.5, 2.5), (-0.5, 2.5), (-3.5, 3.5), (-1.5, 0.5)]
        rng = np.random.default_rng(7)
        rotations = [sy.PlanRotation(lo, hi, "xyz"[rng.integers(3)],
                                     rng.uniform(-4 * np.pi, 4 * np.pi))
                     for _ in range(5) for lo, hi in pairs]
        assert np.array_equal(sy.RotationPlan(rotations).unitary(),
                              chained_product(rotations))

    def test_empty_plan_is_the_identity(self):
        u = sy.RotationPlan([]).unitary()
        assert u.dtype == complex
        assert np.array_equal(u, np.eye(DIM))


class TestGeneratorSet:
    def test_seventeen_generators(self):
        gens = sy.generator_set()
        assert len(gens) == 17  # 2N - 3 for N = 10
        assert len([p for p in gens if p[1] - p[0] == 1]) == 9
        assert len([p for p in gens if p[1] - p[0] == 2]) == 8


class TestLowering:
    def test_lab_propagator_matches_plan(self):
        fields = model.FieldParams(b_hz=2600.0, q_hz=-320.0)
        plan = sy.RotationPlan(rotations=[
            sy.PlanRotation(-2.5, -1.5, "x", 0.6),
            sy.PlanRotation(-3.5, -2.5, "z", 1.1),
            sy.PlanRotation(-3.5, -2.5, "y", -0.8),
            sy.PlanRotation(-2.5, -1.5, "z", 0.4),
            sy.PlanRotation(-2.5, -1.5, "x", 2.2),
        ])
        seq_l, phases = sy.plan_to_sequence(plan, fields, 200.0,
                                            cg_weighting=False)
        u_lab = dynamics.propagator(sq.compile(seq_l))
        u_pred = np.diag(np.exp(-1j * phases)) @ plan.unitary()
        assert np.max(np.abs(u_lab - u_pred)) < 1e-10

    def test_haar_plan_lowering(self):
        fields = model.FieldParams(b_hz=2600.0, q_hz=-320.0)
        rng = np.random.default_rng(72)
        plan = sy.decompose(sy.haar_unitary(rng=rng))
        seq_l, phases = sy.plan_to_sequence(plan, fields, 500.0,
                                            cg_weighting=False)
        u_lab = dynamics.propagator(sq.compile(seq_l))
        u_pred = np.diag(np.exp(-1j * phases)) @ plan.unitary()
        assert np.max(np.abs(u_lab - u_pred)) < 1e-9

    def test_dm2_pulses_lower_in_their_own_frame(self):
        # compile rotates a dm = 2 pulse's frame at f_LO / 2 per unit m;
        # the ledger must take the same level shifts, or the predicted
        # propagator misses the compiled one by order one
        fields = model.FieldParams(b_hz=960.0, q_hz=-320.0)
        plan = sy.RotationPlan(rotations=[
            sy.PlanRotation(-2.5, -0.5, "x", np.pi / 2),
            sy.PlanRotation(-1.5, -0.5, "x", np.pi / 2),
        ])
        seq_l, phases = sy.plan_to_sequence(plan, fields, 50.0,
                                            cg_weighting=False)
        u_lab = dynamics.propagator(sq.compile(seq_l))
        u_pred = np.diag(np.exp(-1j * phases)) @ plan.unitary()
        assert np.linalg.norm(u_lab - u_pred, 2) <= 1e-12

    def test_ledger_reads_the_compiled_pulse_diagonals(self):
        # the ledger takes each pulse's frame from sequence.frame_diagonal,
        # the diagonal compile gives the pulse alone, bit for bit
        fields = model.FieldParams(b_hz=960.0, q_hz=-320.0, b_vector_hz=3.0)
        plan = sy.RotationPlan(rotations=[
            sy.PlanRotation(-2.5, -0.5, "x", np.pi / 2),
            sy.PlanRotation(-1.5, -0.5, "y", 0.9),
            sy.PlanRotation(3.5, 4.5, "x", -2.0),
        ])
        seq_l, _ = sy.plan_to_sequence(plan, fields, 50.0)
        for seg in seq_l.segments:
            (tone,) = seg.tones
            (alone,) = sq.compile(sq.PulseSequence((seg,), fields)).segments
            assert alone.diag_start.tobytes() == sq.frame_diagonal(
                fields, seg.tls_start, tone.lo_freq_hz(fields), tone.dm).tobytes()

    @pytest.mark.parametrize("m", [-5.5, 5.0, 4.7])
    def test_z_rotation_on_invalid_level_rejected(self, m):
        # a level outside -9/2..9/2, or not a half-integer, is no level
        # of the spin, rather than one found by wrapping its index
        plan = sy.RotationPlan([sy.PlanRotation(m, 4.5, "z", 0.3)])
        with pytest.raises(SpinError):
            sy.plan_to_sequence(plan, model.FieldParams(b_hz=2600.0,
                                                        q_hz=-320.0), 200.0)


class TestLoweringRejects:
    @pytest.mark.parametrize("bad", BAD_ROTATIONS)
    @pytest.mark.parametrize("lower", ["plan_to_sequence", "simulate_plan"])
    def test_invalid_rotation_rejected_like_unitary(self, lower, bad):
        with pytest.raises(SpinError) as expected:
            pair_indices(bad.m_low, bad.m_high, bad.axis)
        plan = sy.RotationPlan([sy.PlanRotation(-2.5, -1.5, "x", 0.3), bad])
        call = {"plan_to_sequence": lambda: sy.plan_to_sequence(
                    plan, REF_FIELDS, 71.0),
                "simulate_plan": lambda: sy.simulate_plan(
                    plan, REF_FIELDS, None, 71.0)}[lower]
        with pytest.raises(SpinError, match=re.escape(str(expected.value))):
            call()


class TestSimulatePlan:
    def test_unit_fidelity_without_dissipation(self):
        plan = sy.RotationPlan(rotations=[
            sy.PlanRotation(-2.5, -1.5, "x", np.pi / 2)])
        fid = sy.simulate_plan(plan, REF_FIELDS, None, 71.0)
        assert fid == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("m", [-5.5, 5.0, 4.7])
    def test_fidelity_rejects_invalid_level(self, m):
        identity = np.eye(DIM * DIM, dtype=complex)
        assert sy.average_gate_fidelity(identity, identity, [4.5]) == 1.0
        with pytest.raises(SpinError):
            sy.average_gate_fidelity(identity, identity, [m])

    def test_one_pulse_fidelity_compiles_each_map_once(self, monkeypatch):
        # the lowering reads the pulse's frame without compiling it alone
        calls, compile_ = [], sq.compile
        monkeypatch.setattr(sq, "compile",
                            lambda *a, **k: calls.append(1) or compile_(*a, **k))
        plan = sy.RotationPlan(rotations=[
            sy.PlanRotation(-2.5, -1.5, "x", np.pi / 2)])
        sy.simulate_plan(plan, REF_FIELDS, model.photon_scattering_channels(), 71.0)
        assert len(calls) == 2

    def test_pi_half_fidelity_at_reference_parameters(self):
        lb = model.photon_scattering_channels().merge(
            model.inhomogeneous_dephasing())
        plan = sy.RotationPlan(rotations=[
            sy.PlanRotation(-2.5, -1.5, "x", np.pi / 2)])
        fid = sy.simulate_plan(plan, REF_FIELDS, lb, 71.0)
        assert 0.990 <= fid <= 0.997  # damping-limited regime

    def test_fidelity_decreases_with_plan_length(self):
        lb = model.photon_scattering_channels().merge(
            model.inhomogeneous_dephasing())
        plan = sy.RotationPlan(rotations=[
            sy.PlanRotation(-2.5, -1.5, "x", np.pi / 2),
            sy.PlanRotation(-3.5, -2.5, "x", np.pi / 2),
            sy.PlanRotation(-4.5, -3.5, "x", np.pi / 2),
        ])
        levels = [-4.5, -3.5, -2.5, -1.5]
        fids = [sy.simulate_plan(sy.RotationPlan(rotations=plan.rotations[:k]),
                                 REF_FIELDS, lb, 71.0, active_levels=levels)
                for k in (1, 2, 3)]
        assert fids[0] > fids[1] > fids[2]


class TestSerialization:
    def test_plan_rotation_is_an_immutable_named_tuple(self):
        r = sy.PlanRotation(m_low=-2.5, m_high=-1.5, axis="y", angle=0.4)
        assert r == (-2.5, -1.5, "y", 0.4)
        assert r._fields == ("m_low", "m_high", "axis", "angle")
        with pytest.raises(AttributeError):
            r.angle = 0.5
