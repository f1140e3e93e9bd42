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

    @pytest.mark.parametrize("name", ["y-sandwich-minus-3pi/2",
                                      "y-sandwich-near-minus-3pi/2"])
    def test_three_half_pi_sandwich_is_one_y_rotation(self, name):
        # both targets turn by +0.7 about +y
        plan = sy.decompose(EULER_BRANCHES[name][0])
        (r,) = plan.rotations
        assert r.axis == "y"
        assert r.angle == pytest.approx(0.7, abs=1e-12)
        assert plan.reconstruction_error < 1e-12

    @pytest.mark.parametrize("bad", [
        sy.PlanRotation(-5.5, -4.5, "x", 0.3),  # below m_F = -9/2
        sy.PlanRotation(3.5, 5.5, "x", 0.3),  # above m_F = +9/2
        sy.PlanRotation(-2.3, -1.5, "x", 0.3),  # not a half-integer
        sy.PlanRotation(-1.5, -1.5, "y", 0.3),  # m_low == m_high
        sy.PlanRotation(-0.5, -1.5, "z", 0.3),  # m_low > m_high
        sy.PlanRotation(-2.5, -1.5, "w", 0.3),  # unknown axis
    ])
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
    @given(rotations=st.lists(ROTATIONS, max_size=60))
    def test_unitary_equals_chained_pair_rotations(self, rotations):
        chained = np.eye(DIM, dtype=complex)
        for r in rotations:
            chained = pair_rotation(r.m_low, r.m_high, r.axis, r.angle) @ chained
        assert np.array_equal(sy.RotationPlan(rotations).unitary(), chained)


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


class TestSimulatePlan:
    def test_unit_fidelity_without_dissipation(self):
        plan = sy.RotationPlan(rotations=[
            sy.PlanRotation(-2.5, -1.5, "x", np.pi / 2)])
        fid = sy.simulate_plan(plan, REF_FIELDS, None, 71.0)
        assert fid == pytest.approx(1.0, abs=1e-10)

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
        fids = [sy.simulate_plan(plan.prefix(k), REF_FIELDS, lb, 71.0,
                                 active_levels=levels)
                for k in (1, 2, 3)]
        assert fids[0] > fids[1] > fids[2]


class TestSerialization:
    def test_plan_round_trip_dict(self):
        plan = sy.decompose(pair_rotation(-3.5, -2.5, "y", 1.2))
        d = plan.to_dict()
        assert d["n_rotations"] == len(plan)
        rebuilt = sy.RotationPlan(rotations=[
            sy.PlanRotation(**r) for r in d["rotations"]])
        assert sy.global_phase_distance(rebuilt.unitary(),
                                        plan.unitary()) < 1e-12
