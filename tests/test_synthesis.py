import numpy as np
import pytest

from sunspin import dynamics, model, sequence as sq, synthesis as sy
from sunspin.spin_core import DIM, pair_rotation

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

    def test_non_unitary_rejected(self):
        with pytest.raises(sy.SynthesisError):
            sy.decompose(np.ones((DIM, DIM), dtype=complex))

    def test_optimize_plan_merges(self):
        plan = sy.RotationPlan(rotations=[
            sy.PlanRotation(-2.5, -1.5, "x", 0.4),
            sy.PlanRotation(-2.5, -1.5, "x", 0.6),
            sy.PlanRotation(-3.5, -2.5, "z", 0.1),
            sy.PlanRotation(-3.5, -2.5, "z", -0.1),
        ])
        out = sy.optimize_plan(plan)
        assert len(out) == 1
        assert out.rotations[0].angle == pytest.approx(1.0)


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
