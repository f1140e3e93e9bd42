import numpy as np
import pytest

from sunspin import readout as ro
from sunspin.spin_core import DIM, basis_state, m_index


def _shots(psi, n_atoms, n_shots, detection=None, seed=0):
    """``n_shots`` shots of the populations of ``psi``, drawn in one
    :func:`~sunspin.readout.sample_counts` batch."""
    pops = np.tile(np.abs(psi) ** 2, (n_shots, 1))
    return ro.sample_counts(pops, n_atoms, detection, np.random.default_rng(seed))


class TestSampling:
    def test_pure_state_zero_variance(self):
        det = ro.DetectionModel.ideal()
        rng = np.random.default_rng(0)
        counts = [ro.sample_shot(basis_state(-1.5), 500, det, rng).true_counts
                  for _ in range(20)]
        counts = np.array(counts)
        assert np.all(counts[:, m_index(-1.5)] == 500)
        assert counts.sum(axis=1).max() == 500

    def test_binomial_variance_of_equal_superposition(self):
        # variance of a per-state count ~ N/4 (binomial oracle); z-test
        psi = (basis_state(-2.5) + basis_state(-1.5)) / np.sqrt(2)
        shots = _shots(psi, 10_000, 4000, ro.DetectionModel.ideal(), seed=12)
        n = shots.true_counts[:, m_index(-1.5)]
        var = n.var(ddof=1)
        expected = 10_000 * 0.25
        # sampling distribution of the variance: se ~ var * sqrt(2/(n-1))
        se = expected * np.sqrt(2 / (len(n) - 1))
        assert abs(var - expected) < 3 * se

    def test_detection_thinning_mean(self):
        det = ro.DetectionModel()
        shots = _shots(basis_state(-1.5), 2000, 3000, det, seed=3)
        mean_det = shots.detected_counts[:, m_index(-1.5)].mean()
        assert mean_det / 2000 == pytest.approx(0.51, abs=0.01)
        # unmeasured states flagged with -1
        assert shots[0].detected_counts[m_index(4.5)] == -1

    def test_sample_mean_converges_to_populations(self):
        rng = np.random.default_rng(5)
        psi = rng.normal(size=DIM) + 1j * rng.normal(size=DIM)
        psi /= np.linalg.norm(psi)
        p = np.abs(psi) ** 2
        n_shots, n_at = 2000, 1000
        shots = _shots(psi, n_at, n_shots, ro.DetectionModel.ideal(), seed=6)
        mean = shots.true_counts.mean(axis=0) / n_at
        se = np.sqrt(p * (1 - p) / (n_shots * n_at)) + 1e-9
        assert np.all(np.abs(mean - p) < 5 * se)

    def test_invalid_inputs(self):
        with pytest.raises(ro.ReadoutError):
            ro.sample_shot(basis_state(0.5), 0)
        with pytest.raises(ro.ReadoutError):
            ro.sample_shot(2.0 * basis_state(0.5), 10)
        with pytest.raises(ro.ReadoutError):
            ro.DetectionModel(eta={-1.5: 1.3})

    @pytest.mark.parametrize("detection", [None, ro.DetectionModel()],
                             ids=["ideal", "default-detection"])
    def test_sample_shot_draws_pinned(self, detection):
        # a shot is one multinomial then one binomial from the caller's
        # stream; the bundled shot config's bytes depend on this order
        rng = np.random.default_rng(41)
        psi = rng.normal(size=DIM) + 1j * rng.normal(size=DIM)
        psi /= np.linalg.norm(psi)
        p = np.abs(psi) ** 2
        det = detection or ro.DetectionModel.ideal()
        got = np.random.default_rng(7)
        want = np.random.default_rng(7)
        for _ in range(3):
            shot = ro.sample_shot(psi, 1000, detection, got)
            true = want.multinomial(1000, p / p.sum())
            seen = want.binomial(true, det.efficiency_vector())
            assert shot.dtype == ro.SHOT_DTYPE
            assert np.array_equal(shot.true_counts, true)
            assert np.array_equal(shot.detected_counts,
                                  np.where(det.visible_mask(), seen, -1))

    def test_sample_counts_draws_multinomials_then_binomials(self):
        rng = np.random.default_rng(42)
        pops = rng.dirichlet(np.ones(DIM), size=6)
        det = ro.DetectionModel()
        shots = ro.sample_counts(pops, 800, det, np.random.default_rng(9))
        want = np.random.default_rng(9)
        ref_true = np.array([want.multinomial(800, p / p.sum()) for p in pops])
        ref_seen = np.array([want.binomial(t, det.efficiency_vector())
                             for t in ref_true])
        assert isinstance(shots, np.recarray) and shots.dtype == ro.SHOT_DTYPE
        assert shots.shape == (6,)
        assert np.array_equal(shots.true_counts, ref_true)
        assert np.array_equal(shots.detected_counts,
                              np.where(det.visible_mask(), ref_seen, -1))

    @pytest.mark.parametrize("n_atoms, excess", [(0, 0.0), (-3, 0.0),
                                                 (10, 2e-6), (10, -2e-6)])
    def test_sample_counts_invalid_inputs(self, n_atoms, excess):
        pops = np.full((4, DIM), 0.1)
        pops[2, 0] += excess
        if excess == 0.0:
            ro.sample_counts(pops, 10)  # the rows themselves are valid
        with pytest.raises(ro.ReadoutError):
            ro.sample_counts(pops, n_atoms)

    @pytest.mark.parametrize("shape", [(DIM,), (3, DIM - 1)])
    def test_sample_counts_needs_rows_of_ten(self, shape):
        with pytest.raises(ro.ReadoutError):
            ro.sample_counts(np.full(shape, 1.0 / shape[-1]), 10)


class TestCollectiveOperators:
    def test_identity_propagator(self):
        oz, oy = ro.collective_operators(np.eye(DIM, dtype=complex))
        expected = np.zeros((DIM, DIM))
        expected[m_index(-1.5), m_index(-1.5)] = 1
        expected[m_index(-4.5), m_index(-4.5)] = -1
        assert np.allclose(oz, expected)

    def test_ideal_limit_reproduces_qubit_spins(self):
        u = ro.ideal_measurement_propagator(0.0)
        oz, oy = ro.collective_operators(u)
        sx, sy, sz = ro.qubit_spin_ops()
        rng = np.random.default_rng(33)
        for _ in range(100):
            amp = rng.normal(size=2) + 1j * rng.normal(size=2)
            amp /= np.linalg.norm(amp)
            psi = amp[0] * basis_state(ro.M_UP) + amp[1] * basis_state(ro.M_DOWN)
            assert np.vdot(psi, oz @ psi).real == pytest.approx(
                np.vdot(psi, sz @ psi).real, abs=1e-10)
            assert np.vdot(psi, oy @ psi).real == pytest.approx(
                np.vdot(psi, sy @ psi).real, abs=1e-10)

    def test_operators_commute(self):
        for phi in (0.0, 0.7, 2.2):
            oz, oy = ro.collective_operators(ro.ideal_measurement_propagator(phi))
            assert np.max(np.abs(oz @ oy - oy @ oz)) < 1e-12

    def test_non_unitary_rejected(self):
        with pytest.raises(ro.ReadoutError):
            ro.collective_operators(np.ones((DIM, DIM), dtype=complex))

    def test_sequence_propagator_operators_commute(self):
        # U from the compiled measurement sequence (finite pulses,
        # leakage and all) still yields commuting observables
        from sunspin import dynamics, model, protocols as pr, sequence as sq
        fields = model.FieldParams(b_hz=960.0, q_hz=-330.0)
        seq = pr._ancilla_sequence(0.4, fields, 76.0, 0.51e-3, 1e-4, False)
        u = dynamics.propagator(sq.compile(seq))
        oz, oy = ro.collective_operators(u)
        assert np.max(np.abs(oz @ oy - oy @ oz)) < 1e-11


class TestEstimators:
    def test_coherent_input_means(self):
        psi = ro.coherent_qubit_state()
        u = ro.ideal_measurement_propagator(0.0)
        out = u @ psi
        n_at = 40_000
        shots = _shots(out, n_at, 300, ro.DetectionModel.ideal(), seed=8)
        sz, sphi = ro.estimate_spin_projections(shots, "two-state")
        assert abs(sz.mean()) < 4 * sz.std(ddof=1) / np.sqrt(len(sz))
        assert sphi.mean() == pytest.approx(-n_at / 2, rel=0.01)

    def test_all_mapped_atoms_in_ancilla_a(self):
        # the z-mapped half of the atoms (N_at/2, by the closure) all in
        # -3/2 saturates the estimator at +N_at/2
        counts = np.zeros(DIM, int)
        counts[m_index(-1.5)] = 400
        counts[m_index(ro.M_DOWN)] = 400
        shot = np.array((counts, counts), dtype=ro.SHOT_DTYPE)
        sz, _ = ro.estimate_spin_projections(shot, "two-state")
        assert sz == 800 / 2

    def test_two_state_noisier_than_four_state(self):
        psi = ro.coherent_qubit_state()
        u = ro.ideal_measurement_propagator(0.0)
        out = u @ psi
        shots = _shots(out, 1000, 10_000, ro.DetectionModel.ideal(), seed=9)
        two, _ = ro.estimate_spin_projections(shots, "two-state")
        four, _ = ro.estimate_spin_projections(shots, "four-state")
        # one shot estimates as its element of the array
        assert ro.estimate_spin_projections(shots[3], "four-state")[0] == four[3]
        assert two.var(ddof=1) > 1.2 * four.var(ddof=1)

    def test_invalid_mode(self):
        with pytest.raises(ro.ReadoutError):
            ro.estimate_spin_projections(np.zeros((), ro.SHOT_DTYPE), "three-state")


class TestVarianceIdentity:
    def test_coherent_state_additive_variance(self):
        psi = ro.coherent_qubit_state()
        n_at = 1000
        res = ro.variance_check(psi, n_at, 10_000, phi=0.0, seed=14)
        # transverse input variance N/4 plus additive N/4
        vz = res["O_z"]
        assert abs(vz["var"] - n_at / 2) < 3 * vz["var_se"]
        identity = res["s_z"]["var"] + n_at / 4
        err = np.hypot(vz["var_se"], res["s_z"]["var_se"])
        assert abs(vz["var"] - identity) < 3 * err

    def test_eigenstate_mixture_additive_only(self):
        n_at = 1000
        res = ro.variance_check(basis_state(ro.M_UP), n_at, 10_000, seed=15)
        vz = res["O_z"]
        assert abs(vz["var"] - n_at / 4) < 3 * vz["var_se"]

    def test_identity_holds_across_phases(self):
        # O_y(phi) measures s_phi = cos(phi) s_y + sin(phi) s_x; the
        # additive N/4 law holds against the analytic product-state
        # variance of the rotated spin at every phi.
        psi = ro.coherent_qubit_state()
        n_at = 1000
        sx, sy, sz = ro.qubit_spin_ops()
        for phi, seed in ((0.0, 20), (np.pi / 3, 21), (np.pi / 2, 22)):
            res = ro.variance_check(psi, n_at, 10_000, phi=phi, seed=seed)
            s_phi = np.cos(phi) * sy + np.sin(phi) * sx
            mean1 = np.vdot(psi, s_phi @ psi).real
            var1 = np.vdot(psi, s_phi @ s_phi @ psi).real - mean1**2
            want_y = n_at * var1 + n_at / 4
            assert abs(res["O_y"]["var"] - want_y) < 3.5 * res["O_y"]["var_se"]
            var1_z = np.vdot(psi, sz @ sz @ psi).real \
                - np.vdot(psi, sz @ psi).real ** 2
            want_z = n_at * var1_z + n_at / 4
            assert abs(res["O_z"]["var"] - want_z) < 3.5 * res["O_z"]["var_se"]
