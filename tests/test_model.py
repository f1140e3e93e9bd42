from dataclasses import replace

import numpy as np
import pytest

from sunspin import dynamics, model, sequence as sq
from sunspin.spin_core import (DIM, M_VALUES, SpinError, basis_state, clebsch_gordan,
                                m_index)

REF_FIELDS = model.FieldParams(b_hz=960.0, q_hz=-320.0)


def compiled(tones, fields=REF_FIELDS, duration=0.01):
    """One-segment schedule of ``tones`` (a dark time if there are none)."""
    seg = sq.PulseSegment(duration=duration, tones=tuple(tones))
    return sq.compile(sq.PulseSequence(segments=(seg,), fields=fields))


class TestDiagonalHamiltonian:
    def test_direct_formula(self):
        h = compiled([]).hamiltonian(0.0)
        assert h[0, 0] == pytest.approx(960 * -4.5 + (-320) * 20.25)  # -10800
        assert np.allclose(np.diag(h), 960 * M_VALUES - 320 * M_VALUES**2)

    def test_zero_q_equal_ladder(self):
        h = compiled([], model.FieldParams(b_hz=700.0, q_hz=0.0)).hamiltonian(0.0)
        assert np.allclose(np.diff(np.diag(h)), 700.0)

    def test_adjacent_resonances_split_by_2q(self):
        split = (model.pair_splitting_hz(REF_FIELDS, -2.5)
                 - model.pair_splitting_hz(REF_FIELDS, -3.5))
        assert split == pytest.approx(2 * -320.0)

    def test_pair_splitting_is_level_shift_difference_bit_for_bit(self):
        rng = np.random.default_rng(11)
        for b, q, bv in rng.normal(0.0, 1e3, (20, 3)):
            fields = model.FieldParams(b_hz=b, q_hz=q, b_vector_hz=bv)
            for mult in (0.0, 0.37, 1.0, rng.uniform()):
                e = fields.level_shifts(mult)
                for dm in (1, 2):
                    for i in range(DIM - dm):
                        got = model.pair_splitting_hz(fields, M_VALUES[i], dm, mult)
                        assert got.hex() == float(e[i + dm] - e[i]).hex()
        with pytest.raises(SpinError):
            model.pair_splitting_hz(REF_FIELDS, 4.5)

    def test_vector_light_shift_part_scales_with_tls(self):
        f = model.FieldParams(b_hz=940.0, q_hz=-320.0, b_vector_hz=20.0)
        on = f.level_shifts(tls_multiplier=1.0)
        off = f.level_shifts(tls_multiplier=0.0)
        assert on[1] - on[0] == pytest.approx(960.0 - 320.0 * (2 * -4.5 + 1))
        # with the light off, both q and the vector shift vanish
        assert np.allclose(np.diff(off), 940.0)


class TestRamanHamiltonian:
    def test_resonant_coupling_is_half_omega(self):
        tone = model.RamanTone(-2.5, -1.5, 71.0)
        hm = compiled([tone]).hamiltonian(0.0)
        assert hm[2, 3] == pytest.approx(35.5)
        assert hm[2, 2] == pytest.approx(hm[3, 3])  # resonant pair degenerate

    def test_zero_tones_is_diagonal(self):
        hm = compiled([], duration=1.0).hamiltonian(0.3)
        assert np.allclose(hm, np.diag(np.diag(hm)))
        assert np.allclose(np.diag(hm).real, REF_FIELDS.level_shifts())

    def test_cg_ratios_match_leg_product_oracle(self):
        # oracle: explicit pi x sigma- two-photon product through F' = 9/2
        tone = model.RamanTone(-2.5, -1.5, 71.0)
        hm = compiled([tone]).hamiltonian(0.0)
        w_ref = (clebsch_gordan(4.5, -2.5, 1, 0, 4.5, -2.5)
                 * clebsch_gordan(4.5, -1.5, 1, -1, 4.5, -2.5))
        for i in range(DIM - 1):
            m = M_VALUES[i]
            w = (clebsch_gordan(4.5, m, 1, 0, 4.5, m)
                 * clebsch_gordan(4.5, m + 1, 1, -1, 4.5, m))
            assert hm[i, i + 1].real == pytest.approx(35.5 * w / w_ref, abs=1e-9)

    def test_cg_weights_computed_once_per_pair(self, monkeypatch):
        tone = model.RamanTone(-2.5, -1.5, 71.0)
        first = tone.coupling_matrix()
        calls = []
        cg = model.clebsch_gordan
        monkeypatch.setattr(model, "clebsch_gordan",
                            lambda *a: calls.append(a) or cg(*a))
        assert np.array_equal(tone.coupling_matrix(), first)
        assert calls == []

    def test_phase_and_detuning_leave_the_coupling_triangle(self):
        # each segment carries half the tone's coupling matrix, whatever
        # the tone's phase and detuning
        tone = model.RamanTone(-2.5, -1.5, 71.0)
        twins = [tone, replace(tone, phase=0.4), replace(tone, detuning_hz=3.0)]
        sched = sq.compile(sq.PulseSequence(
            segments=tuple(sq.PulseSegment(duration=0.01, tones=(t,)) for t in twins),
            fields=REF_FIELDS))
        half = (tone.coupling_matrix() / 2.0).tobytes()
        assert [seg.tones[0][0].tobytes() for seg in sched.segments] == [half] * 3

    def test_hermitian_at_sampled_times(self):
        tones = [model.RamanTone(-2.5, -1.5, 71.0),
                 model.RamanTone(-3.5, -2.5, 40.0, phase=0.7)]
        sched = compiled(tones)
        assert sched.segments[0].kind == "general"
        for t in np.linspace(0, 0.01, 7):
            hm = sched.hamiltonian(t)
            assert np.max(np.abs(hm - hm.conj().T)) < 1e-12

    def test_invalid_pair_rejected(self):
        with pytest.raises(model.ModelError):
            model.RamanTone(-2.5, 0.5, 10.0)
        with pytest.raises(model.ModelError):
            model.RamanTone(-2.5, -1.5, -5.0)


class TestScatteringChannels:
    def test_calibrated_profile_transfer_rate(self):
        # net transfer 0.5/s out of each state after the ASE factor
        spec = model.photon_scattering_channels()
        for m in (-4.5, -3.5, -2.5, -1.5, 0.5):
            i = m_index(m)
            transfer = sum(rate for op, rate in spec.channels
                           if abs(op[:, i]).sum() > 0
                           and np.argmax(np.abs(op[:, i])) != i)
            assert transfer == pytest.approx(model.CALIBRATED_TRANSFER_RATE, rel=1e-9)

    def test_zero_budget_empty(self):
        spec = model.photon_scattering_channels(scattering_budget=0.0,
                                                ase_factor=1.0)
        assert len(spec) == 0

    def test_branching_ratios_sum_to_one(self):
        b = model.scattering_branching_ratios()
        assert np.allclose(b.sum(axis=0), 1.0, atol=1e-12)
        i = m_index(-2.5)
        assert b[:, i].sum() == pytest.approx(1.0, abs=1e-12)

    def test_default_branching_built_once_and_read_only(self):
        table = model.scattering_branching_ratios()
        assert model.scattering_branching_ratios() is table
        # unit weights take the uncached path through clebsch_gordan
        fresh = model.scattering_branching_ratios({fp: 1.0 for fp in (3.5, 4.5, 5.5)})
        assert np.array_equal(table, fresh)
        with pytest.raises(ValueError):
            table[0, 0] = 0.5
        model.photon_scattering_channels(rayleigh_override=np.full(DIM, 0.5))
        assert np.array_equal(model.scattering_branching_ratios(), fresh)

    def test_liouvillian_preserves_trace(self):
        from sunspin.dynamics import liouvillian
        spec = model.photon_scattering_channels()
        sup = liouvillian(np.zeros((DIM, DIM)), spec.channels)
        # trace functional: row-major vec of identity
        tr = np.eye(DIM).flatten()
        assert np.max(np.abs(tr @ sup)) < 1e-12

    def test_negative_budget_rejected(self):
        with pytest.raises(model.ModelError):
            model.photon_scattering_channels(scattering_budget=-1.0)


def decay_rate(spec, m1, m2):
    """Decay rate of rho(m1, m2) under ``spec``, as the engine steps it."""
    return dynamics._coherence_rates(spec.channels)[m_index(m1), m_index(m2)]


class TestInhomogeneousDephasing:
    def test_unit_pair_decay_time(self):
        spec = model.inhomogeneous_dephasing()
        assert decay_rate(spec, -2.5, -1.5) == pytest.approx(1 / 0.210)

    def test_delta_m_2_twice_slower(self):
        spec = model.inhomogeneous_dephasing()
        assert decay_rate(spec, -3.5, -1.5) == pytest.approx(1 / 0.420)
        assert decay_rate(spec, -4.5, -1.5) == pytest.approx(1 / 0.630)

    def test_populations_conserved(self):
        from sunspin.dynamics import evolve_density
        spec = model.inhomogeneous_dephasing()
        rng = np.random.default_rng(3)
        psi = rng.normal(size=DIM) + 1j * rng.normal(size=DIM)
        psi /= np.linalg.norm(psi)
        rho = np.outer(psi, psi.conj())
        traj = evolve_density(rho, np.zeros((DIM, DIM)), lindblad=spec,
                              t0=0, t1=0.5)
        assert np.allclose(np.diag(traj.final).real, np.abs(psi) ** 2,
                           atol=1e-9)

    def test_free_decay_of_pair_coherence(self):
        from sunspin.dynamics import evolve_density
        spec = model.inhomogeneous_dephasing()
        psi = (basis_state(-2.5) + basis_state(-1.5)) / np.sqrt(2)
        rho = np.outer(psi, psi.conj())
        traj = evolve_density(rho, np.zeros((DIM, DIM)), lindblad=spec,
                              t0=0, t1=0.210)
        assert abs(traj.final[2, 3]) == pytest.approx(0.5 / np.e, rel=1e-6)

    def test_quadratic_mode_scaling(self):
        spec = model.inhomogeneous_dephasing(mode="quadratic")
        r1 = decay_rate(spec, -2.5, -1.5)
        r2 = decay_rate(spec, -3.5, -1.5)
        assert r1 == pytest.approx(1 / 0.210)
        assert r2 == pytest.approx(4 / 0.210)

    def test_large_manifold_infeasible(self):
        with pytest.raises(model.ModelError):
            model.inhomogeneous_dephasing(manifold=tuple(M_VALUES))


class TestSystematics:
    def test_ac_stark_formula(self):
        assert model.ac_stark_estimate(77.0, -320.0) == pytest.approx(
            77**2 / (8 * -320))
        assert model.ac_stark_estimate(0.0, -320.0) == 0.0
        with pytest.raises(model.ModelError):
            model.ac_stark_estimate(50.0, 0.0)

    def test_against_dressed_state_oracle(self):
        # 2x2 eigenvalue oracle: shift of the driven level at detuning 2q
        for ratio in (9, 20, 100):
            q = -320.0
            omega = 2 * abs(q) / ratio
            approx = model.ac_stark_estimate(omega, q)
            delta = 2 * q
            exact = 0.5 * (np.sign(delta) * np.hypot(delta, omega) - delta)
            assert approx == pytest.approx(exact, rel=0.10)

    def test_control_regime_reference_case(self):
        report = model.control_regime_check(960.0, -320.0)
        assert not report.controllable
        assert report.degenerate_pairs  # quasi-degenerate resonances listed
        flagged = {m for p in report.degenerate_pairs for m in p[:2]}
        assert 1.5 in flagged or -1.5 in flagged

    def test_control_regime_trivial_cases(self):
        assert model.control_regime_check(960.0, 0.0).controllable
        assert model.control_regime_check(2600.0, -320.0).controllable
        assert not model.control_regime_check(2500.0, -320.0).controllable


class TestGeneralizedRabi:
    def test_detuned_oscillation_frequency(self):
        # CG weighting off, single detuned tone: extracted generalized
        # Rabi frequency equals sqrt(omega^2 + delta^2)
        from sunspin import analysis, dynamics
        omega, delta = 60.0, 45.0
        tone = model.RamanTone(-2.5, -1.5, omega, detuning_hz=delta,
                               cg_weighting=False)
        ts = np.linspace(1e-6, 0.08, 400)
        traj = dynamics.evolve_pure(basis_state(-2.5),
                                    compiled([tone], duration=ts[-1]), t_eval=ts)
        fit = analysis.fit_sine(ts, traj.populations()[:, 3])
        assert fit["frequency_hz"] == pytest.approx(np.hypot(omega, delta),
                                                    rel=1e-4)
