import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sunspin import analysis, dynamics, model, protocols as pr, readout as ro
from sunspin import sequence as sq
from sunspin.spin_core import DIM, M_VALUES, basis_state, density_matrix


REF_FIELDS = model.FieldParams(b_hz=960.0, q_hz=-320.0)
RAMSEY_FIELDS = model.FieldParams(b_hz=960.0, q_hz=190.0)
DUAL_FIELDS = model.FieldParams(b_hz=1000.0, q_hz=-303.0)
SCATTER_DEPHASE = model.photon_scattering_channels().merge(
    model.inhomogeneous_dephasing())


class TestRabiScan:
    def test_flat_for_zero_drive(self):
        res = pr.rabi_scan((-2.5, -1.5), 0.0, REF_FIELDS,
                           np.linspace(1e-4, 0.05, 7))
        assert np.allclose(res.populations, res.populations[0])

    def test_dm1_spectral_isolation(self):
        durations = np.linspace(1e-6, 11 / 71, 450)
        res = pr.rabi_scan((-2.5, -1.5), 71.0, REF_FIELDS, durations)
        leak = res.population(-3.5)
        assert leak.mean() < 0.01
        assert res.population(-1.5).max() > 0.99

    def test_dm2_complementary_oscillations(self):
        fields = model.FieldParams(b_hz=960.0, q_hz=-95.0)
        durations = np.linspace(1e-6, 0.1, 160)
        res = pr.rabi_scan((-3.5, -1.5), 29.0, fields, durations)
        p_lo, p_hi = res.population(-3.5), res.population(-1.5)
        assert p_hi.max() > 0.9
        assert np.max(np.abs(p_lo + p_hi - 1.0)) < 0.08  # complementary
        fit = analysis.fit_sine(durations, p_hi)
        assert fit["frequency_hz"] == pytest.approx(29.0, rel=0.02)

    def test_shot_sampling_reproducible(self):
        durations = np.linspace(1e-4, 0.01, 3)
        kw = dict(n_shots=5, n_atoms=200, seed=17,
                  detection=ro.DetectionModel.ideal())
        r1 = pr.rabi_scan((-2.5, -1.5), 71.0, REF_FIELDS, durations, **kw)
        r2 = pr.rabi_scan((-2.5, -1.5), 71.0, REF_FIELDS, durations, **kw)
        assert np.array_equal(r1.shots.true_counts, r2.shots.true_counts)
        assert np.array_equal(r1.shots.detected_counts, r2.shots.detected_counts)

    @pytest.mark.parametrize("lindblad", [None, SCATTER_DEPHASE],
                             ids=["pure", "scatter-dephase"])
    def test_durations_in_any_order_with_repeats(self, lindblad):
        durations = np.linspace(1e-3, 0.02, 6)
        order = [3, 0, 5, 3, 1, 4, 2, 0]
        in_order = pr.rabi_scan((-2.5, -1.5), 71.0, REF_FIELDS, durations,
                                lindblad=lindblad)
        shuffled = pr.rabi_scan((-2.5, -1.5), 71.0, REF_FIELDS, durations[order],
                                lindblad=lindblad)
        assert shuffled.scan_values.tobytes() == durations[order].tobytes()
        assert shuffled.populations.tobytes() == in_order.populations[order].tobytes()

    def test_density_scan_one_expm_per_duration(self, monkeypatch):
        # the segment ends at the last duration, so no step runs past it:
        # one eigendecomposition and no expm, or on the expm fallback one
        # expm per duration
        from sunspin import dynamics
        expm_calls, eig_calls = [], []
        expm, eig = dynamics.expm, np.linalg.eig
        monkeypatch.setattr(dynamics, "expm",
                            lambda a: expm_calls.append(1) or expm(a))
        monkeypatch.setattr(np.linalg, "eig",
                            lambda a: eig_calls.append(1) or eig(a))
        durations = np.linspace(1e-3, 0.02, 6)

        def scan():
            pr.rabi_scan((-2.5, -1.5), 71.0, REF_FIELDS, durations,
                         lindblad=model.photon_scattering_channels())

        dynamics.clear_caches()
        scan()
        assert (len(expm_calls), len(eig_calls)) == (0, 1)
        dynamics.clear_caches()
        monkeypatch.setattr(dynamics, "EIG_COND_MAX", 0.0)
        scan()
        assert (len(expm_calls), len(eig_calls)) == (len(durations), 2)

    @pytest.mark.parametrize("lindblad", [None, model.LindbladSpec(), SCATTER_DEPHASE],
                             ids=["pure", "empty set", "scatter-dephase"])
    def test_reads_populations_without_evolving_states(self, lindblad, monkeypatch):
        # the scan reads the ten population rows off each sample and builds
        # no trajectory of states; it reads what the trajectory's
        # populations are
        durations = np.linspace(1e-3, 0.35, 40)
        seg = sq.PulseSegment(duration=0.35, tones=(model.RamanTone(-2.5, -1.5, 71.0),))
        sched = sq.compile(sq.PulseSequence(segments=(seg,), fields=REF_FIELDS),
                           lindblad=lindblad)
        reference = dynamics.evolve(sched, basis_state(-2.5), t_eval=durations).populations()
        for name in ("evolve", "evolve_pure", "evolve_density"):
            monkeypatch.setattr(dynamics, name, None)
        res = pr.rabi_scan((-2.5, -1.5), 71.0, REF_FIELDS, durations, lindblad=lindblad)
        assert pr._POP_ROWS.flags.c_contiguous
        assert np.max(np.abs(res.populations - reference)) <= 1e-13


class TestRamsey:
    def test_full_contrast_fringe_at_short_t(self):
        t_vals = np.linspace(0.0005, 0.0405, 61)
        res = pr.ramsey((-3.5, -2.5), t_vals, RAMSEY_FIELDS, 93.0,
                        detuning_hz=25.0)
        fringe = res.population(-2.5)
        assert fringe.max() - fringe.min() > 0.95

    def test_on_resonance_population_independent_of_t(self):
        res = pr.ramsey((-3.5, -2.5), [0.01, 0.2, 0.9], RAMSEY_FIELDS, 93.0,
                        detuning_hz=0.0, cg_weighting=False)
        p = res.population(-2.5)
        assert np.allclose(p, p[0], atol=1e-9)
        assert p[0] == pytest.approx(1.0, abs=1e-9)  # net pi pulse

    def test_fringe_frequency_matches_detuning(self):
        t_vals = np.linspace(0.005, 2.005, 81)
        res = pr.ramsey((-3.5, -2.5), t_vals, RAMSEY_FIELDS, 93.0,
                        detuning_hz=1.0, cg_weighting=False)
        fit = analysis.fit_sine(t_vals, res.population(-2.5))
        assert fit["frequency_hz"] == pytest.approx(1.0, rel=1e-3)

    def test_tls_off_dark_time_lossless(self):
        # channels tied to the TLS multiplier are off during the dark
        # time; contrast referenced to the shortest T loses < 1 %
        lb = model.photon_scattering_channels().merge(
            model.inhomogeneous_dephasing())
        res = pr.ramsey((-3.5, -2.5), [0.005, 3.0], RAMSEY_FIELDS, 93.0,
                        tls_mode="adiabatic-off", lindblad=lb,
                        detuning_hz=1.0)
        c_short, c_long = res.contrast
        assert c_long > 0.99 * c_short

    @pytest.mark.parametrize("lindblad", [None, model.LindbladSpec()],
                             ids=["pure", "empty-lindblad"])
    def test_sampled_phase_noise_quiet_matches_expectation(self, lindblad):
        # with zero phase noise every shot samples the noiseless fringe
        t_vals = [0.005, 0.013, 0.021]
        kw = dict(detuning_hz=25.0, lindblad=lindblad,
                  noise=pr.NoiseSpec.quiet())
        bare = pr.ramsey((-3.5, -2.5), t_vals, RAMSEY_FIELDS, 93.0, **kw)
        shot_kw = dict(phase_noise="sample", n_shots=40, n_atoms=500, seed=23)
        res = pr.ramsey((-3.5, -2.5), t_vals, RAMSEY_FIELDS, 93.0,
                        **kw, **shot_kw)
        again = pr.ramsey((-3.5, -2.5), t_vals, RAMSEY_FIELDS, 93.0,
                          **kw, **shot_kw)
        n = 40 * 500
        for k in range(len(t_vals)):
            mean = res.shots[k].true_counts.sum(axis=0) / n
            for m in (-3.5, -2.5):
                p = bare.population(m)[k]
                se = np.sqrt(p * (1 - p) / n)
                assert abs(mean[ro.m_index(m)] - p) < 5 * se
        assert np.array_equal(res.shots.true_counts, again.shots.true_counts)
        assert np.array_equal(res.shots.detected_counts, again.shots.detected_counts)

    def test_averaged_phase_noise_is_the_mean_of_sampled_rotations(self):
        # 'average' folds in the mean of the pair z rotation that 'sample'
        # applies per shot, so the coherences with third levels decay too
        # and the populations stay physical; reference: an 80-node
        # Gauss-Hermite average of the sampled closing populations
        t_vals = np.linspace(0.0045, 0.05, 40)
        noise = pr.NoiseSpec()
        res = pr.ramsey((-3.5, -2.5), t_vals, RAMSEY_FIELDS, 93.0, detuning_hz=25.0,
                        noise=noise, phase_noise="average")
        nodes, weights = np.polynomial.hermite_e.hermegauss(80)
        weights /= weights.sum()
        spin = np.zeros(DIM)
        spin[ro.m_index(-3.5)], spin[ro.m_index(-2.5)] = -0.5, 0.5
        for k, t_dark in enumerate(t_vals):
            sched = sq.compile(pr._ramsey_sequence((-3.5, -2.5), t_dark, RAMSEY_FIELDS,
                                                   93.0, "on", 25.0, True))
            rho_pre = density_matrix(dynamics.evolve(pr._section(sched, 0, -1),
                                                     basis_state(-3.5)).final)
            dphi = np.sqrt(noise.phase_variance(t_dark, True)) * nodes
            pops = weights @ pr._shot_populations(
                pr._closing_rows(pr._section(sched, -1)), rho_pre,
                np.multiply.outer(dphi, spin))
            assert np.max(np.abs(res.populations[k] - pops)) < 1e-13

    def test_sampled_phase_noise_without_shots_rejected(self):
        with pytest.raises(pr.ProtocolError):
            pr.ramsey((-3.5, -2.5), [0.005], RAMSEY_FIELDS, 93.0,
                      noise=pr.NoiseSpec.quiet(), phase_noise="sample")

    def test_tls_mode_validation(self):
        with pytest.raises(pr.ProtocolError):
            pr.ramsey((-3.5, -2.5), [0.003], RAMSEY_FIELDS, 93.0,
                      tls_mode="adiabatic-off")


class TestParallelRamsey:
    def test_degenerate_periods_for_zero_q(self):
        fields = model.FieldParams(b_hz=1000.0, q_hz=0.0)
        t_vals = np.linspace(0.004, 0.0064, 97)
        res = pr.parallel_ramsey(t_vals, fields, omega_hz=77.0,
                                 cg_weighting=False)
        f1 = analysis.fit_sine(t_vals, res.population(-1.5))["frequency_hz"]
        f2 = analysis.fit_sine(t_vals, res.population(-3.5))["frequency_hz"]
        assert f1 == pytest.approx(f2, rel=1e-3)

    def test_too_short_open_time_rejected(self):
        with pytest.raises(pr.ProtocolError):
            pr.parallel_ramsey([0.002], DUAL_FIELDS, omega_hz=77.0)

    def test_expected_phases_follow_the_lo_plan(self):
        # the LO over each open window, segment by segment: if1 is open
        # over a dark time at the if1 LO, the if2 opening pulse and the
        # shared dark time; if2 over the shared dark time, the if1
        # closing pulse and a dark time at the if1 LO
        t_vals = np.array([0.004, 0.0065])
        res = pr.parallel_ramsey(t_vals, DUAL_FIELDS, omega_hz=77.0,
                                 delta_shared_hz=1.0, gap_s=1e-4)
        nus = [model.pair_splitting_hz(DUAL_FIELDS, pair[0])
               for pair in (pr.IF1_PAIR, pr.IF2_PAIR)]
        for k, t_open in enumerate(t_vals):
            d = [s.duration for s in _dual_times(t_open)[0].segments]
            windows = (((d[3], -nus[0]), (d[4], -nus[1]), (d[5], 1.0)),
                       ((d[5], 1.0), (d[6], -nus[0]), (d[7], -nus[0])))
            for w, (window, nu) in enumerate(zip(windows, nus)):
                span = sum(dt for dt, _ in window)
                mean = sum(dt * lo for dt, lo in window) / span
                assert res.meta["mean_delta_hz"][k, w] == pytest.approx(mean, rel=1e-12)
                assert res.meta["expected_phases"][k, w] == pytest.approx(
                    -2 * np.pi * (nu + mean) * span, rel=1e-12)

    def test_ac_stark_cross_shift_matches_estimate(self):
        # phase offset of interferometer 1 versus the bare schedule
        # expectation.  The interleaved pulse addressing interferometer 2
        # shifts the if1 levels (differential dressed shifts) and lets
        # leaked amplitudes interfere with the macroscopic ones; the net
        # offset is consistent with the Omega^2/(8q) estimate applied
        # over that pulse.
        t_open = 0.05
        res = pr.parallel_ramsey([t_open], DUAL_FIELDS, omega_hz=77.0,
                                 track_phases=True)
        offset_sim = res.phases[0][0] - res.meta["expected_phases"][0][0]
        tau3 = 0.25 / 77.0
        offset_pred = 2 * np.pi * model.ac_stark_estimate(
            77.0, DUAL_FIELDS.q_hz) * tau3
        assert offset_sim == pytest.approx(offset_pred, rel=0.20)

    def test_ac_stark_magnitude_consistent_with_formula(self):
        # the same offset, order-of-magnitude against Omega^2/(8q)
        t_open = 0.05
        res = pr.parallel_ramsey([t_open], DUAL_FIELDS, omega_hz=77.0,
                                 track_phases=True)
        offset_sim = abs(res.phases[0][0] - res.meta["expected_phases"][0][0])
        tau3 = 0.25 / 77.0
        scale = abs(2 * np.pi * model.ac_stark_estimate(77.0, DUAL_FIELDS.q_hz)
                    * tau3)
        assert 0.2 * scale < offset_sim < 5 * scale

    def test_bit_for_bit_reproducibility(self):
        t_vals = [0.004, 0.0045]
        kw = dict(omega_hz=77.0, n_shots=4, n_atoms=500, seed=23)
        r1 = pr.parallel_ramsey(t_vals, DUAL_FIELDS, **kw)
        r2 = pr.parallel_ramsey(t_vals, DUAL_FIELDS, **kw)
        assert np.array_equal(r1.populations, r2.populations)
        assert np.array_equal(r1.shots.true_counts, r2.shots.true_counts)

    def test_sampled_field_toggle_splits_phases(self):
        noise = pr.NoiseSpec(pulse_area_sigma=0.0, b_jitter_hz=3.0,
                             q_jitter_hz=0.5, b_toggle_prob=0.5,
                             b_toggle_hz=23.0)
        out = pr.dual_ramsey_sampled(0.004, DUAL_FIELDS, 77.0, noise,
                                     n_shots=200, seed=31)
        dphi2 = out["phase_offsets"][:, 1]
        # db is 3 Hz jitter on 0 or 23 Hz: the known toggle sits above
        # or below 11.5 Hz, and shifts phi_2 by -2 pi T 23
        toggled = out["field_offsets"][:, 0] > 11.5
        assert 0 < toggled.sum() < len(toggled)
        sep = dphi2[toggled].mean() - dphi2[~toggled].mean()
        expected = -2 * np.pi * 0.004 * 23.0
        assert sep == pytest.approx(expected, rel=0.15)


class TestBatchedShots:
    """Shots of dual_ramsey_sampled and ramsey(phase_noise='sample') are
    mapped and sampled as one batch per call or scan point."""

    @staticmethod
    def _spy(monkeypatch):
        calls = {"rows": [], "pops": []}
        rows_fn, pops_fn = pr._closing_rows, pr._shot_populations

        def rows_spy(schedule):
            calls["rows"].append(schedule)
            return rows_fn(schedule)

        def pops_spy(rows, rho, phases):
            out = pops_fn(rows, rho, phases)
            calls["pops"].append((rho, phases, out))
            return out

        monkeypatch.setattr(pr, "_closing_rows", rows_spy)
        monkeypatch.setattr(pr, "_shot_populations", pops_spy)
        return calls

    @staticmethod
    def _loop(schedule, rho, phases):
        # one shot at a time: diagonal phase, then U rho U^dag or S vec(rho)
        density = schedule.density
        if density:
            s = dynamics.superoperator(schedule)
        else:
            u = dynamics.propagator(schedule)
        out = []
        for p in phases:
            z = np.exp(-1j * p)
            r = rho * np.outer(z, z.conj())
            r = ((s @ r.flatten()).reshape(DIM, DIM) if density
                 else u @ r @ u.conj().T)
            out.append(np.real(np.diag(r)))
        return np.array(out)

    @pytest.mark.parametrize("lindblad", [None, SCATTER_DEPHASE],
                             ids=["pure", "scatter-dephase"])
    def test_dual_ramsey_batch_matches_per_shot_loop(self, monkeypatch,
                                                      lindblad):
        calls = self._spy(monkeypatch)
        noise = pr.NoiseSpec(pulse_area_sigma=0.0, b_jitter_hz=3.0,
                             q_jitter_hz=0.5, b_toggle_prob=0.5,
                             b_toggle_hz=23.0)
        out = pr.dual_ramsey_sampled(0.004, DUAL_FIELDS, 77.0, noise,
                                     n_shots=300, lindblad=lindblad,
                                     n_atoms=500, seed=5)
        [schedule], [(rho, phases, pops)] = calls["rows"], calls["pops"]
        assert schedule.density == (lindblad is not None)
        assert len(pops) > pr.SHOT_BLOCK  # more than one block of shots
        db, dq = out["field_offsets"].T
        m = np.arange(DIM) - 4.5
        assert np.array_equal(
            phases, 2 * np.pi * 0.004 * (db[:, None] * m + dq[:, None] * m**2))
        ref = self._loop(schedule, rho, phases)
        assert np.max(np.abs(pops - ref)) < 1e-13

    @pytest.mark.parametrize("lindblad", [None, SCATTER_DEPHASE],
                             ids=["pure", "scatter-dephase"])
    def test_sampled_ramsey_batch_matches_per_shot_loop(self, monkeypatch,
                                                        lindblad):
        calls = self._spy(monkeypatch)
        t_vals, n_shots, seed = [0.005, 0.013], 30, 23
        noise = pr.NoiseSpec()
        pr.ramsey((-3.5, -2.5), t_vals, RAMSEY_FIELDS, 93.0, lindblad=lindblad,
                  noise=noise, detuning_hz=25.0, phase_noise="sample",
                  n_shots=n_shots, n_atoms=500, seed=seed)
        # one closing map for the scan, one batch of shots per point
        [schedule] = calls["rows"]
        assert len(calls["pops"]) == len(t_vals)
        streams = np.random.SeedSequence(seed).spawn(len(t_vals))
        i, j = ro.m_index(-3.5), ro.m_index(-2.5)
        for k, t_dark in enumerate(t_vals):
            rho, phases, pops = calls["pops"][k]
            assert schedule.density == (lindblad is not None)
            # the point's stream opens with its n_shots phase offsets
            sd = np.sqrt(noise.phase_variance(t_dark, tls_on=True))
            half = np.random.default_rng(streams[k]).normal(0.0, sd, n_shots) / 2
            assert np.array_equal(phases[:, j], half)
            assert np.array_equal(phases[:, i], -half)
            assert not np.delete(phases, [i, j], axis=1).any()
            ref = self._loop(schedule, rho, phases)
            assert np.max(np.abs(pops - ref)) < 1e-13

    @pytest.mark.parametrize("lindblad", [None, SCATTER_DEPHASE],
                             ids=["pure", "scatter-dephase"])
    def test_quiet_dual_ramsey_means_match_nominal(self, lindblad):
        n_shots, n_atoms = 200, 500
        kw = dict(n_shots=n_shots, lindblad=lindblad, n_atoms=n_atoms,
                  detection=ro.DetectionModel(), seed=13)
        out = pr.dual_ramsey_sampled(0.004, DUAL_FIELDS, 77.0,
                                     pr.NoiseSpec.quiet(), **kw)
        again = pr.dual_ramsey_sampled(0.004, DUAL_FIELDS, 77.0,
                                       pr.NoiseSpec.quiet(), **kw)
        records = out["records"]
        assert out["phase_offsets"].shape == out["field_offsets"].shape == (n_shots, 2)
        assert isinstance(records, np.recarray) and records.dtype == ro.SHOT_DTYPE
        assert records.shape == (n_shots,)
        true = records.true_counts
        assert np.all(true.sum(axis=1) == n_atoms)
        n = n_shots * n_atoms
        p = out["populations_nominal"]
        # one count of slack for levels the pulses barely reach
        se = np.sqrt(np.clip(p * (1 - p), 0.0, None) / n) + 1.0 / n
        assert np.all(np.abs(true.sum(axis=0) / n - p) < 5 * se)
        for key in ("phase_offsets", "field_offsets", "populations_nominal"):
            assert np.array_equal(out[key], again[key])
        assert np.array_equal(true, again["records"].true_counts)
        assert np.array_equal(records.detected_counts,
                              again["records"].detected_counts)

    def test_dual_ramsey_needs_shots(self):
        with pytest.raises(pr.ProtocolError):
            pr.dual_ramsey_sampled(0.004, DUAL_FIELDS, 77.0,
                                   pr.NoiseSpec.quiet(), n_shots=0)


ANCILLA_FIELDS = model.FieldParams(b_hz=960.0, q_hz=-330.0)
# Each protocol that reports expected populations, on a short scan and
# with its shot keywords passed through.
SCANS = {
    "rabi": lambda values, **kw: pr.rabi_scan((-2.5, -1.5), 71.0, REF_FIELDS,
                                              values, **kw),
    "ramsey": lambda values, **kw: pr.ramsey((-3.5, -2.5), values, RAMSEY_FIELDS,
                                             93.0, detuning_hz=25.0, **kw),
    "parallel": lambda values, **kw: pr.parallel_ramsey(values, DUAL_FIELDS,
                                                        omega_hz=77.0, **kw),
    "ancilla": lambda values, **kw: pr.ancilla_measurement(values, ANCILLA_FIELDS,
                                                           **kw),
}
SCAN_VALUES = {"rabi": [1e-3, 4e-3, 7e-3], "ramsey": [0.005, 0.013],
               "parallel": [0.004, 0.0045], "ancilla": [0.1, 1.3, 2.9]}


class TestOneSampler:
    """Every protocol draws all shots of a scan point with one
    sample_counts call on that point's stream."""

    @pytest.mark.parametrize("lindblad", [None, SCATTER_DEPHASE],
                             ids=["pure", "scatter-dephase"])
    @pytest.mark.parametrize("scan", sorted(SCANS))
    def test_one_shot_draws_as_a_sample_shot_call(self, scan, lindblad):
        # one shot per point: the multinomial and binomial draws of a
        # one-shot sample_shot call on the point's populations
        det, seed = ro.DetectionModel(), 29
        res = SCANS[scan](SCAN_VALUES[scan], lindblad=lindblad, n_shots=1,
                          n_atoms=700, detection=det, seed=seed)
        streams = np.random.SeedSequence(seed).spawn(len(res.scan_values))
        assert res.shots.shape == (len(streams), 1)
        for k, [shot] in enumerate(res.shots):
            ref = ro.sample_shot(np.diag(res.populations[k]), 700, det,
                                 np.random.default_rng(streams[k]))
            assert np.array_equal(shot.true_counts, ref.true_counts)
            assert np.array_equal(shot.detected_counts, ref.detected_counts)

    @pytest.mark.parametrize("scan", sorted(SCANS))
    def test_one_batch_per_point(self, scan, monkeypatch):
        calls, draws = [], []
        sample_counts = pr.sample_counts

        def spy(pops, n_atoms, detection=None, rng=None):
            calls.append(np.array(pops))
            draws.append(sample_counts(pops, n_atoms, detection, rng))
            return draws[-1]

        monkeypatch.setattr(pr, "sample_counts", spy)
        n_shots = 6
        res = SCANS[scan](SCAN_VALUES[scan], n_shots=n_shots, n_atoms=300, seed=5)
        assert isinstance(res.shots, np.recarray) and res.shots.dtype == ro.SHOT_DTYPE
        assert len(calls) == len(res.scan_values) == len(res.shots)
        # point k's batch is row k of the scan's shots
        for rows, pops, shots, draw in zip(calls, res.populations, res.shots, draws):
            assert np.array_equal(rows, np.tile(pops, (n_shots, 1)))
            assert np.array_equal(shots, draw)

    @pytest.mark.parametrize("scan", sorted(SCANS))
    def test_empty_scan_rejected(self, scan):
        with pytest.raises(pr.ProtocolError, match="non-empty"):
            SCANS[scan]([])

    def test_non_finite_populations_rejected(self):
        pops = np.full((2, DIM), 0.1)
        pops[1, 3] = np.nan
        with pytest.raises(pr.ProtocolError, match="finite"):
            pr.InterferometerResult("x", np.arange(2.0), pops)


class TestAncilla:
    def test_populations_oscillate_and_ancilla_a_stays_flat(self):
        fields = model.FieldParams(b_hz=960.0, q_hz=-330.0)
        phis = np.linspace(0, 2 * np.pi, 13)
        res = pr.ancilla_measurement(phis, fields, omega_hz=76.0)
        spread = lambda m: res.population(m).max() - res.population(m).min()
        assert spread(-2.5) > 0.3
        assert spread(-3.5) > 0.3
        assert spread(-1.5) < 0.12
        assert spread(-1.5) > 1e-4  # finite residual at 2|q|/hbar Omega ~ 9

    def test_ideal_limit_recovers_input_sz(self):
        # large energy-scale separation: N_a - N_b -> <s_z> of the input
        fields = model.FieldParams(b_hz=960.0, q_hz=-330.0)
        theta = 1.1
        psi = ro.coherent_qubit_state(theta=theta)
        sz_in = 0.5 * np.cos(theta)
        res = pr.ancilla_measurement([0.0], fields, omega_hz=0.33,
                                     input_state=psi)
        sz_est = res.population(-1.5)[0] - res.population(-4.5)[0]
        assert sz_est == pytest.approx(sz_in, abs=2e-3)

    def test_residual_scales_down_with_ratio(self):
        fields = model.FieldParams(b_hz=960.0, q_hz=-330.0)
        phis = np.linspace(0, 2 * np.pi, 9)
        res9 = pr.ancilla_measurement(phis, fields, omega_hz=76.0)
        res90 = pr.ancilla_measurement(phis, fields, omega_hz=7.6)
        sp9 = res9.population(-1.5).max() - res9.population(-1.5).min()
        sp90 = res90.population(-1.5).max() - res90.population(-1.5).min()
        assert sp90 < 0.3 * sp9

    def test_pulse_maps_reused_across_phases(self, monkeypatch):
        # the three pulses are the same at every control phase, so the
        # scan diagonalizes one 100x100 Liouvillian per pulse and takes
        # no 100x100 expm, and a rerun on empty caches gives the same
        # outputs bit for bit (agreement with per-point runs: TestScanSweep)
        fields = model.FieldParams(b_hz=978.0, q_hz=-330.0)
        phis = np.linspace(0.0, 4 * np.pi, 49)
        lindblad = model.monochromatic_scattering_channels()
        shapes, eig_shapes = [], []
        expm, eig = dynamics.expm, np.linalg.eig
        monkeypatch.setattr(dynamics, "expm",
                            lambda a: shapes.append(a.shape) or expm(a))
        monkeypatch.setattr(np.linalg, "eig",
                            lambda a: eig_shapes.append(a.shape) or eig(a))
        dynamics.clear_caches()
        pops = pr.ancilla_measurement(phis, fields, lindblad=lindblad).populations
        assert eig_shapes == [(DIM * DIM, DIM * DIM)] * 3
        assert (DIM * DIM, DIM * DIM) not in shapes
        dynamics.clear_caches()
        again = pr.ancilla_measurement(phis, fields, lindblad=lindblad).populations
        assert np.array_equal(pops, again)


class TestLeakageScan:
    def test_scale_invariance(self):
        base = pr.leakage_scan(
            [30], fields=model.FieldParams(b_hz=960.0, q_hz=-330.0), n_phi=8)[0]
        for c in (0.5, 2.0):
            other = pr.leakage_scan(
                [30], fields=model.FieldParams(b_hz=960.0, q_hz=-330.0 * c),
                n_phi=8)[0]
            assert other["mean"] == pytest.approx(base["mean"], abs=1e-9)
            assert other["max"] == pytest.approx(base["max"], abs=1e-9)

    def test_ratio_to_infinity_vanishes(self):
        row = pr.leakage_scan([3000], n_phi=8)[0]
        assert abs(row["mean"]) < 1e-4
        assert row["spread"] < 1e-3


class TestProjectionNoiseScaling:
    def test_dual_is_sqrt2_of_single(self):
        n_at, n_shots = 10_000, 10_000
        s_single = ro.phase_noise_mc(n_at, n_shots, "single-all", seed=41)
        s_dual = ro.phase_noise_mc(n_at, n_shots, "dual-all", seed=42)
        assert s_dual / s_single == pytest.approx(np.sqrt(2), rel=0.10)

    def test_single_port_penalty(self):
        n_at, n_shots = 10_000, 10_000
        s_all = ro.phase_noise_mc(n_at, n_shots, "dual-all", seed=43)
        s_one = ro.phase_noise_mc(n_at, n_shots, "dual-single-port", seed=44)
        assert s_one / s_all == pytest.approx(np.sqrt(1.5), rel=0.10)


class TestNoiseSpec:
    def test_phase_variance_model(self):
        ns = pr.NoiseSpec()
        assert ns.phase_variance(0.005, tls_on=True) == pytest.approx(
            0.0245 + 19.6 * 0.005)
        assert np.sqrt(ns.phase_variance(0.005, True)) == pytest.approx(
            0.35, abs=0.02)
        # TLS-off: ~1 rad^2 after about two seconds of dark time
        assert ns.phase_variance(2.1, tls_on=False) == pytest.approx(
            1.0, abs=0.1)

    def test_validation(self):
        with pytest.raises(pr.ProtocolError):
            pr.NoiseSpec(pulse_area_sigma=-0.1)
        with pytest.raises(pr.ProtocolError):
            pr.NoiseSpec(b_toggle_prob=1.5)


# ---------------------------------------------------------------------------
# scans against per-point runs
# ---------------------------------------------------------------------------

SWEEP_LINDBLADS = {"pure": None,
                   "scattering": model.monochromatic_scattering_channels()}
TIME_LINDBLADS = {"pure": None, "scatter-dephase": SCATTER_DEPHASE}
# every level populated and every coherence present, at spread phases
SPREAD_STATE = np.exp(0.7j * np.arange(DIM) ** 2) / np.sqrt(DIM)


def _wrapped(angle):
    return np.angle(np.exp(1j * np.asarray(angle)))


def _ramsey_per_point(t_dark, tls_mode, lindblad, detuning_hz=25.0,
                      fields=RAMSEY_FIELDS):
    """Final populations and pre-closing contrast, one full run at T."""
    seq = pr._ramsey_sequence((-3.5, -2.5), t_dark, fields, 93.0,
                              tls_mode, detuning_hz, True)
    sched = sq.compile(seq, lindblad=lindblad)
    t_pre = sched.duration - seq.segments[-1].duration
    traj = dynamics.evolve(sched, basis_state(-3.5), t_eval=[t_pre, sched.duration])
    rho_pre = density_matrix(traj.states[0])
    i, j = ro.m_index(-3.5), ro.m_index(-2.5)
    return traj.populations()[-1], 2 * abs(rho_pre[i, j])


def _dual_times(t_open, fields=DUAL_FIELDS):
    seq = pr._dual_ramsey_sequence(t_open, fields, 77.0, 1.0, 1e-4)
    return seq, np.cumsum([0.0] + [s.duration for s in seq.segments])


def _parallel_per_point(t_open, lindblad, fields=DUAL_FIELDS):
    """Final populations and wrapped window phases, one full run at T."""
    seq, t = _dual_times(t_open, fields)
    traj = dynamics.evolve(sq.compile(seq, lindblad=lindblad), basis_state(-2.5),
                           t_eval=[t[3], t[5], t[6], t[8], t[-1]])
    coh1, coh2 = traj.coherence(*pr.IF1_PAIR), traj.coherence(*pr.IF2_PAIR)
    return traj.populations()[-1], -(np.angle([coh1[2], coh2[3]])
                                     - np.angle([coh1[0], coh2[1]]))


def _tracked_per_point(t_open):
    """Window phases unwrapped over densely sampled coherences."""
    seq, t = _dual_times(t_open)
    f_max = max(abs(model.pair_splitting_hz(DUAL_FIELDS, pair[0])) + 1.0
                for pair in (pr.IF1_PAIR, pr.IF2_PAIR))
    n_samp = max(64, int(np.ceil(8 * f_max * t_open)))
    windows = ((pr.IF1_PAIR, t[3], t[6]), (pr.IF2_PAIR, t[5], t[8]))
    t_eval = np.unique(np.concatenate(
        [np.linspace(a, b, n_samp) for _, a, b in windows] + [[t[-1]]]))
    traj = dynamics.evolve(sq.compile(seq), basis_state(-2.5), t_eval=t_eval)
    phases = []
    for pair, a, b in windows:
        sel = (traj.times >= a - 1e-15) & (traj.times <= b + 1e-15)
        ang = np.unwrap(np.angle(traj.coherence(*pair)[sel]))
        phases.append(-(ang[-1] - ang[0]))
    return np.array(phases)


class TestClosingRows:
    """Protocols read a closing section through population rows pulled
    back through it, never through its superoperator."""

    RUNS = {
        "ramsey": lambda spec: pr.ramsey(
            (-3.5, -2.5), [0.005, 0.01], RAMSEY_FIELDS, 93.0, lindblad=spec,
            detuning_hz=25.0),
        "ramsey adiabatic-off": lambda spec: pr.ramsey(
            (-3.5, -2.5), [0.005, 0.01], RAMSEY_FIELDS, 93.0, lindblad=spec,
            tls_mode="adiabatic-off", detuning_hz=25.0),
        "parallel_ramsey": lambda spec: pr.parallel_ramsey(
            [0.004, 0.005], DUAL_FIELDS, lindblad=spec),
        "dual_ramsey_sampled": lambda spec: pr.dual_ramsey_sampled(
            0.004, DUAL_FIELDS, 77.0, pr.NoiseSpec(b_jitter_hz=3.0), n_shots=50,
            lindblad=spec),
        "ancilla_measurement": lambda spec: pr.ancilla_measurement(
            [0.0, 1.0], REF_FIELDS, lindblad=spec),
    }

    @pytest.mark.parametrize("lindblad", sorted(TIME_LINDBLADS))
    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_no_superoperator_is_built(self, run, lindblad, monkeypatch):
        calls, pulled = [], []
        superoperator, pullback = dynamics.superoperator, dynamics.pullback
        monkeypatch.setattr(dynamics, "superoperator",
                            lambda *a, **kw: calls.append(1) or superoperator(*a, **kw))
        monkeypatch.setattr(dynamics, "pullback",
                            lambda *a, **kw: pulled.append(1) or pullback(*a, **kw))
        self.RUNS[run](TIME_LINDBLADS[lindblad])
        assert calls == [] and pulled


class TestScanSweep:
    """Each scan evolves its pulses once and applies per point only what
    its variable changes; these are the identities that rests on."""

    @settings(max_examples=12, deadline=None, database=None)
    @given(low=st.integers(0, DIM - 2), prefix_low=st.integers(0, DIM - 2),
           phis=st.lists(st.floats(-2 * np.pi, 2 * np.pi), min_size=1, max_size=4),
           lindblad=st.sampled_from(sorted(SWEEP_LINDBLADS)))
    def test_tone_phase_is_a_phase_block(self, low, prefix_low, phis, lindblad):
        # a final pulse at tone phase phi is the pulse at phase 0 after
        # the diagonal phase +phi m
        fields, spec = model.FieldParams(b_hz=960.0, q_hz=-330.0), SWEEP_LINDBLADS[lindblad]

        def sequence(phi):
            return sq.PulseSequence(segments=(
                sq.pulse(M_VALUES[prefix_low:prefix_low + 2], 76.0, np.pi / 2),
                sq.dark_time(1e-4),
                sq.pulse(M_VALUES[low:low + 2], 76.0, np.pi / 2, phase=phi)),
                fields=fields)

        phis = np.array(phis)
        swept = pr._phase_sweep(sq.compile(sequence(0.0), lindblad=spec),
                                SPREAD_STATE, phis[:, None] * M_VALUES)
        per_point = [dynamics.evolve(sq.compile(sequence(phi), lindblad=spec),
                                     SPREAD_STATE).populations()[-1] for phi in phis]
        assert np.max(np.abs(swept - per_point)) < 1e-13

    @settings(max_examples=8, deadline=None, database=None)
    @given(phis=st.lists(st.floats(-4 * np.pi, 4 * np.pi), min_size=1, max_size=4),
           theta=st.floats(0.0, np.pi), b_correction=st.floats(-20.0, 20.0),
           lindblad=st.sampled_from(sorted(SWEEP_LINDBLADS)))
    def test_ancilla_window_detuning_is_a_phase_block(self, phis, theta,
                                                      b_correction, lindblad):
        fields, spec = model.FieldParams(b_hz=960.0, q_hz=-330.0), SWEEP_LINDBLADS[lindblad]
        psi = ro.coherent_qubit_state(theta=theta)
        res = pr.ancilla_measurement(phis, fields, lindblad=spec, input_state=psi,
                                     b_correction_hz=b_correction)
        shifted = model.FieldParams(b_hz=960.0 + b_correction, q_hz=-330.0)
        per_point = [dynamics.evolve(sq.compile(
            pr._ancilla_sequence(phi, shifted, 76.0, pr.PHASE_WINDOW_S, 1e-4, False),
            lindblad=spec), psi).populations()[-1] for phi in phis]
        assert np.max(np.abs(res.populations - per_point)) < 1e-13

    def test_leakage_scan_matches_per_point_runs(self):
        n_phi, ratio = 6, 9.0
        (row,) = pr.leakage_scan([ratio], include_scattering=True, n_phi=n_phi)
        omega = 2 * 330.0 / ratio
        fields = model.FieldParams(b_hz=960.0, q_hz=-330.0)
        values = []
        for phi in np.linspace(0.0, 2 * np.pi, n_phi, endpoint=False):
            seq = sq.PulseSequence(segments=(
                sq.pulse(pr.MAP_A_PAIR, omega, np.pi / 2),
                sq.dark_time(0.01 / omega),
                sq.pulse(pr.MAP_B_PAIR, omega, np.pi / 2),
                sq.dark_time(0.01 / omega),
                sq.pulse(pr.QUBIT_PAIR, omega, np.pi / 2, phase=phi)), fields=fields)
            p = dynamics.evolve(
                sq.compile(seq, lindblad=model.monochromatic_scattering_channels()),
                ro.coherent_qubit_state()).populations()[-1]
            values.append(p[ro.m_index(-1.5)] - p[ro.m_index(-4.5)])
        for key, value in (("max", max(values)), ("min", min(values)),
                           ("mean", np.mean(values))):
            assert row[key] == pytest.approx(value, abs=1e-13)

    @settings(max_examples=8, deadline=None, database=None)
    @given(t_values=st.lists(st.floats(0.0041, 0.3), min_size=1, max_size=4),
           tls_mode=st.sampled_from(["on", "adiabatic-off"]),
           lindblad=st.sampled_from(sorted(TIME_LINDBLADS)))
    @example(t_values=[0.02, 0.005, 0.02], tls_mode="adiabatic-off",
             lindblad="scatter-dephase")
    def test_ramsey_dark_restep_matches_per_point_runs(self, t_values, tls_mode,
                                                       lindblad):
        spec = TIME_LINDBLADS[lindblad]
        res = pr.ramsey((-3.5, -2.5), t_values, RAMSEY_FIELDS, 93.0,
                        tls_mode=tls_mode, lindblad=spec, detuning_hz=25.0)
        for k, t_dark in enumerate(t_values):
            pops, contrast = _ramsey_per_point(t_dark, tls_mode, spec)
            assert np.max(np.abs(res.populations[k] - pops)) < 1e-13
            assert res.contrast[k] == pytest.approx(contrast, abs=1e-13)

    def test_long_dark_scan_matches_each_schedule(self):
        # the scan of ramsey_tls_off.json (calibrated scattering, linear
        # dephasing) gives each T the ramps and hold of its own schedule,
        # also behind holds of seconds
        t_values = [0.005, 0.3, 1.0, 2.0, 3.0]
        args = ((-3.5, -2.5), RAMSEY_FIELDS, 93.0, "adiabatic-off", 1.0, True)
        res = pr.ramsey(args[0], t_values, *args[1:3], tls_mode=args[3],
                        lindblad=SCATTER_DEPHASE, detuning_hz=args[4])
        for k, t_dark in enumerate(t_values):
            sched = sq.compile(pr._ramsey_sequence(args[0], t_dark, *args[1:]),
                               lindblad=SCATTER_DEPHASE)
            pops = dynamics.evolve(sched, basis_state(-3.5)).populations()[-1]
            assert np.max(np.abs(res.populations[k] - pops)) < 5e-14

    @pytest.mark.parametrize("lindblad", sorted(TIME_LINDBLADS))
    def test_segment_map_does_not_depend_on_its_start(self, lindblad):
        # a pulse and a TLS ramp map the same, bit for bit, at the start
        # of a schedule and after a 3 s dark time
        spec = TIME_LINDBLADS[lindblad]
        for segment in (sq.pulse((-3.5, -2.5), 93.0, np.pi / 2, detuning_hz=1.0),
                        sq.tls_ramp(pr.TLS_RAMP_S, 1.0, 0.0)):
            at_zero, after_dark = (dynamics.pullback(pr._section(sq.compile(
                sq.PulseSequence(segments=(*prefix, segment), fields=RAMSEY_FIELDS),
                lindblad=spec), -1), np.eye(DIM * DIM))
                for prefix in ((), (sq.dark_time(3.0),)))
            assert at_zero.tobytes() == after_dark.tobytes()

    @settings(max_examples=8, deadline=None, database=None)
    @given(t_values=st.lists(st.floats(0.0036, 0.2), min_size=1, max_size=4),
           lindblad=st.sampled_from(sorted(TIME_LINDBLADS)))
    def test_parallel_dark_restep_matches_per_point_runs(self, t_values, lindblad):
        spec = TIME_LINDBLADS[lindblad]
        res = pr.parallel_ramsey(t_values, DUAL_FIELDS, lindblad=spec)
        for k, t_open in enumerate(t_values):
            pops, phases = _parallel_per_point(t_open, spec)
            assert np.max(np.abs(res.populations[k] - pops)) < 1e-13
            assert np.max(np.abs(_wrapped(res.phases[k] - phases))) < 1e-11

    def test_dark_stretch_without_closed_form_matches_per_point_runs(self):
        # a jump operator with two entries has no closed form, so the flat
        # dark stretch takes the eigen path, and a TLS ramp under it is
        # stepped by no exact method: adiabatic-off is rejected
        op = np.zeros((DIM, DIM), dtype=complex)
        op[ro.m_index(-3.5), ro.m_index(-2.5)] = 1.0
        op[ro.m_index(-1.5), ro.m_index(-3.5)] = 0.5
        spec = model.LindbladSpec(channels=((op, 4.0),))
        assert not dynamics._is_diagonal_safe(spec.channels)
        bound = 1e-8
        weak = model.FieldParams(b_hz=96.0, q_hz=19.0)
        t_values = [3e-4, 1.2e-3]
        res = pr.ramsey((-3.5, -2.5), t_values, weak, 93.0, tls_mode="on",
                        lindblad=spec, detuning_hz=25.0)
        for k, t_dark in enumerate(t_values):
            pops, contrast = _ramsey_per_point(t_dark, "on", spec, fields=weak)
            assert np.max(np.abs(res.populations[k] - pops)) < bound
            assert res.contrast[k] == pytest.approx(contrast, abs=bound)
        with pytest.raises(sq.SequenceError, match="segment 1: .*not diagonal-safe"):
            pr.ramsey((-3.5, -2.5), [4.1e-3, 4.3e-3], weak, 93.0,
                      tls_mode="adiabatic-off", lindblad=spec, detuning_hz=25.0)
        weak = model.FieldParams(b_hz=100.0, q_hz=-30.3)
        t_values = [3.6e-3, 3.9e-3]
        res = pr.parallel_ramsey(t_values, weak, lindblad=spec)
        for k, t_open in enumerate(t_values):
            pops, phases = _parallel_per_point(t_open, spec, fields=weak)
            assert np.max(np.abs(res.populations[k] - pops)) < bound
            assert np.max(np.abs(_wrapped(res.phases[k] - phases))) < bound

    def test_tracked_phases_match_dense_unwrapping(self):
        t_values = [0.0045, 0.05]
        res = pr.parallel_ramsey(t_values, DUAL_FIELDS, track_phases=True)
        for k, t_open in enumerate(t_values):
            assert np.max(np.abs(res.phases[k] - _tracked_per_point(t_open))) < 1e-9

    SCANS = {
        "ramsey": lambda n: pr.ramsey((-3.5, -2.5), np.linspace(0.005, 0.02, n),
                                      RAMSEY_FIELDS, 93.0, detuning_hz=25.0),
        "parallel_ramsey": lambda n: pr.parallel_ramsey(
            np.linspace(0.004, 0.005, n), DUAL_FIELDS),
        "ancilla": lambda n: pr.ancilla_measurement(
            np.linspace(0.0, 2 * np.pi, n), REF_FIELDS),
        "leakage_scan": lambda n: pr.leakage_scan([9.0], n_phi=n),
    }

    @pytest.mark.parametrize("scan", sorted(SCANS))
    def test_pulses_compiled_and_evolved_once_per_call(self, scan, monkeypatch):
        compiles, pulse_steps = [], []
        compile_, step = sq.compile, dynamics._step
        monkeypatch.setattr(sq, "compile",
                            lambda *a, **kw: compiles.append(1) or compile_(*a, **kw))
        monkeypatch.setattr(
            dynamics, "_step",
            lambda seg, *a: (seg.coupling is not None and pulse_steps.append(id(seg)))
            or step(seg, *a))
        counts = []
        for n_points in (2, 20):
            compiles.clear()
            pulse_steps.clear()
            self.SCANS[scan](n_points)
            counts.append((len(compiles), len(pulse_steps)))
            # each pulse of the schedule (one Segment object each) is
            # stepped once, the first closing pulse of parallel_ramsey
            # included
            assert len(set(pulse_steps)) == len(pulse_steps)
        assert counts[0] == counts[1]
        assert counts[0][0] == 1

    DARK_SCANS = {
        "ramsey": lambda n, spec: pr.ramsey(
            (-3.5, -2.5), np.linspace(0.005, 0.02, n), RAMSEY_FIELDS, 93.0,
            tls_mode="adiabatic-off", lindblad=spec, detuning_hz=25.0),
        "parallel_ramsey": lambda n, spec: pr.parallel_ramsey(
            np.linspace(0.004, 0.005, n), DUAL_FIELDS, lindblad=spec),
    }

    @pytest.mark.parametrize("lindblad", sorted(TIME_LINDBLADS))
    @pytest.mark.parametrize("scan", sorted(DARK_SCANS))
    def test_dark_stretch_stepped_once_per_call(self, scan, lindblad, monkeypatch):
        # all open times go through one batched step: the tone-free segment
        # steps and section maps a call makes do not grow with its points
        calls = []

        def counted(name, function, counts=lambda *a: True):
            def wrapper(*args, **kwargs):
                if counts(*args):
                    calls.append(name)
                return function(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(dynamics, "_step", counted(
            "_step", dynamics._step, lambda seg, *a: seg.coupling is None))
        for name in ("propagator", "superoperator"):
            monkeypatch.setattr(dynamics, name,
                                counted(name, getattr(dynamics, name)))
        counts = []
        for n_points in (2, 20):
            calls.clear()
            self.DARK_SCANS[scan](n_points, TIME_LINDBLADS[lindblad])
            counts.append(sorted(calls))
        assert counts[0] == counts[1]

    def test_ancilla_input_state_with_preparing_pulse_rejected(self):
        with pytest.raises(pr.ProtocolError):
            pr.ancilla_measurement([0.0], REF_FIELDS, prepare_with_pulse=True,
                                   input_state=ro.coherent_qubit_state())
