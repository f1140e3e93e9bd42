import numpy as np
import pytest
from scipy.linalg import expm

from sunspin import spin_core as sc


RNG = np.random.default_rng(20240917)


def cartesian(roots):
    """Majorana points as (2F, 3) unit vectors."""
    st = np.sin(roots.theta)
    return np.column_stack((st * np.cos(roots.phi), st * np.sin(roots.phi),
                            np.cos(roots.theta)))


def random_state(rng=RNG):
    psi = rng.normal(size=sc.DIM) + 1j * rng.normal(size=sc.DIM)
    return psi / np.linalg.norm(psi)


class TestPairGenerator:
    def test_sigma_x_swaps_basis_states(self):
        g = sc.pair_generator(-2.5, -1.5, "x")
        assert np.allclose(g @ sc.basis_state(-2.5), sc.basis_state(-1.5))
        assert np.allclose(g @ sc.basis_state(-1.5), sc.basis_state(-2.5))

    def test_pi_pulse_identity(self):
        u = sc.pair_rotation(-2.5, -1.5, "x", np.pi)
        psi = u @ sc.basis_state(-2.5)
        assert np.allclose(psi, -1j * sc.basis_state(-1.5), atol=1e-14)
        for m in sc.M_VALUES:
            if m in (-2.5, -1.5):
                continue
            assert np.allclose(u @ sc.basis_state(m), sc.basis_state(m))

    def test_commutators_all_pairs(self):
        for m_low, m_high in [(m1, m2) for m1 in sc.M_VALUES
                              for m2 in sc.M_VALUES if m1 < m2]:
            gx = sc.pair_generator(m_low, m_high, "x")
            gy = sc.pair_generator(m_low, m_high, "y")
            gz = sc.pair_generator(m_low, m_high, "z")
            assert np.allclose(gx @ gy - gy @ gx, 2j * gz, atol=1e-14)

    def test_structural_invariants(self):
        for axis in ("x", "y", "z"):
            g = sc.pair_generator(-4.5, 1.5, axis)
            assert np.allclose(g, g.conj().T)
            assert abs(np.trace(g)) < 1e-14
            evals = np.sort(np.linalg.eigvalsh(g))
            assert np.allclose(evals[:1], -1) and np.allclose(evals[-1:], 1)
            assert np.allclose(evals[1:-1], 0, atol=1e-14)

    def test_squared_is_pair_projector(self):
        for axis in ("x", "y"):
            g = sc.pair_generator(-0.5, 0.5, axis)
            p = np.zeros((10, 10))
            p[4, 4] = p[5, 5] = 1
            assert np.allclose(g @ g, p)

    def test_rotation_inverse_many_random(self):
        pairs = [(m1, m2) for m1 in sc.M_VALUES for m2 in sc.M_VALUES if m1 < m2]
        rng = np.random.default_rng(11)
        for _ in range(1000):
            m1, m2 = pairs[rng.integers(len(pairs))]
            axis = "xyz"[rng.integers(3)]
            theta = rng.uniform(-2 * np.pi, 2 * np.pi)
            u = sc.pair_rotation(m1, m2, axis, theta)
            v = sc.pair_rotation(m1, m2, axis, -theta)
            assert np.max(np.abs(u @ v - np.eye(10))) < 1e-12

    def test_concatenation_stays_unitary(self):
        rng = np.random.default_rng(12)
        u = np.eye(10, dtype=complex)
        pairs = [(m, m + 1) for m in sc.M_VALUES[:-1]]
        for _ in range(500):
            m1, m2 = pairs[rng.integers(len(pairs))]
            u = sc.pair_rotation(m1, m2, "xyz"[rng.integers(3)],
                                 rng.uniform(-np.pi, np.pi)) @ u
        assert np.max(np.abs(u.conj().T @ u - np.eye(10))) < 1e-10

    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_rotation_matches_generator_exponential(self, axis):
        # every pair, dm = 1 .. 9, including the angles where the
        # closed form's cos / sin pass through 0 and -1
        angles = (0.0, np.pi, -np.pi, 2 * np.pi, 4 * np.pi, 0.37, -2.9)
        for m_low, m_high in [(m1, m2) for m1 in sc.M_VALUES
                              for m2 in sc.M_VALUES if m1 < m2]:
            g = sc.pair_generator(m_low, m_high, axis)
            for angle in angles:
                u = sc.pair_rotation(m_low, m_high, axis, angle)
                assert np.max(np.abs(u - expm(-0.5j * angle * g))) < 1e-14

    def test_invalid_inputs(self):
        with pytest.raises(sc.SpinError):
            sc.pair_generator(-1.5, -2.5, "x")
        with pytest.raises(sc.SpinError):
            sc.pair_generator(-1.5, -1.5, "x")
        with pytest.raises(sc.SpinError):
            sc.pair_generator(-1.5, 5.5, "x")
        with pytest.raises(sc.SpinError):
            sc.pair_generator(-1.5, -0.5, "w")

    @pytest.mark.parametrize("m_low, m_high, axis", [
        (-1.5, -2.5, "x"), (-1.5, -1.5, "x"), (-1.5, 5.5, "x"),
        (-1.5, -0.5, "w")])
    def test_rotation_invalid_inputs(self, m_low, m_high, axis):
        with pytest.raises(sc.SpinError):
            sc.pair_rotation(m_low, m_high, axis, 0.3)


class TestSpinOperators:
    def test_fz_diagonal(self):
        _, _, fz = sc.spin_operators(4.5)
        assert np.allclose(np.diag(fz), sc.M_VALUES)

    def test_casimir(self):
        fx, fy, fz = sc.spin_operators(4.5)
        assert np.allclose(fx @ fx + fy @ fy + fz @ fz, 24.75 * np.eye(10))

    def test_commutator(self):
        fx, fy, fz = sc.spin_operators(4.5)
        assert np.allclose(fx @ fy - fy @ fx, 1j * fz, atol=1e-13)

    def test_pi_rotation_reverses_stretched_state(self):
        # independent matrix-exponential oracle via scipy
        from scipy.linalg import expm
        _, fy, _ = sc.spin_operators(4.5)
        u = expm(-1j * np.pi * fy)
        psi = u @ sc.basis_state(4.5)
        assert abs(abs(np.vdot(sc.basis_state(-4.5), psi)) - 1) < 1e-12

    def test_non_half_integer_rejected(self):
        with pytest.raises(sc.SpinError):
            sc.spin_operators(1.2)


class TestClebschGordan:
    def test_stretched(self):
        assert sc.clebsch_gordan(4.5, 4.5, 1, 1, 5.5, 5.5) == pytest.approx(1.0)

    def test_orthonormality_sum(self):
        # sum over output F of |<f1 m1; f2 m-m1 | F m>|^2 = 1
        for m1 in (-4.5, -2.5, 0.5):
            for m2 in (-1, 0, 1):
                total = sum(sc.clebsch_gordan(4.5, m1, 1, m2, f, m1 + m2) ** 2
                            for f in (3.5, 4.5, 5.5))
                assert total == pytest.approx(1.0, abs=1e-12)

    def test_full_table_against_sympy_racah(self):
        sympy_cg = pytest.importorskip("sympy.physics.quantum.cg")
        from sympy import Rational, S
        for f in (3.5, 4.5, 5.5):
            for m1 in sc.M_VALUES:
                for m2 in (-1, 0, 1):
                    m = m1 + m2
                    if abs(m) > f:
                        continue
                    ours = sc.clebsch_gordan(4.5, m1, 1, m2, f, m)
                    ref = float(sympy_cg.CG(
                        Rational(9, 2), Rational(int(2 * m1), 2), S(1),
                        int(m2), Rational(int(2 * f), 2),
                        Rational(int(2 * m), 2)).doit())
                    assert ours == pytest.approx(ref, abs=1e-12)

    def test_selection_rules_return_zero(self):
        assert sc.clebsch_gordan(4.5, 0.5, 1, 1, 5.5, 0.5) == 0.0
        assert sc.clebsch_gordan(4.5, 0.5, 1, 0, 9.5, 0.5) == 0.0
        assert sc.clebsch_gordan(4.5, 5.5, 1, 0, 4.5, 5.5) == 0.0


class TestMajorana:
    def test_stretched_north(self):
        roots = sc.majorana_roots(sc.basis_state(4.5))
        assert np.allclose(roots.theta, 0.0, atol=1e-7)

    def test_stretched_south(self):
        roots = sc.majorana_roots(sc.basis_state(-4.5))
        assert np.allclose(roots.theta, np.pi)

    def test_equatorial_ring(self):
        psi = (sc.basis_state(4.5) + sc.basis_state(-4.5)) / np.sqrt(2)
        roots = sc.majorana_roots(psi)
        assert np.allclose(roots.theta, np.pi / 2, atol=1e-9)
        phis = np.sort(roots.phi)
        gaps = np.diff(phis)
        assert np.allclose(gaps, 2 * np.pi / 9, atol=1e-9)

    def test_reconstruction_overlap(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            psi = random_state(rng)
            rec = sc.state_from_majorana_roots(sc.majorana_roots(psi))
            assert abs(np.vdot(rec, psi)) > 1 - 1e-9

    def test_rotation_rigidly_rotates_roots(self):
        from scipy.linalg import expm
        rng = np.random.default_rng(22)
        fx, fy, fz = sc.spin_operators(4.5)
        for _ in range(10):
            psi = random_state(rng)
            alpha = rng.uniform(0.2, 2.5)
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            u = expm(-1j * alpha * (axis[0] * fx + axis[1] * fy + axis[2] * fz))
            pts = cartesian(sc.majorana_roots(psi))
            pts_rot = cartesian(sc.majorana_roots(u @ psi))
            # Rodrigues rotation of the original points
            k = axis
            expected = (pts * np.cos(alpha)
                        + np.cross(k, pts) * np.sin(alpha)
                        + np.outer(pts @ k, k) * (1 - np.cos(alpha)))
            # match as unordered sets
            for p in expected:
                dist = np.linalg.norm(pts_rot - p, axis=1).min()
                assert dist < 1e-5

    def test_zero_state_rejected(self):
        with pytest.raises(sc.SpinError):
            sc.majorana_roots(np.zeros(10))


class TestSubBloch:
    def test_pure_level(self):
        v = sc.sub_bloch_vector(sc.basis_state(-2.5), -2.5)
        assert (v.u, v.v, v.w) == pytest.approx((0.0, 0.0, 1.0))

    def test_equatorial(self):
        psi = (sc.basis_state(-2.5) + sc.basis_state(-1.5)) / np.sqrt(2)
        v = sc.sub_bloch_vector(psi, -2.5)
        assert (v.u, v.v, v.w) == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)

    def test_half_pi_x_rotation_gives_plus_v(self):
        psi = sc.pair_rotation(-2.5, -1.5, "x", np.pi / 2) @ sc.basis_state(-2.5)
        v = sc.sub_bloch_vector(psi, -2.5)
        assert (v.u, v.v, v.w) == pytest.approx((0.0, 1.0, 0.0), abs=1e-12)

    def test_length_bound(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            psi = random_state(rng)
            rho = np.outer(psi, psi.conj())
            for m in sc.M_VALUES[:-1]:
                v = sc.sub_bloch_vector(rho, m)
                i, j = sc.m_index(m), sc.m_index(m + 1)
                bound = (rho[i, i].real + rho[j, j].real) ** 2
                assert v.u**2 + v.v**2 + v.w**2 <= bound + 1e-12

    def test_equality_for_pure_pair_state(self):
        rng = np.random.default_rng(24)
        amp = rng.normal(size=2) + 1j * rng.normal(size=2)
        amp /= np.linalg.norm(amp)
        psi = amp[0] * sc.basis_state(0.5) + amp[1] * sc.basis_state(1.5)
        v = sc.sub_bloch_vector(psi, 0.5)
        assert v.u**2 + v.v**2 + v.w**2 == pytest.approx(1.0, abs=1e-12)
