from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import pauli_coefficients, taylor_cos

from scqsim.constants import E_CHARGE, HBAR
from scqsim.core import SIGMA_X, SIGMA_Y, SIGMA_Z
from scqsim.errors import DomainError, TruncationError
from scqsim import hamiltonians
from scqsim.evolution import TimeGrid, propagate_static
from scqsim.hamiltonians import (
    QubitParams,
    annihilation_operator,
    build,
    build_approximate,
    build_exact_two_level,
    build_fock,
    cosine_of,
    default_params,
    drive_coupling,
    exact_drive_operator,
    induced_charge,
    number_phase_operators,
    zero_point_fluctuations,
)

positive_energy = st.floats(min_value=1e-25, max_value=1e-20)


def without_offset(H):
    """H minus its mean diagonal: the traceless part that the builders return."""
    return H - np.trace(H).real / len(H) * np.eye(len(H))


class TestZeroPointFluctuations:
    def test_ratio_two(self):
        n_zpf, phi_zpf = zero_point_fluctuations(1e-23, 2e-23)
        assert phi_zpf == pytest.approx(1.0)
        assert n_zpf == pytest.approx(0.5)

    def test_ratio_thirtytwo(self):
        n_zpf, phi_zpf = zero_point_fluctuations(1e-23, 32e-23)
        assert n_zpf == pytest.approx(1.0)
        assert phi_zpf == pytest.approx(0.5)

    @given(positive_energy, positive_energy)
    def test_product_is_half(self, E_c, E_LJ0):
        n_zpf, phi_zpf = zero_point_fluctuations(E_c, E_LJ0)
        assert n_zpf * phi_zpf == pytest.approx(0.5, abs=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            zero_point_fluctuations(0.0, 1e-23)


class TestQubitParams:
    def test_phi_zpf_supplied_completes_n_zpf(self):
        p = QubitParams("phase", E_c=1e-27, E_J=1e-23, phi_zpf=0.0398)
        n_zpf, phi_zpf = p.zpf()
        assert phi_zpf == 0.0398
        assert n_zpf == pytest.approx(0.5 / 0.0398)

    def test_both_scales_supplied_are_kept_as_given(self):
        # the pair need not multiply to 1/2 when both are given, nor is E_LJ0 read
        p = QubitParams("charge", E_c=1e-23, E_J=1e-24, E_LJ0=1e-24, n_zpf=3.0, phi_zpf=0.25)
        assert p.zpf() == (3.0, 0.25)

    def test_zpf_needs_some_input(self):
        p = QubitParams("charge", E_c=1e-23, E_J=1e-24)
        with pytest.raises(DomainError):
            p.zpf()

    def test_rejects_negative_energy(self):
        with pytest.raises(DomainError):
            QubitParams("charge", E_c=-1e-23, E_J=1e-24)

    def test_rejects_unknown_kind(self):
        with pytest.raises(DomainError):
            QubitParams("transmon", E_c=1e-23, E_J=1e-24)


class TestApproximate:
    def test_charge_sweet_spot(self):
        p = QubitParams("charge", E_c=1e-22, E_J=1e-24, n_g=0.5)
        H = build_approximate(p)
        expected = 0.5 * p.E_J * SIGMA_X
        assert np.allclose(H, expected, rtol=0, atol=1e-12 * np.abs(expected).max())

    def test_charge_reference_coefficients(self):
        p = default_params("charge")
        H = build_approximate(p)
        cx, cy, cz = pauli_coefficients(H)
        assert cz == pytest.approx(p.E_c * (0.5 - p.n_g), rel=1e-12)
        assert cx == pytest.approx(0.5 * p.E_J, rel=1e-12)
        assert cy == 0.0
        # gate charge n_g = C_g V_g / 2e with V_g = 1 mV
        assert p.n_g == pytest.approx(2.1221, rel=1e-3)
        assert cz == pytest.approx(-1.2247e-22, rel=1e-3)
        assert cx == pytest.approx(6.795e-25, rel=1e-12)

    def test_phase_drive_cancellation(self):
        p = default_params("phase")
        _, phi_zpf = p.zpf()
        I_g = p.E_J * E_CHARGE / (HBAR * phi_zpf)
        H = build_approximate(QubitParams("phase", E_c=p.E_c, E_J=p.E_J,
                                          I_g=I_g, phi_zpf=phi_zpf))
        cx, _, _ = pauli_coefficients(H)
        assert abs(cx) < 1e-37

    def test_lcjj_is_rejected(self):
        with pytest.raises(DomainError, match="approximate model covers charge, phase and flux; "
                                              "use exact2 or fock:N for lcjj"):
            build_approximate(default_params("lcjj"))

    def test_warns_outside_charge_regime(self):
        p = QubitParams("charge", E_c=1e-24, E_J=1e-23, E_LJ0=1e-23)
        with pytest.warns(UserWarning, match="E_c >> E_J"):
            build_approximate(p)


def substitution_oracle(p):
    """Literal matrix substitution n -> n_zpf sy, phi -> phi_zpf sx into the circuit Hamiltonian."""
    n_zpf, phi_zpf = p.zpf()
    n_op = n_zpf * SIGMA_Y
    phi_op = phi_zpf * SIGMA_X
    eye = np.eye(2)
    H = -p.E_J * taylor_cos(phi_op)
    if p.qubit_kind in ("charge", "lcjj"):
        H = H + p.E_c * (n_op - p.n_g * eye) @ (n_op - p.n_g * eye)
    else:
        H = H + p.E_c * n_op @ n_op
    if p.qubit_kind in ("phase", "lcjj"):
        H = H - HBAR / (2 * E_CHARGE) * p.I_g * phi_op
    if p.qubit_kind in ("flux", "lcjj"):
        H = H + 0.5 * p.E_L * (phi_op - p.phi_e * eye) @ (phi_op - p.phi_e * eye)
    return H


class TestExactTwoLevel:
    @pytest.mark.parametrize("kind,drives", [
        ("charge", dict(n_g=2.1)),
        ("phase", dict(I_g=1e-3)),
        ("flux", dict(phi_e=0.5)),
        ("lcjj", dict(n_g=0.7, I_g=1e-6, phi_e=0.2)),
    ])
    def test_matches_substitution_oracle(self, kind, drives):
        p = QubitParams(kind, E_c=7.55e-23, E_J=1.359e-24, E_L=6e-23,
                        C_g=0.68e-15, E_LJ0=1.359e-24, **drives)
        H = build_exact_two_level(p)
        oracle = substitution_oracle(p)
        scale = np.abs(oracle).max()
        assert np.abs(H - without_offset(oracle)).max() < 1e-12 * scale

    @pytest.mark.parametrize("kind", ["charge", "phase", "flux", "lcjj"])
    def test_zero_drives_freeze_the_state(self, kind):
        p = QubitParams(kind, E_c=7.55e-23, E_J=1.359e-24, E_L=6e-23,
                        C_g=0.68e-15, E_LJ0=1.359e-24)
        H = build_exact_two_level(p)
        assert np.abs(H).max() < 1e-30

    def test_charge_drive_is_pure_sigma_y(self):
        p = default_params("charge")
        n_zpf, _ = p.zpf()
        H = build_exact_two_level(p)
        cx, cy, cz = pauli_coefficients(H)
        assert cx == 0.0 and cz == 0.0
        assert cy == pytest.approx(-2 * p.E_c * p.n_g * n_zpf, rel=1e-12)

    def test_pauli_channel_orthogonality(self):
        # approximate lives in span{sx, sz}; exact two-level drive in span{sy}
        p = default_params("charge")
        H_app = build_approximate(p)
        H_ex = build_exact_two_level(p)
        assert np.trace(SIGMA_Y @ H_app) == 0
        assert np.trace(SIGMA_X @ H_ex) == 0
        assert np.trace(SIGMA_Z @ H_ex) == 0

    @pytest.mark.parametrize("slot,drives", [
        ("V", (1e-6, 0.0, 0.0)),
        ("I", (0.0, 1e-9, 0.0)),
        ("phi_e", (0.0, 0.0, 0.1)),
    ])
    def test_drive_dependence_is_the_derivative(self, slot, drives):
        # the traceless part is linear in each of (V, I, phi_e): dH/d(slot) is the
        # exact drive operator of the circuit that slot drives alone
        p = QubitParams("lcjj", E_c=7.55e-23, E_J=1.359e-24, E_L=6e-23,
                        C_g=0.68e-15, E_LJ0=1.359e-24)
        V, I, phi_e = drives
        H0 = build_exact_two_level(p)
        H1 = build_exact_two_level(replace(p, n_g=induced_charge(p.C_g, V), I_g=I, phi_e=phi_e))
        delta = dict(zip(("V", "I", "phi_e"), drives))[slot]
        finite_diff = (H1 - H0) / delta
        kind = {"V": "charge", "I": "phase", "phi_e": "flux"}[slot]
        assert np.allclose(finite_diff, exact_drive_operator(replace(p, qubit_kind=kind)),
                           rtol=1e-9, atol=0)

    def test_lcjj_voltage_drive_coefficient(self):
        p = replace(default_params("lcjj"), n_g=induced_charge(0.68e-15, 1e-6))
        n_zpf, _ = p.zpf()
        cx, cy, cz = pauli_coefficients(build_exact_two_level(p))
        assert cy == pytest.approx(-2 * p.E_c * n_zpf * induced_charge(p.C_g, 1e-6),
                                   rel=1e-12)
        assert cx == 0.0 and cz == 0.0

    def test_lcjj_current_drive_coefficient(self):
        p = replace(default_params("lcjj"), I_g=1e-9)
        _, phi_zpf = p.zpf()
        cx, cy, cz = pauli_coefficients(build_exact_two_level(p))
        assert cx == pytest.approx(-HBAR / (2 * E_CHARGE) * phi_zpf * 1e-9, rel=1e-12)
        assert cy == 0.0 and cz == 0.0


def fock_oracle(p, n_levels):
    """Direct ladder construction with a series cosine."""
    n_zpf, phi_zpf = p.zpf()
    a = np.diag(np.sqrt(np.arange(1, n_levels, dtype=float)), 1).astype(complex)
    ad = a.conj().T
    n_op = 1j * n_zpf * (a - ad)
    phi_op = phi_zpf * (a + ad)
    eye = np.eye(n_levels)
    H = -p.E_J * taylor_cos(phi_op, terms=60)
    if p.qubit_kind in ("charge", "lcjj"):
        H = H + p.E_c * (n_op - p.n_g * eye) @ (n_op - p.n_g * eye)
    else:
        H = H + p.E_c * n_op @ n_op
    if p.qubit_kind in ("phase", "lcjj"):
        H = H - HBAR / (2 * E_CHARGE) * p.I_g * phi_op
    if p.qubit_kind in ("flux", "lcjj"):
        H = H + 0.5 * p.E_L * (phi_op - p.phi_e * eye) @ (phi_op - p.phi_e * eye)
    return H


def lowest_level_shift(p, n_levels):
    """Relative shift of the lowest transition E1 - E0 when the truncation doubles
    (the builders drop the identity offset, so absolute levels carry no meaning)."""
    small = np.diff(np.linalg.eigvalsh(build_fock(p, n_levels))[:2])
    large = np.diff(np.linalg.eigvalsh(build_fock(p, 2 * n_levels))[:2])
    return float(np.abs(small - large).max() / np.abs(large).max())


class TestFock:
    def test_matches_direct_construction(self):
        p = default_params("charge")
        H = build_fock(p, 8)
        oracle = fock_oracle(p, 8)
        assert np.abs(H - without_offset(oracle)).max() < 1e-12 * np.abs(oracle).max()

    @pytest.mark.parametrize("kind", ["charge", "phase", "flux", "lcjj"])
    def test_hermitian(self, kind):
        p = QubitParams(kind, E_c=7.55e-23, E_J=1.359e-24, E_L=6e-23,
                        C_g=0.68e-15, n_g=0.4, I_g=1e-6, phi_e=0.3,
                        E_LJ0=1.359e-24)
        H = build_fock(p, 12)
        assert np.abs(H - H.conj().T).max() < 1e-12 * np.abs(H).max()

    def test_cosine_vacuum_expectation(self):
        # <0|cos(phi)|0> = exp(-phi_zpf^2 / 2) for the oscillator vacuum
        p = default_params("charge")
        _, phi_zpf = p.zpf()
        _, phi_op = number_phase_operators(p, 32)
        c = cosine_of(phi_op)
        assert c[0, 0].real == pytest.approx(np.exp(-phi_zpf**2 / 2), abs=1e-12)
        assert np.abs(c - taylor_cos(phi_op)).max() < 1e-12

    def test_charging_only_hamiltonian(self):
        # E_J = 0, no drives: H = E_c n^2 built on the truncated ladder
        p = QubitParams("charge", E_c=7.55e-23, E_J=0.0, E_LJ0=1.359e-24)
        H = build_fock(p, 4)
        n_zpf, _ = p.zpf()
        a = annihilation_operator(4)
        n_op = 1j * n_zpf * (a - a.conj().T)
        expected = p.E_c * n_op @ n_op
        assert np.abs(H - without_offset(expected)).max() < 1e-12 * np.abs(expected).max()
        # truncation makes the ground level two-fold degenerate; the vacuum
        # lives almost entirely inside that ground eigenspace
        vals, vecs = np.linalg.eigh(H)
        ground = np.abs(vals - vals[0]) < 1e-6 * np.abs(vals).max()
        assert (np.abs(vecs[0, ground]) ** 2).sum() > 0.8

    def test_truncation_floor(self):
        with pytest.raises(TruncationError):
            build_fock(default_params("charge"), 3)

    def test_convergence_in_deep_josephson_well(self):
        # single-well regime: the basis must not yet resolve the neighboring
        # cos wells, or near-degenerate well copies pollute the low spectrum
        E_c = 1e-24
        p = QubitParams("charge", E_c=E_c, E_J=200 * E_c, n_g=0.0, E_LJ0=200 * E_c)
        assert lowest_level_shift(p, 32) < 1e-6

    def test_large_gate_charge_not_converged_at_shallow_truncation(self):
        # the 1 mV gate offsets the charge operator by ~14 zero-point widths,
        # so the two lowest levels are nowhere near converged at N = 4 vs 8
        assert lowest_level_shift(default_params("charge"), 4) > 1e-2

    def test_lcjj_carries_all_three_drive_slots(self):
        # the L-C-JJ matrix moves with each drive field: n_g (V), I_g and phi_e
        lcjj = default_params("lcjj")
        p = replace(lcjj, E_L=lcjj.E_J)
        H = build(p, "fock")
        assert H.shape == (8, 8)
        for field in ("n_g", "I_g", "phi_e"):
            moved = build(replace(p, **{field: 0.1}), "fock")
            assert np.abs(moved - H).max() > 1e-6 * np.abs(H).max(), field

    def test_ladder_commutator(self):
        # [a, a^dag] = I on every level but the last, which the truncation cuts
        a = annihilation_operator(6)
        commutator = a @ a.conj().T - a.conj().T @ a
        assert np.allclose(commutator, np.diag([1.0, 1.0, 1.0, 1.0, 1.0, -5.0]), atol=1e-14)

    def test_charge_and_phase_are_conjugate(self):
        # n_zpf phi_zpf = 1/2 gives [n, phi] = i [a, a^dag]: i below the truncation edge
        n_op, phi_op = number_phase_operators(default_params("flux"), 6)
        commutator = n_op @ phi_op - phi_op @ n_op
        assert np.allclose(commutator[:5, :5], 1j * np.eye(5), atol=1e-12)
        assert np.abs(n_op - n_op.conj().T).max() == 0.0
        assert np.abs(phi_op - phi_op.conj().T).max() == 0.0


class TestDriveFree:
    """With its drive field at zero the exact model of a charge, phase or flux qubit is
    drive-free: its traceless matrix is zero, and a signal s in that field gives
    s times exact_drive_operator. The approximate and Fock matrices are linear in
    the field too, with the dH/d(slot) written out here."""

    def test_matches_static_rebuild(self):
        for kind, field in (("charge", "n_g"), ("phase", "I_g"), ("flux", "phi_e")):
            p = default_params(kind)
            drive = exact_drive_operator(p)
            assert not build_exact_two_level(replace(p, **{field: 0.0})).any()
            for t in (0.0, 3e-13, 7e-13):
                signal = value = 2e-3 * np.sin(1e11 * t)
                if kind == "charge":
                    value = induced_charge(p.C_g, signal)
                expected = build_exact_two_level(replace(p, **{field: value}))
                assert np.allclose(signal * drive, expected, rtol=1e-12, atol=0), kind

    def test_unknown_slot_rejected(self):
        # lcjj takes V, I and phi_e at once: it has no one drive operator
        with pytest.raises(DomainError):
            exact_drive_operator(default_params("lcjj"))

    @pytest.mark.parametrize("kind, model, slot, field, amplitude", [
        ("phase", "approximate", "I", "I_g", 2e-3),
        ("flux", "approximate", "phi_e", "phi_e", 0.3),
        ("charge", "fock", "V", "n_g", 2e-3),
    ])
    def test_models_match_static_rebuilds(self, kind, model, slot, field, amplitude):
        # the fock model takes 8 levels by default
        p = default_params(kind)
        static = build(replace(p, **{field: 0.0}), model)
        if model == "approximate":  # k sigma_x for the phase qubit's I and the flux qubit's phi_e
            drive = drive_coupling(kind, p) * SIGMA_X
        else:  # E_c (n - n_g)^2 with n_g = C_g V / 2e
            drive = -2 * p.E_c * p.C_g / (2 * E_CHARGE) * number_phase_operators(p, 8)[0]
        for t in (0.0, 3e-13, 7e-13, 2e-12):
            signal = value = amplitude * np.sin(1e11 * t)
            if slot == "V":
                value = induced_charge(p.C_g, value)
            expected = build(replace(p, **{field: value}), model)
            assert static.shape == expected.shape
            assert np.allclose(static + signal * drive, expected, rtol=0,
                               atol=1e-12 * np.abs(expected).max())

    def test_unknown_model_rejected(self):
        with pytest.raises(DomainError, match="unknown model"):
            build(default_params("charge"), "approx")


class TestBuild:
    @pytest.mark.parametrize("model, builder", [("approximate", "build_approximate"),
                                                ("exact_two_level", "build_exact_two_level"),
                                                ("fock", "build_fock")])
    def test_dispatch_reads_the_module_builders(self, model, builder, monkeypatch):
        # a wrapper set on the module (a profiler's) must see every build
        calls = []
        original = getattr(hamiltonians, builder)
        monkeypatch.setattr(hamiltonians, builder,
                            lambda *args: calls.append(args) or original(*args))
        H = build(default_params("phase"), model, 6)
        assert len(calls) == 1
        assert H.shape == ((6, 6) if model == "fock" else (2, 2))

    def test_fock_takes_eight_levels_by_default(self):
        assert build(default_params("charge"), "fock").shape == (8, 8)
        assert build(default_params("charge"), "fock", 5).shape == (5, 5)


KIND_MODELS = [(kind, model) for kind in ("charge", "phase", "flux", "lcjj")
               for model in ("approximate", "exact_two_level", "fock")
               if (kind, model) != ("lcjj", "approximate")]


class TestHamiltonianOperator:
    """The matrix each builder returns: the traceless complex matrix that
    propagation takes."""

    def test_rejects_non_hermitian(self):
        with pytest.raises(DomainError, match="Hermitian"):
            propagate_static(np.array([[0, 1], [0, 0]], dtype=complex), [1, 0],
                             TimeGrid(1e-13, 2))

    def test_traceless_removes_the_offset(self):
        for kind, model in KIND_MODELS:
            p = replace(default_params(kind), n_g=0.4, I_g=1e-6, phi_e=0.3)
            H = build(p, model, 6)
            assert abs(np.trace(H)) <= 1e-15 * np.abs(H).max(), (kind, model)

    def test_matrix_stored_as_complex(self):
        for kind, model in KIND_MODELS:
            assert build(default_params(kind), model, 6).dtype == complex


class TestDefaultParams:
    @pytest.mark.parametrize("kind", ["charge", "phase", "flux", "lcjj"])
    def test_reference_sets_fix_the_operator_scales(self, kind):
        p = default_params(kind)
        n_zpf, phi_zpf = p.zpf()
        assert p.qubit_kind == kind
        assert n_zpf * phi_zpf == pytest.approx(0.5, rel=1e-15)

    def test_charge_gate_is_one_millivolt(self):
        p = default_params("charge")
        assert p.n_g == induced_charge(0.68e-15, 1e-3)
        assert p.n_g == pytest.approx(0.68e-15 * 1e-3 / (2 * E_CHARGE), rel=1e-15)

    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError, match="unknown qubit kind"):
            default_params("transmon")

    def test_lcjj_has_no_microwave_coupling(self):
        with pytest.raises(DomainError, match="no microwave drive inversion"):
            drive_coupling("lcjj", default_params("lcjj"))
