"""Hyperfine-Zeeman structure and dipole line tables."""

import numpy as np
import pytest
from scipy.linalg import block_diag

from rbfilter.constants import G_J_EXCITED, G_J_GROUND, ISOTOPES, RB85, RB87
from rbfilter.zeeman import (
    _dipole_projectors,
    build_hamiltonian,
    hyperfine_zeeman_hamiltonian,
    zeeman_lines,
)

from oracles import breit_rabi_energies_hz, wigner_3j_racah

FIELDS_T = (1e-4, 1e-3, 1e-2, 1e-1)


@pytest.mark.parametrize("isotope", [RB85, RB87], ids=lambda i: i.name)
@pytest.mark.parametrize("b_field", FIELDS_T)
def test_ground_manifold_matches_closed_form(isotope, b_field):
    ham = build_hamiltonian(isotope, "ground", b_field)
    got = np.sort(ham.eigensystem()[0])
    want = breit_rabi_energies_hz(
        isotope.nuclear_spin, isotope.a_ground_mhz, G_J_GROUND, isotope.g_i, b_field
    )
    scale = np.max(np.abs(want))
    assert np.max(np.abs(got - want)) / scale < 1e-9


@pytest.mark.parametrize("isotope", [RB85, RB87], ids=lambda i: i.name)
def test_zero_field_hyperfine_splitting(isotope):
    """At B=0 the manifold collapses to two F levels split by A(I+1/2)."""
    ham = build_hamiltonian(isotope, "ground", 0.0)
    vals = np.sort(ham.eigensystem()[0])
    gaps = np.diff(vals)
    boundary = int(np.argmax(gaps)) + 1
    low, high = vals[:boundary], vals[boundary:]
    assert np.ptp(low) < 1.0 and np.ptp(high) < 1.0  # two degenerate F levels
    split_hz = high.mean() - low.mean()
    want = isotope.a_ground_mhz * 1e6 * (isotope.nuclear_spin + 0.5)
    assert split_hz == pytest.approx(want, rel=1e-9)
    # degeneracies 2F+1 with F = I -/+ 1/2
    assert low.size == 2 * (isotope.nuclear_spin - 0.5) + 1
    assert high.size == 2 * (isotope.nuclear_spin + 0.5) + 1


def test_spin_zero_reduces_to_electron_zeeman():
    basis, h = hyperfine_zeeman_hamiltonian(0.0, 123.0, G_J_GROUND, 0.0, 0.5)
    vals = np.sort(np.linalg.eigvalsh(h))
    from oracles import H_PLANCK, MU_BOHR

    mu = MU_BOHR * 0.5 / H_PLANCK
    assert vals == pytest.approx([-0.5 * G_J_GROUND * mu, 0.5 * G_J_GROUND * mu], rel=1e-12)


@pytest.mark.parametrize("isotope", [RB85, RB87], ids=lambda i: i.name)
@pytest.mark.parametrize("manifold", ["ground", "excited"])
def test_trace_equals_eigenvalue_sum(isotope, manifold):
    ham = build_hamiltonian(isotope, manifold, 3e-2)
    vals = ham.eigensystem()[0]
    scale = np.max(np.abs(vals))
    assert np.trace(ham.matrix_hz) == pytest.approx(vals.sum(), abs=1e-12 * scale * vals.size)


@pytest.mark.parametrize("two_i", [3, 5])
@pytest.mark.parametrize("q", [-1, 0, +1])
def test_dipole_projectors_match_racah(two_i, q):
    """Closed-form projectors against (-1)^(1/2 - m_j') 3j(1/2 1 1/2; -m_j' q m_j)."""
    mj = (-0.5, 0.5)
    electron = np.array([[(-1.0) ** (0.5 - b) * wigner_3j_racah(0.5, 1.0, 0.5, -b, q, a)
                          for a in mj] for b in mj])
    expected = np.kron(np.eye(two_i + 1), electron)
    got = _dipole_projectors(two_i)[q]
    assert got.shape == expected.shape
    assert np.abs(got - expected).max() <= 1e-15
    # byte-equal to repeating the first block with block_diag: every zero is +0.0
    assert got.tobytes() == block_diag(*[got[:2, :2]] * (two_i + 1)).tobytes()


@pytest.mark.parametrize("isotope_name", ["Rb85", "Rb87"])
@pytest.mark.parametrize("b_field", FIELDS_T)
def test_strength_sum_rule(isotope_name, b_field):
    """Each polarization component carries exactly 1/6 of summed strength.

    The value follows from 3j orthogonality with equal ground populations and
    is independent of field and isotope; the total over the three components
    is 1/2.
    """
    table = zeeman_lines(isotope_name, b_field)
    components = sorted(set(table.component))
    assert components == ["pi", "sigma+", "sigma-"]
    for comp in components:
        assert table.strength_sum(comp) == pytest.approx(1 / 6, rel=1e-12)
    assert float(table.strength.sum()) == pytest.approx(0.5, rel=1e-12)


@pytest.mark.parametrize("isotope_name", ["Rb85", "Rb87"])
def test_strength_sums_field_independent(isotope_name):
    sums = []
    for b in (1e-5, 1e-3, 5e-2, 0.2):
        table = zeeman_lines(isotope_name, b)
        sums.append([table.strength_sum(c) for c in ("pi", "sigma+", "sigma-")])
    sums = np.array(sums)
    assert np.ptp(sums, axis=0).max() < 1e-12


def test_all_components_present_with_positive_strengths():
    table = zeeman_lines("Rb87", 1e-2)
    for comp in ("sigma+", "sigma-", "pi"):
        offsets, strengths = table.select(comp)
        assert offsets.size > 0
        assert np.all(strengths >= 0)
        assert np.all(np.isfinite(offsets))


def test_zero_field_lines_match_hyperfine_transitions():
    """At B=0 the line offsets collapse onto the four F -> F' combinations."""
    table = zeeman_lines("Rb87", 0.0)
    centers = np.unique(np.round(table.offset_ghz, 4))
    assert centers.size == 4
    span = table.offset_ghz.max() - table.offset_ghz.min()
    want = (RB87.a_ground_mhz * 2 + RB87.a_excited_mhz * 2) * 1e-3
    assert span == pytest.approx(want, rel=1e-9)


def test_unknown_isotope_rejected():
    with pytest.raises(Exception):
        zeeman_lines("Rb84", 1e-2, "longitudinal")
