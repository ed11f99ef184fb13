"""Hyperfine-Zeeman structure and dipole line tables."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import block_diag

from rbfilter.constants import G_J_EXCITED, G_J_GROUND, ISOTOPES, RB85, RB87
from rbfilter.lineshape import CELL_KEYS
from rbfilter.zeeman import (
    _dipole_projectors,
    _manifold_matrices,
    build_hamiltonian,
    hyperfine_zeeman_hamiltonian,
    zeeman_lines,
)

from oracles import breit_rabi_energies_hz, wigner_3j_racah

FIELDS_T = (1e-4, 1e-3, 1e-2, 1e-1)


@pytest.mark.parametrize("isotope", [RB85, RB87], ids=lambda i: i.name)
@pytest.mark.parametrize("b_field", FIELDS_T)
def test_ground_manifold_matches_closed_form(isotope, b_field):
    got = np.sort(np.linalg.eigvalsh(build_hamiltonian(isotope, "ground", b_field)))
    want = breit_rabi_energies_hz(
        isotope.nuclear_spin, isotope.a_ground_mhz, G_J_GROUND, isotope.g_i, b_field
    )
    scale = np.max(np.abs(want))
    assert np.max(np.abs(got - want)) / scale < 1e-9


@pytest.mark.parametrize("isotope", [RB85, RB87], ids=lambda i: i.name)
def test_zero_field_hyperfine_splitting(isotope):
    """At B=0 the manifold collapses to two F levels split by A(I+1/2)."""
    vals = np.sort(np.linalg.eigvalsh(build_hamiltonian(isotope, "ground", 0.0)))
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
    h0, h1 = hyperfine_zeeman_hamiltonian(0.0, 123.0, G_J_GROUND, 0.0)
    vals = np.sort(np.linalg.eigvalsh(h0 + 0.5 * h1))
    from oracles import H_PLANCK, MU_BOHR

    mu = MU_BOHR * 0.5 / H_PLANCK
    assert vals == pytest.approx([-0.5 * G_J_GROUND * mu, 0.5 * G_J_GROUND * mu], rel=1e-12)


@pytest.mark.parametrize("isotope", [RB85, RB87], ids=lambda i: i.name)
@pytest.mark.parametrize("manifold", ["ground", "excited"])
def test_trace_equals_eigenvalue_sum(isotope, manifold):
    h = build_hamiltonian(isotope, manifold, 3e-2)
    vals = np.linalg.eigvalsh(h)
    scale = np.max(np.abs(vals))
    assert np.trace(h) == pytest.approx(vals.sum(), abs=1e-12 * scale * vals.size)


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
    assert list(table.lines) == ["sigma-", "pi", "sigma+"]
    for _, strengths in table.lines.values():
        assert strengths.sum() == pytest.approx(1 / 6, rel=1e-12)
    assert sum(s.sum() for _, s in table.lines.values()) == pytest.approx(0.5, rel=1e-12)


@pytest.mark.parametrize("isotope_name", ["Rb85", "Rb87"])
def test_strength_sums_field_independent(isotope_name):
    sums = []
    for b in (1e-5, 1e-3, 5e-2, 0.2):
        table = zeeman_lines(isotope_name, b)
        sums.append([table.lines[c][1].sum() for c in ("pi", "sigma+", "sigma-")])
    sums = np.array(sums)
    assert np.ptp(sums, axis=0).max() < 1e-12


def test_all_components_present_with_positive_strengths():
    table = zeeman_lines("Rb87", 1e-2)
    for comp in ("sigma+", "sigma-", "pi"):
        offsets, strengths = table.lines[comp]
        assert offsets.size > 0
        assert np.all(strengths >= 0)
        assert np.all(np.isfinite(offsets))


def test_zero_field_lines_match_hyperfine_transitions():
    """At B=0 the line offsets collapse onto the four F -> F' combinations."""
    offsets = np.concatenate([o for o, _ in zeeman_lines("Rb87", 0.0).lines.values()])
    centers = np.unique(np.round(offsets, 4))
    assert centers.size == 4
    span = offsets.max() - offsets.min()
    want = (RB87.a_ground_mhz * 2 + RB87.a_excited_mhz * 2) * 1e-3
    assert span == pytest.approx(want, rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(isotope_name=st.sampled_from(sorted(ISOTOPES)),
       b_field=st.floats(CELL_KEYS["b_field_mt"].lo, CELL_KEYS["b_field_mt"].hi)
       .map(CELL_KEYS["b_field_mt"].to_field))
def test_zeeman_physics_over_valid_field_range(isotope_name, b_field):
    """Both manifolds follow Breit-Rabi and the sum rule holds at any accepted field."""
    isotope = ISOTOPES[isotope_name]
    for manifold, a_mhz, g_j in (("ground", isotope.a_ground_mhz, G_J_GROUND),
                                 ("excited", isotope.a_excited_mhz, G_J_EXCITED)):
        got = np.sort(np.linalg.eigvalsh(build_hamiltonian(isotope, manifold, b_field)))
        want = breit_rabi_energies_hz(isotope.nuclear_spin, a_mhz, g_j, isotope.g_i, b_field)
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want)), manifold
    table = zeeman_lines(isotope_name, b_field)
    for offsets, strengths in table.lines.values():
        assert np.all(np.isfinite(offsets))
        assert strengths.sum() == pytest.approx(1 / 6, abs=1e-12)
    assert sum(s.sum() for _, s in table.lines.values()) == pytest.approx(0.5, abs=1e-12)


def test_zeeman_lines_cache_counts_a_repeat_as_a_hit():
    """The benchmark reads misses and hits from zeeman_lines' own lru_cache."""
    zeeman_lines.cache_clear()
    first = zeeman_lines("Rb87", 1e-2, "longitudinal")
    assert zeeman_lines("Rb87", 1e-2, "longitudinal") is first
    info = zeeman_lines.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_field_matrices_are_built_once_and_read_only():
    h0, h1 = _manifold_matrices(RB87, "excited")
    assert _manifold_matrices(RB87, "excited")[0] is h0
    assert not h0.flags.writeable and not h1.flags.writeable
    assert np.array_equal(build_hamiltonian(RB87, "excited", 0.0), h0)


def test_unknown_manifold_rejected():
    with pytest.raises(ValueError, match="manifold"):
        build_hamiltonian(RB87, "middle", 1e-2)


def test_unknown_isotope_rejected():
    with pytest.raises(Exception):
        zeeman_lines("Rb84", 1e-2, "longitudinal")
