"""Hyperfine + Zeeman structure of the D1 manifolds in the uncoupled |m_I, m_J> basis.

Each J = 1/2 manifold has H(B) = H0 + B H1 in Hz, with the field-free hyperfine
part H0 = A (I.J) and the field-linear part H1 = (mu_B / h)(g_J J_z + g_I I_z)
in Hz/T.  Both matrices are built once per (isotope, manifold); each field then
costs one sum and one eigh per manifold.  The Breit-Rabi closed form is kept
out of the package: the tests use it as an independent oracle.  The
quantization axis is along B, so sigma+/sigma-/pi labels below are defined with
respect to the field, not the light propagation direction; geometry mapping
happens in rbfilter.lineshape.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .constants import (
    G_J_EXCITED,
    G_J_GROUND,
    H_PLANCK,
    ISOTOPES,
    MU_BOHR,
    IsotopeSpec,
)

GROUND = "ground"
EXCITED = "excited"
_COMPONENT_NAME = {-1: "sigma-", 0: "pi", +1: "sigma+"}


def _spin_matrices(j: float) -> tuple[np.ndarray, np.ndarray]:
    """(J_z, J_+) for spin j in the basis m = -j ... +j."""
    m = -j + np.arange(int(round(2 * j + 1)))
    return np.diag(m), np.diag(np.sqrt(j * (j + 1) - m[:-1] * (m[:-1] + 1)), -1)


def hyperfine_zeeman_hamiltonian(
    nuclear_spin: float,
    a_mhz: float,
    g_j: float,
    g_i: float,
) -> tuple[np.ndarray, np.ndarray]:
    """(H0 in Hz, H1 in Hz/T) of one J = 1/2 manifold, m_I slot first.

    Accepts any non-negative nuclear spin so that test fixtures (e.g. I = 0)
    can exercise the pure-electron Zeeman limit.
    """
    if nuclear_spin < 0 or abs(2 * nuclear_spin - round(2 * nuclear_spin)) > 1e-9:
        raise ValueError(f"nuclear spin must be a non-negative (half-)integer, got {nuclear_spin}")
    iz, iplus = _spin_matrices(nuclear_spin)
    jz, jplus = _spin_matrices(0.5)
    # I.J = Iz Jz + (I+ J- + I- J+)/2 on the product space
    idotj = np.kron(iz, jz) + 0.5 * (np.kron(iplus, jplus.T) + np.kron(iplus.T, jplus))
    zeeman = g_j * np.kron(np.eye(iz.shape[0]), jz) + g_i * np.kron(iz, np.eye(2))
    return (a_mhz * 1e6) * idotj, (MU_BOHR / H_PLANCK) * zeeman


@lru_cache(maxsize=16)
def _manifold_matrices(isotope: IsotopeSpec, manifold: str) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (H0, H1) of one manifold, built once per (isotope, manifold)."""
    if manifold == GROUND:
        a_mhz, g_j = isotope.a_ground_mhz, G_J_GROUND
    elif manifold == EXCITED:
        a_mhz, g_j = isotope.a_excited_mhz, G_J_EXCITED
    else:
        raise ValueError(f"manifold must be '{GROUND}' or '{EXCITED}', got {manifold!r}")
    matrices = hyperfine_zeeman_hamiltonian(isotope.nuclear_spin, a_mhz, g_j, isotope.g_i)
    for m in matrices:
        m.flags.writeable = False
    return matrices


def build_hamiltonian(isotope: IsotopeSpec, manifold: str, b_field_t: float) -> np.ndarray:
    """H0 + B H1 (Hz) of the ground or excited manifold at field B (T)."""
    h0, h1 = _manifold_matrices(isotope, manifold)
    return h0 + b_field_t * h1


@lru_cache(maxsize=16)
def _dipole_projectors(two_i: int) -> dict[int, np.ndarray]:
    """P_q matrices <m_i', m_j'| T_q |m_i, m_j> for a J=1/2 -> J'=1/2 transition.

    The electron-dipole part in units of the reduced matrix element, i.e.
    delta(m_i) (-1)^(1/2 - m_j') 3j(1/2 1 1/2; -m_j' q m_j), in closed form.
    In the m_j = (-1/2, +1/2) basis:
        q =  0: diag(-1/sqrt(6), +1/sqrt(6));
        q = +1: -1/sqrt(3) at [+1/2 <- -1/2];
        q = -1: +1/sqrt(3) at [-1/2 <- +1/2];
    each one repeated block-diagonally over the m_i slot (m_i first); the
    + 0.0 turns the -0.0 that kron leaves in the off-diagonal blocks into +0.0.
    """
    s3, s6 = 1.0 / np.sqrt(3.0), 1.0 / np.sqrt(6.0)
    electron = {
        -1: np.array([[0.0, s3], [0.0, 0.0]]),
        0: np.diag([-s6, s6]),
        +1: np.array([[0.0, 0.0], [-s3, 0.0]]),
    }
    return {q: np.kron(np.eye(two_i + 1), p) + 0.0 for q, p in electron.items()}


@dataclass
class LineTable:
    """Zeeman-resolved transition lines of one isotope at one field.

    lines maps each component, sigma-, pi and sigma+ in that order, to its
    (offset_ghz, strength) arrays, kept as zeeman_lines computes them.
    offset_ghz is measured from the isotope's D1 centroid.  strength is the
    population-weighted squared dipole amplitude in units of the reduced matrix
    element squared; each component's strengths sum to 1/6 and all of them to
    1/2, independent of B.
    """

    lines: dict[str, tuple[np.ndarray, np.ndarray]]

    @property
    def n_lines(self) -> int:
        return sum(offsets.size for offsets, _ in self.lines.values())


@lru_cache(maxsize=512)
def zeeman_lines(isotope_name: str, b_field_t: float, geometry: str = "longitudinal") -> LineTable:
    """Dipole lines between field-dressed eigenstates, equal ground-state populations.

    Cached per (isotope, field), which makes optimizer scoring cheap.  The
    lines do not depend on the beam geometry, so geometry is unused: it stays
    only because the benchmark's probes still pass it (the ROADMAP benchmark
    item removes it).
    """
    isotope = ISOTOPES[isotope_name]
    eg, vg = np.linalg.eigh(build_hamiltonian(isotope, GROUND, b_field_t))
    ee, ve = np.linalg.eigh(build_hamiltonian(isotope, EXCITED, b_field_t))
    pop = 1.0 / eg.size

    lines = {}
    for q, p in _dipole_projectors(int(round(2 * isotope.nuclear_spin))).items():
        # amplitude matrix M[e, g] = <e| T_q |g> between dressed states
        s = pop * np.abs(ve.T @ p @ vg) ** 2
        idx_e, idx_g = np.nonzero(s > 1e-12)
        lines[_COMPONENT_NAME[q]] = (ee[idx_e] - eg[idx_g]) * 1e-9, s[idx_e, idx_g]
    return LineTable(lines)
