"""Hyperfine + Zeeman structure of the D1 manifolds in the uncoupled |m_I, m_J> basis.

H = A (I.J) + mu_B B (g_J J_z + g_I I_z), stored in Hz.  The quantization axis is
along B, so sigma+/sigma-/pi labels below are defined with respect to the field,
not the light propagation direction; geometry mapping happens in rbfilter.lineshape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    dim = int(round(2 * j + 1))
    m = -j + np.arange(dim)
    jz = np.diag(m)
    jplus = np.zeros((dim, dim))
    for k in range(dim - 1):
        jplus[k + 1, k] = np.sqrt(j * (j + 1) - m[k] * (m[k] + 1))
    return jz, jplus


def hyperfine_zeeman_hamiltonian(
    nuclear_spin: float,
    a_mhz: float,
    g_j: float,
    g_i: float,
    b_field_t: float,
) -> tuple[list[tuple[float, float]], np.ndarray]:
    """Hamiltonian (Hz) of one J = 1/2 manifold; basis is [(m_i, m_j), ...].

    Accepts any non-negative nuclear spin so that test fixtures (e.g. I = 0)
    can exercise the pure-electron Zeeman limit.
    """
    if nuclear_spin < 0 or abs(2 * nuclear_spin - round(2 * nuclear_spin)) > 1e-9:
        raise ValueError(f"nuclear spin must be a non-negative (half-)integer, got {nuclear_spin}")
    iz, iplus = _spin_matrices(nuclear_spin)
    jz, jplus = _spin_matrices(0.5)
    di, dj = iz.shape[0], 2

    eye_i = np.eye(di)
    eye_j = np.eye(dj)
    # I.J = Iz Jz + (I+ J- + I- J+)/2 on the product space (I slot first)
    idotj = (
        np.kron(iz, jz)
        + 0.5 * (np.kron(iplus, jplus.T) + np.kron(iplus.T, jplus))
    )
    h_hz = (a_mhz * 1e6) * idotj + (MU_BOHR * b_field_t / H_PLANCK) * (
        g_j * np.kron(eye_i, jz) + g_i * np.kron(iz, eye_j)
    )

    m_i = -nuclear_spin + np.arange(di)
    basis = [(float(mi), float(mj)) for mi in m_i for mj in (-0.5, 0.5)]
    return basis, h_hz


@dataclass
class ManifoldHamiltonian:
    isotope: IsotopeSpec
    manifold: str
    b_field_t: float
    basis: list[tuple[float, float]]
    matrix_hz: np.ndarray
    _eig: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)

    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending eigenvalues (Hz) and eigenvector columns."""
        if self._eig is None:
            vals, vecs = np.linalg.eigh(self.matrix_hz)
            self._eig = (vals, vecs)
        return self._eig

    @property
    def dim(self) -> int:
        return self.matrix_hz.shape[0]


def build_hamiltonian(isotope: IsotopeSpec, manifold: str, b_field_t: float) -> ManifoldHamiltonian:
    if manifold not in (GROUND, EXCITED):
        raise ValueError(f"manifold must be '{GROUND}' or '{EXCITED}', got {manifold!r}")
    if manifold == GROUND:
        a_mhz, g_j = isotope.a_ground_mhz, G_J_GROUND
    else:
        a_mhz, g_j = isotope.a_excited_mhz, G_J_EXCITED
    basis, h = hyperfine_zeeman_hamiltonian(isotope.nuclear_spin, a_mhz, g_j, isotope.g_i, b_field_t)
    return ManifoldHamiltonian(isotope, manifold, b_field_t, basis, h)


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

    offset_ghz is measured from the isotope's D1 centroid.  strength is the
    population-weighted squared dipole amplitude in units of the reduced matrix
    element squared; summed over all lines and polarizations it equals 1/2
    independent of B.
    """

    isotope: str
    b_field_t: float
    geometry: str
    offset_ghz: np.ndarray
    component: np.ndarray
    strength: np.ndarray

    def __post_init__(self):
        n = len(self.offset_ghz)
        if not (len(self.component) == len(self.strength) == n):
            raise ValueError("line table columns must have equal length")
        if np.any(self.strength < 0):
            raise ValueError("line strengths must be non-negative")

    @property
    def n_lines(self) -> int:
        return len(self.offset_ghz)

    def select(self, component: str) -> tuple[np.ndarray, np.ndarray]:
        mask = self.component == component
        return self.offset_ghz[mask], self.strength[mask]

    def strength_sum(self, component: str) -> float:
        return float(self.select(component)[1].sum())

    def rows(self):
        for k in range(self.n_lines):
            yield (float(self.offset_ghz[k]), str(self.component[k]), float(self.strength[k]))


def eigenlines(
    ground: ManifoldHamiltonian,
    excited: ManifoldHamiltonian,
    geometry: str = "longitudinal",
) -> LineTable:
    """Dipole lines between field-dressed eigenstates, equal ground-state populations."""
    if ground.isotope.name != excited.isotope.name:
        raise ValueError("ground and excited manifolds belong to different isotopes")
    if ground.b_field_t != excited.b_field_t:
        raise ValueError("ground and excited manifolds evaluated at different fields")
    eg, vg = ground.eigensystem()
    ee, ve = excited.eigensystem()
    projectors = _dipole_projectors(int(round(2 * ground.isotope.nuclear_spin)))
    pop = 1.0 / ground.dim

    offsets, comps, strengths = [], [], []
    for q, p in projectors.items():
        # amplitude matrix M[e, g] = <e| T_q |g> between dressed states
        amp = ve.conj().T @ p @ vg
        s = pop * np.abs(amp) ** 2
        idx_e, idx_g = np.nonzero(s > 1e-12)
        offsets.append((ee[idx_e] - eg[idx_g]) * 1e-9)
        comps.append(np.full(idx_e.shape, _COMPONENT_NAME[q]))
        strengths.append(s[idx_e, idx_g])
    return LineTable(
        isotope=ground.isotope.name,
        b_field_t=ground.b_field_t,
        geometry=geometry,
        offset_ghz=np.concatenate(offsets),
        component=np.concatenate(comps),
        strength=np.concatenate(strengths),
    )


@lru_cache(maxsize=512)
def zeeman_lines(isotope_name: str, b_field_t: float, geometry: str = "longitudinal") -> LineTable:
    """Cached line table for one isotope; cache makes optimizer scoring cheap."""
    isotope = ISOTOPES[isotope_name]
    g = build_hamiltonian(isotope, GROUND, b_field_t)
    e = build_hamiltonian(isotope, EXCITED, b_field_t)
    return eigenlines(g, e, geometry=geometry)


def eigenvalue_sweep(
    isotope: IsotopeSpec, manifold: str, b_values_t: np.ndarray
) -> np.ndarray:
    """Adiabatically continued eigenvalues (Hz) over a field sweep.

    Rows follow b_values_t; columns are matched between consecutive fields by
    maximum eigenvector overlap so each column is one continuously deformed level.
    """
    b_values_t = np.asarray(b_values_t, dtype=float)
    if b_values_t.ndim != 1 or len(b_values_t) == 0:
        raise ValueError("b_values_t must be a non-empty 1-D array")
    from scipy.optimize import linear_sum_assignment  # here, so importing rbfilter loads no SciPy

    energies = []
    prev_vecs = None
    for b in b_values_t:
        vals, vecs = build_hamiltonian(isotope, manifold, float(b)).eigensystem()
        if prev_vecs is not None:
            overlap = np.abs(prev_vecs.conj().T @ vecs) ** 2
            row, col = linear_sum_assignment(-overlap)
            order = col[np.argsort(row)]
            vals, vecs = vals[order], vecs[:, order]
        energies.append(vals)
        prev_vecs = vecs
    return np.array(energies)
