"""Physical constants, rubidium D1 isotope data and frequency conventions.

Atomic numbers are taken from the standard compilations by D. A. Steck,
"Rubidium 87 D Line Data" and "Rubidium 85 D Line Data" (https://steck.us/alkalidata),
which in turn collect CODATA values and published measurements.  Saturated vapor
pressure uses the Nesmeyanov empirical formula (A. N. Nesmeyanov, "Vapor Pressure
of the Chemical Elements", Elsevier 1963), the same correlation used by most
alkali-spectroscopy codes.

Frequency bookkeeping convention: detunings are quoted in GHz relative to a single
reference optical transition, by default the 87Rb D1 F=2 -> F'=2 line.  Hyperfine
and Zeeman line offsets inside one isotope are measured from that isotope's D1
centroid; the centroid positions of both isotopes relative to the reference are
exposed here so spectra from both species live on one detuning axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# ---------------------------------------------------------------------------
# SI constants (CODATA 2018; h, k_B exact by definition since 2019)
# ---------------------------------------------------------------------------
C_LIGHT = 299_792_458.0            # m/s, exact
H_PLANCK = 6.626_070_15e-34        # J s, exact
K_BOLTZMANN = 1.380_649e-23        # J/K, exact
MU_BOHR = 9.274_010_0783e-24       # J/T
G_S = 2.002_319_304_362_2          # electron spin g-factor

# Lande g for the 5S1/2 ground and 5P1/2 excited fine-structure levels.
# Ground value is Steck's tabulated measurement; excited value is the Lande
# formula with the CODATA g_S (tabulated as 0.666).
G_J_GROUND = 2.002_331_13
G_J_EXCITED = (4.0 - G_S) / 3.0

# 87Rb D1 centroid, the anchor of the absolute frequency scale.
RB87_D1_CENTROID_HZ = 377.107_463_380e12

TORR_TO_PA = 133.322_368


def hyperfine_shift_mhz(a_mhz: float, nuclear_spin: float, f: float) -> float:
    """Zero-field energy A*K/2 (MHz) of level F of a J = 1/2 manifold, from its centroid."""
    k = f * (f + 1.0) - nuclear_spin * (nuclear_spin + 1.0) - 0.75
    return 0.5 * a_mhz * k


@dataclass(frozen=True)
class IsotopeSpec:
    """Static data for one rubidium isotope on the D1 line.

    isotope_shift_mhz is the D1 centroid position relative to the 87Rb D1 centroid.
    """

    name: str
    nuclear_spin: float
    mass_kg: float
    natural_abundance: float
    a_ground_mhz: float
    a_excited_mhz: float
    isotope_shift_mhz: float
    g_i: float
    natural_linewidth_mhz: float

    # For J = 1/2 the two hyperfine levels F = I +- 1/2 are split by A (I + 1/2).
    @property
    def ground_splitting_mhz(self) -> float:
        return self.a_ground_mhz * (self.nuclear_spin + 0.5)

    @property
    def centroid_frequency_hz(self) -> float:
        return RB87_D1_CENTROID_HZ + self.isotope_shift_mhz * 1e6


RB85 = IsotopeSpec(
    name="Rb85",
    nuclear_spin=2.5,
    mass_kg=1.409_993_199e-25,
    natural_abundance=0.7217,
    a_ground_mhz=1011.910_813_0,
    a_excited_mhz=120.527,
    isotope_shift_mhz=-77.690,
    g_i=-0.000_293_640_0,
    natural_linewidth_mhz=5.7500,
)

RB87 = IsotopeSpec(
    name="Rb87",
    nuclear_spin=1.5,
    mass_kg=1.443_160_648e-25,
    natural_abundance=0.2783,
    a_ground_mhz=3417.341_305_452_145,
    a_excited_mhz=407.24,
    isotope_shift_mhz=0.0,
    g_i=-0.000_995_141_4,
    natural_linewidth_mhz=5.7500,
)

ISOTOPES: dict[str, IsotopeSpec] = {"Rb85": RB85, "Rb87": RB87}


# ---------------------------------------------------------------------------
# Vapor thermodynamics
# ---------------------------------------------------------------------------
VAPOR_T_MIN_K = 250.0
VAPOR_T_MAX_K = 500.0


def vapor_pressure_pa(temperature_k: float) -> float:
    """Saturated Rb vapor pressure in pascal for 250 K <= T <= 500 K.

    Nesmeyanov's liquid-phase correlation,
        log10 p[torr] = 15.88253 - 4529.635/T + 0.00058663 T - 2.99138 log10 T,
    applied over the whole domain.  Below the 312.5 K melting point this
    extrapolates the liquid branch; the solid-branch fit crosses the liquid one
    about 1 K above melting, so a piecewise form would not be strictly monotone.
    """
    t = float(temperature_k)
    if not (VAPOR_T_MIN_K <= t <= VAPOR_T_MAX_K):
        raise ValueError(
            f"temperature {t} K outside vapor-pressure formula domain "
            f"[{VAPOR_T_MIN_K}, {VAPOR_T_MAX_K}] K"
        )
    log10_p_torr = 15.88253 - 4529.635 / t + 0.00058663 * t - 2.99138 * math.log10(t)
    return 10.0 ** log10_p_torr * TORR_TO_PA


def number_density_m3(temperature_k: float, fraction: float = 1.0) -> float:
    """Number density n = fraction * p(T) / (k_B T) of one isotope in saturated vapor."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"isotope fraction must lie in [0, 1], got {fraction}")
    return fraction * vapor_pressure_pa(temperature_k) / (K_BOLTZMANN * temperature_k)


# ---------------------------------------------------------------------------
# Frequency convention
# ---------------------------------------------------------------------------
def _reference_frequency_hz() -> float:
    """Absolute frequency of the 87Rb D1 F=2 -> F'=2 transition."""
    e_ground = hyperfine_shift_mhz(RB87.a_ground_mhz, RB87.nuclear_spin, f=2)
    e_excited = hyperfine_shift_mhz(RB87.a_excited_mhz, RB87.nuclear_spin, f=2)
    return RB87.centroid_frequency_hz + (e_excited - e_ground) * 1e6


@dataclass(frozen=True)
class FrequencyConvention:
    """Affine map between detuning (GHz) and absolute angular frequency (rad/s)."""

    reference_frequency_hz: float = _reference_frequency_hz()

    def detuning_to_omega(self, detuning_ghz):
        return 2.0 * math.pi * (self.reference_frequency_hz + detuning_ghz * 1e9)

    def centroid_offset_ghz(self, isotope: IsotopeSpec) -> float:
        """Detuning of an isotope's D1 centroid on this reference axis."""
        return (isotope.centroid_frequency_hz - self.reference_frequency_hz) * 1e-9


REFERENCE = FrequencyConvention()


@dataclass(frozen=True)
class Detunings:
    """Named detunings (GHz) of the four relevant frequencies in the filter band.

    The Stokes/anti-Stokes values are the design anchors.  The write and read
    laser detunings are back-solved from them across the 87Rb ground splitting
    (Stokes = write - splitting, anti-Stokes = read + splitting), because the
    scattered photons, not the lasers, are what the filter must pass.
    """

    stokes: float = -2.3
    anti_stokes: float = 7.8

    @property
    def ground_splitting_ghz(self) -> float:
        return RB87.ground_splitting_mhz * 1e-3

    @property
    def write_laser(self) -> float:
        return self.stokes + self.ground_splitting_ghz

    @property
    def read_laser(self) -> float:
        return self.anti_stokes - self.ground_splitting_ghz

    def signal(self) -> tuple[float, float]:
        return (self.stokes, self.anti_stokes)

    def noise(self) -> tuple[float, float]:
        return (self.write_laser, self.read_laser)


DEFAULT_DETUNINGS = Detunings()
