"""Magneto-optical Rb vapor filter toolkit.

Simulates magnetically broadened absorption filters and Faraday rotation
filters on the Rb D1 line, optimizes their joint operating point for
dual-channel noise suppression, and estimates the photon-correlation
recovery such filtering gives a warm-vapor quantum memory.
"""

__version__ = "0.1.0"

# imported with the package, so every module has bound the functions it imports
# from the others before a tracer (bench/cli_shim.py) wraps any of them
from . import (config, constants, errors, fitting, lineshape, optimize, photon_stats,
               propagation, zeeman)
