"""Bit-parallel truth tables and Reed-Muller spectra."""

from repro.truth.table import TruthTable
from repro.truth.spectra import (
    extended_rm_spectrum,
    fprm_spectrum,
    inverse_pprm_spectrum,
    pprm_spectrum,
    spectrum_flip_polarity,
    spectrum_to_masks,
)

__all__ = [
    "TruthTable",
    "extended_rm_spectrum",
    "fprm_spectrum",
    "inverse_pprm_spectrum",
    "pprm_spectrum",
    "spectrum_flip_polarity",
    "spectrum_to_masks",
]
