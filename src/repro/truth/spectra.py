"""Reed-Muller spectra: PPRM / FPRM transforms over dense truth tables.

The positive-polarity Reed-Muller (PPRM) spectrum is the GF(2) Möbius
transform of the truth table: coefficient ``c[S]`` (indexed by the variable
mask ``S``) is 1 iff the monomial ``∏_{i∈S} x_i`` appears in the XOR-sum.
A fixed-polarity form with polarity vector ``p`` is the PPRM of the function
with the negative-polarity inputs complemented.  All transforms are in-place
butterflies, O(n·2^n) XORs, vectorized with numpy.  The extended transform
(:func:`extended_rm_spectrum`) holds the coefficients of all 2^n FPRM forms
in one array of 3^n entries.
"""

from __future__ import annotations

import numpy as np

from repro.expr.esop import FprmForm
from repro.truth.table import TruthTable


def pprm_spectrum(table: TruthTable) -> np.ndarray:
    """PPRM coefficients of ``table`` (uint8 array indexed by cube mask)."""
    spectrum = table.bits.copy()
    for var in range(table.n):
        shaped = spectrum.reshape(-1, 2, 1 << var)
        shaped[:, 1, :] ^= shaped[:, 0, :]
    return spectrum


def inverse_pprm_spectrum(spectrum: np.ndarray, n: int) -> TruthTable:
    """Rebuild the truth table from PPRM coefficients (self-inverse map)."""
    bits = spectrum.astype(np.uint8).copy()
    for var in range(n):
        shaped = bits.reshape(-1, 2, 1 << var)
        shaped[:, 1, :] ^= shaped[:, 0, :]
    return TruthTable(n, bits)


def fprm_spectrum(table: TruthTable, polarity: int) -> np.ndarray:
    """FPRM coefficients for the given polarity vector.

    Bit ``i`` of ``polarity`` set means variable ``i`` appears positively.
    Coefficient index ``S`` refers to the monomial of polarity-adjusted
    literals over the variables in ``S``.
    """
    universe = (1 << table.n) - 1
    neg_mask = ~polarity & universe
    adjusted = table.permute_inputs(neg_mask) if neg_mask else table
    return pprm_spectrum(adjusted)


def spectrum_flip_polarity(
    spectrum: np.ndarray, n: int, var: int
) -> np.ndarray:
    """Incrementally flip the polarity of one variable.

    Given the FPRM spectrum for polarity ``p``, returns the spectrum for
    ``p ^ (1 << var)`` in O(2^n) XORs: substituting ``y = 1 ⊕ z`` into
    ``A ⊕ y·B`` yields ``(A ⊕ B) ⊕ z·B``.
    """
    out = spectrum.copy()
    shaped = out.reshape(-1, 2, 1 << var)
    shaped[:, 0, :] ^= shaped[:, 1, :]
    return out


def extended_rm_spectrum(table: TruthTable) -> np.ndarray:
    """Coefficients of all 2^n FPRM forms at once (Csanky, Perkowski &
    Schaefer's extended Reed-Muller transform).

    Per variable the cofactor pair ``(f0, f1)`` becomes ``(f0, f1,
    f0⊕f1)``: the constant part under positive polarity, the constant
    part under negative polarity, and the literal's coefficient under
    either.  The result is a ``uint8`` array of 3^n entries indexed by
    ``Σ d_i·3^i``; the FPRM spectrum for polarity ``p`` is the slice
    with digit 2 for the variables of the cube and, for the others,
    digit 0 where ``p`` is positive and 1 where it is negative.

    Variables are expanded innermost first, so the largest step copies
    contiguous blocks of 3^(n-1) entries; O(3^n) XORs in all.
    """
    ext = table.bits.copy()
    for var in range(table.n):
        pairs = ext.reshape(-1, 2, 3 ** var)
        out = np.empty((pairs.shape[0], 3, pairs.shape[2]), dtype=np.uint8)
        out[:, :2, :] = pairs
        np.bitwise_xor(pairs[:, 0, :], pairs[:, 1, :], out=out[:, 2, :])
        ext = out.reshape(-1)
    return ext


def spectrum_to_masks(spectrum: np.ndarray) -> tuple[int, ...]:
    """Cube masks (sorted) of the non-zero spectrum coefficients."""
    return tuple(int(i) for i in np.nonzero(spectrum)[0])


def fprm_from_table(table: TruthTable, polarity: int) -> FprmForm:
    """Convenience: the full :class:`FprmForm` for one polarity vector."""
    masks = spectrum_to_masks(fprm_spectrum(table, polarity))
    return FprmForm.from_masks(table.n, polarity & ((1 << table.n) - 1), masks)
