"""Effective-dimension accounting: shell counting, entropy, IPR proxy.

The accessible environment is typically not the full Hilbert space but
the span of eigenstates in a narrow energy window; its dimension sets
the suppression scales. Natural units are used throughout (k_B = 1), so
entropies are dimensionless: d_eff = e^S, and the conventional-units
form e^(S/k_B) appears only in documentation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import limits
from .states import StateVector, Unitary
from .validate import frozen_array, integer, real

__all__ = [
    "Spectrum",
    "microcanonical_dim",
    "entropy_of",
    "ipr_dimension",
    "suppression_scale",
    "noninteracting_qubit_spectrum",
]

# Characters of a spectrum file parsed per slice (256 KB of ASCII): the
# list of line strings, about 50 bytes each, stays near 4 MB instead of
# growing with the file.
_PARSE_SLICE_CHARS = 1 << 18


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Sorted, finite eigenvalue list of an environment Hamiltonian.

    ``energies`` is stored by ``frozen_array`` and may be empty: an empty
    spectrum has an empty shell at every energy.
    """

    energies: np.ndarray

    def __post_init__(self):
        e = frozen_array("energies", self.energies, np.float64, 1,
                         allow_empty=True)
        if e.size and not np.all(np.isfinite(e)):
            raise ValueError("energies must be finite")
        if np.any(np.diff(e) < 0):
            raise ValueError("energies must be sorted ascending")
        object.__setattr__(self, "energies", e)

    @property
    def size(self) -> int:
        return self.energies.size

    @classmethod
    def from_file(cls, path) -> "Spectrum":
        """Read a UTF-8 spectrum file and parse it with ``from_text``."""
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read())

    @classmethod
    def from_text(cls, text: str) -> "Spectrum":
        """Parse one float per line, or a single JSON array of numbers.

        Blank lines are skipped; every other line must parse as Python's
        ``float()`` parses it, or ``ValueError`` is raised; a line may end
        in LF, CRLF or CR. Each item of a JSON array must pass
        ``validate.real``, or ``ValueError`` names the first that does
        not: a boolean, string, array, object, null, NaN or infinity, or
        an integer beyond the float range.
        """
        if text.lstrip().startswith("["):
            values = [real(f"spectrum item {i}", v)
                      for i, v in enumerate(json.loads(text))]
        else:
            values = _parse_lines(text)
        return cls(values)


def _parse_lines(text: str) -> np.ndarray:
    """The non-blank lines of ``text`` as floats, with ``float()``'s
    parsing rules. Each slice of about ``_PARSE_SLICE_CHARS`` characters
    ends just after a newline, so ``splitlines`` sees whole lines and the
    line list stays bounded whatever the file size.

    A slice is parsed whole first. A blank or whitespace-only line makes
    that parse raise ValueError, so only then is the slice parsed again
    without its blank lines, which raises the error of a bad line."""
    parts = []
    start = 0
    while start < len(text):
        cut = text.find("\n", start + _PARSE_SLICE_CHARS - 1)
        end = len(text) if cut < 0 else cut + 1
        lines = text[start:end].splitlines()
        try:
            parts.append(np.array(lines, dtype=float))
        except ValueError:
            parts.append(np.array([line for line in lines if line.strip()],
                                  dtype=float))
        start = end
    return np.concatenate(parts) if parts else np.empty(0)


def microcanonical_dim(spectrum: Spectrum, energy: float, width: float) -> int:
    """Count eigenvalues in the half-open shell [energy, energy + width).

    Half-open windows partition the spectrum without double counting;
    an empty window counts 0.
    """
    energy = real("energy", energy)
    width = real("window width", width, 0.0, lo_open=True)
    lo = int(np.searchsorted(spectrum.energies, energy, side="left"))
    hi = int(np.searchsorted(spectrum.energies, energy + width, side="left"))
    return hi - lo


def entropy_of(d_eff: float) -> float:
    """Dimensionless entropy S = ln(d_eff), requiring d_eff >= 1."""
    return math.log(real("d_eff", d_eff, 1.0))


def ipr_dimension(state: StateVector, basis: Unitary | None = None) -> float:
    """Inverse participation ratio 1 / sum_k p_k^2, in [1, d].

    With p_k the population of the k-th basis vector: 1 for a basis
    state, d for a uniform superposition. The result is basis-dependent,
    so the basis is an explicit argument (columns of ``basis`` are the
    basis vectors; default is the computational basis).
    """
    if basis is None:
        coeffs = state.amplitudes
    else:
        if basis.dim != state.dim:
            raise ValueError(
                f"basis dim {basis.dim} does not match state dim {state.dim}"
            )
        coeffs = basis.entries.conj().T @ state.amplitudes
    p = np.abs(coeffs) ** 2
    return float(1.0 / np.sum(p ** 2))


def suppression_scale(d_eff: float) -> tuple[float, float]:
    """Predicted (mean squared overlap, overlap amplitude) for typical
    records: (1/d_eff, 1/sqrt(d_eff)), i.e. (e^-S, e^-(S/2))."""
    d_eff = real("d_eff", d_eff, 1.0)
    return 1.0 / d_eff, 1.0 / math.sqrt(d_eff)


def noninteracting_qubit_spectrum(n: int) -> Spectrum:
    """Spectrum of n non-interacting qubits: energy = excitation count.

    The level at energy m has degeneracy C(n, m), which makes this the
    standard combinatorial testbed for shell counting. The 2**n levels
    are capped by ``limits.MAX_SAMPLE_COUNT`` before anything is
    allocated.
    """
    n = integer("n", n, 1)
    # 2**n exceeds the cap exactly when n reaches the cap's bit length,
    # so a huge n forms no huge integer
    if n >= limits.MAX_SAMPLE_COUNT.bit_length():
        raise limits.ResourceLimitError(
            f"2**{n} levels exceed the sample cap {limits.MAX_SAMPLE_COUNT} "
            "(raise quasiortho.limits.MAX_SAMPLE_COUNT to override)")
    return Spectrum(np.repeat(np.arange(n + 1.0),
                              [math.comb(n, m) for m in range(n + 1)]))
