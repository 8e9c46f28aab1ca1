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
from dataclasses import dataclass, field

import numpy as np

from .states import StateVector, Unitary
from .validate import integer, real

__all__ = [
    "Spectrum",
    "EffectiveDimensionReport",
    "microcanonical_dim",
    "entropy_of",
    "ipr_dimension",
    "suppression_scale",
    "noninteracting_qubit_spectrum",
]


@dataclass(frozen=True)
class Spectrum:
    """Sorted, finite eigenvalue list of an environment Hamiltonian."""

    energies: np.ndarray

    def __post_init__(self):
        e = np.ascontiguousarray(self.energies, dtype=float)
        if e.ndim != 1:
            raise ValueError("energies must be a 1-D sequence")
        if e.size and not np.all(np.isfinite(e)):
            raise ValueError("energies must be finite")
        if np.any(np.diff(e) < 0):
            raise ValueError("energies must be sorted ascending")
        e.setflags(write=False)
        object.__setattr__(self, "energies", e)

    @property
    def size(self) -> int:
        return self.energies.size

    @classmethod
    def from_file(cls, path) -> "Spectrum":
        """Read one float per line, or a single JSON array."""
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        stripped = text.lstrip()
        if stripped.startswith("["):
            values = json.loads(text)
        else:
            values = [float(line) for line in text.splitlines() if line.strip()]
        return cls(np.asarray(values, dtype=float))


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


@dataclass(frozen=True)
class EffectiveDimensionReport:
    """An effective dimension, its entropy, and how it was estimated."""

    d_eff: float
    method: str
    entropy: float = field(init=False)

    def __post_init__(self):
        if self.method not in ("microcanonical-shell", "ipr"):
            raise ValueError(f"unknown method {self.method!r}")
        object.__setattr__(self, "entropy", entropy_of(self.d_eff))

    def as_dict(self) -> dict:
        overlap_scale, amplitude_scale = suppression_scale(self.d_eff)
        return {
            "d_eff": self.d_eff,
            "entropy": self.entropy,
            "method": self.method,
            "overlap_sq_scale": overlap_scale,
            "amplitude_scale": amplitude_scale,
        }

    def to_json(self, path=None):
        obj = self.as_dict()
        if path is not None:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(obj, fh, indent=2, sort_keys=True)
                fh.write("\n")
        return obj


def noninteracting_qubit_spectrum(n: int) -> Spectrum:
    """Spectrum of n non-interacting qubits: energy = excitation count.

    The level at energy m has degeneracy C(n, m), which makes this the
    standard combinatorial testbed for shell counting.
    """
    n = integer("n", n, 1)
    counts = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        counts = np.concatenate([counts, counts + 1])
    return Spectrum(np.sort(counts).astype(float))
