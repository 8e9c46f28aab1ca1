"""Input rules for the public API, each stated once.

Every check is written as ``if not <good>: raise``, so NaN, which fails
every comparison, can never pass. A rejected value raises ValueError
(the CLI maps it to exit 2); resource caps are a separate decision and
live in :mod:`quasiortho.limits`.
"""

from __future__ import annotations

import math
import operator

__all__ = ["integer", "real"]


def integer(name: str, value, lo: int, hi: int | None = None) -> int:
    """Integer-valued ``value`` with ``lo <= value <= hi``, returned as int.

    Python and numpy integers come back unchanged, with no float round
    trip (128-bit seeds stay exact). Floats are accepted only when they
    are finite and integer-valued.
    """
    try:
        out = operator.index(value)
    except TypeError:
        x = float(value)
        if not x.is_integer():
            raise ValueError(f"{name} must be an integer, got {value!r}") from None
        out = int(x)
    if not (lo <= out and (hi is None or out <= hi)):
        bounds = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ValueError(f"{name} must be an integer {bounds}, got {value!r}")
    return out


def real(name: str, value, lo: float = -math.inf, hi: float = math.inf, *,
         lo_open: bool = False, hi_open: bool = False) -> float:
    """Finite real ``value`` inside the interval from ``lo`` to ``hi``.

    Bounds are closed unless ``lo_open``/``hi_open`` is set. Returns the
    value as a float.
    """
    x = float(value)
    if not (math.isfinite(x)
            and (lo < x if lo_open else lo <= x)
            and (x < hi if hi_open else x <= hi)):
        interval = (f"{'(' if lo_open else '['}{lo}, "
                    f"{hi}{')' if hi_open else ']'}")
        raise ValueError(
            f"{name} must be a finite number in {interval}, got {value!r}"
        )
    return x
