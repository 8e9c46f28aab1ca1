"""Input rules for the public API, each stated once.

Every check is written as ``if not <good>: raise``, so NaN, which fails
every comparison, can never pass. A rejected value raises ValueError
(the CLI maps it to exit 2); resource caps are a separate decision and
live in :mod:`quasiortho.limits`. Only numbers count as numbers: a
string, bytes or boolean is rejected even where ``float()`` or
``operator.index()`` would take it.
"""

from __future__ import annotations

import math
import operator
import sys

import numpy as np

__all__ = ["integer", "real", "frozen_array", "address"]

# Types that float() or operator.index() accept but that are not numbers;
# a JSON config can carry "3" or true where a number belongs.
_NOT_NUMBERS = (str, bytes, bool, np.bool_)
# dtype kinds of numeric arrays: signed and unsigned int, float, complex.
_NUMBER_KINDS = "iufc"
# Largest integer magnitude accepted: numbers beyond it have no float.
_FLOAT_MAX = sys.float_info.max


def integer(name: str, value, lo: int, hi: int | None = None) -> int:
    """Integer-valued ``value`` with ``lo <= value <= hi``, returned as int.

    Python and numpy integers come back unchanged, with no float round
    trip (128-bit seeds stay exact). Floats are accepted only when they
    are finite and integer-valued, and integers only inside the float
    range, as ``real`` accepts them.
    """
    if isinstance(value, _NOT_NUMBERS):
        raise _not_a_number(name, value)
    try:
        out = operator.index(value)
    except TypeError:
        x = _float(name, value)
        if not x.is_integer():
            raise ValueError(f"{name} must be an integer, got {value!r}") from None
        out = int(x)
    if not (lo <= out and (hi is None or out <= hi)):
        bounds = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ValueError(f"{name} must be an integer {bounds}, got "
                         f"{_shown_int(value, out)}")
    if not abs(out) <= _FLOAT_MAX:
        raise ValueError(f"{name} must be an integer inside the float range "
                         f"(magnitude <= {_FLOAT_MAX:g}), got "
                         f"{_shown_int(value, out)}")
    return out


def address(name: str, value) -> tuple[int, ...]:
    """A stream name ``(seed, stream_index, *path)`` as
    ``RngStream.address`` gives it: a tuple or list of at least two
    integers >= 0, returned as a tuple of what ``integer`` returns for
    each, so a 128-bit seed stays exact."""
    if not (isinstance(value, (tuple, list)) and len(value) >= 2):
        raise ValueError(f"{name} must be a tuple of at least two integers "
                         f">= 0, got {value!r}")
    return tuple(integer(f"{name} entry", v, 0) for v in value)


def _shown_int(value, out: int) -> str:
    """``repr(value)``, or for an int too long for Python to print
    (``sys.get_int_max_str_digits``) its sign and bit length."""
    try:
        return repr(value)
    except ValueError:
        sign = "a negative" if out < 0 else "an"
        return f"{sign} integer of {out.bit_length()} bits"


def real(name: str, value, lo: float = -math.inf, hi: float = math.inf, *,
         lo_open: bool = False, hi_open: bool = False) -> float:
    """Finite real ``value`` inside the interval from ``lo`` to ``hi``.

    Bounds are closed unless ``lo_open``/``hi_open`` is set. Returns the
    value as a float.
    """
    x = _float(name, value)
    if not (math.isfinite(x)
            and (lo < x if lo_open else lo <= x)
            and (x < hi if hi_open else x <= hi)):
        interval = (f"{'(' if lo_open else '['}{lo}, "
                    f"{hi}{')' if hi_open else ']'}")
        raise ValueError(
            f"{name} must be a finite number in {interval}, got {value!r}"
        )
    return x


def frozen_array(name: str, value, dtype, ndim: int, *,
                 allow_empty: bool = False) -> np.ndarray:
    """``value`` as a read-only C-contiguous ``dtype`` array with ``ndim``
    axes, non-empty unless ``allow_empty`` is set.

    The storage rule of every array-holding type. An input that already
    is a contiguous ``dtype`` array is not copied: the result is a
    read-only view of it, the caller's array stays writable, and writing
    to it later changes the holder unchecked. Any other input is
    converted into a new array. Values that are not numbers (strings,
    booleans, objects) raise ValueError, as does a wrong number of axes
    (a scalar has none) or an empty array.
    """
    arr = np.asarray(value)
    if arr.dtype.kind not in _NUMBER_KINDS:
        raise ValueError(f"{name} must hold numbers, got dtype {arr.dtype}")
    # checked before the conversion, which gives a scalar one axis
    if not (arr.ndim == ndim and (allow_empty or arr.size)):
        what = "matrix" if ndim == 2 else f"{ndim}-D array"
        raise ValueError(f"{name} must be a {'' if allow_empty else 'non-empty '}"
                         f"{what}, got shape {arr.shape}")
    arr = np.ascontiguousarray(arr, dtype=dtype).view()
    arr.setflags(write=False)
    return arr


def _float(name: str, value) -> float:
    """``float(value)`` for a number. Anything else (None, a list, a
    string, a boolean) raises ValueError like any other rejected input,
    not TypeError, and so does an int beyond the float range, not
    OverflowError."""
    if isinstance(value, _NOT_NUMBERS):
        raise _not_a_number(name, value)
    try:
        return float(value)
    except TypeError:
        raise _not_a_number(name, value) from None
    except OverflowError:
        raise ValueError(f"{name} must be a finite number, got a value "
                         f"beyond the float range") from None


def _not_a_number(name: str, value) -> ValueError:
    return ValueError(f"{name} must be a number, got {value!r}")
