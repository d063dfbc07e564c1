"""SI-prefixed quantity parsing and engineering-notation formatting.

SPICE decks and the paper's Table I express values like ``20n`` (20 nm),
``0.65`` (volts) or ``5e6`` (A/cm^2).  This module converts between such
strings and floats, and formats floats back into engineering notation for
the report tables produced by :mod:`repro.experiments.report`.

Examples
--------
>>> parse_quantity("10n")
1e-08
>>> parse_quantity("1.5u")
1.5e-06
>>> format_eng(2.34e-11, "J")
'23.40 pJ'
"""

from __future__ import annotations

import math
import re

from .errors import UnitError

#: SPICE-style multiplier suffixes.  ``meg`` must be matched before ``m``.
SPICE_MULTIPLIERS = [
    ("meg", 1e6),
    ("t", 1e12),
    ("g", 1e9),
    ("k", 1e3),
    ("m", 1e-3),
    ("u", 1e-6),
    ("µ", 1e-6),
    ("n", 1e-9),
    ("p", 1e-12),
    ("f", 1e-15),
    ("a", 1e-18),
]

_NUMBER_RE = re.compile(
    r"^\s*([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*([a-zA-Zµ]*)\s*$"
)

#: Prefixes used when formatting, from largest to smallest.
_ENG_PREFIXES = [
    (1e12, "T"),
    (1e9, "G"),
    (1e6, "M"),
    (1e3, "k"),
    (1.0, ""),
    (1e-3, "m"),
    (1e-6, "u"),
    (1e-9, "n"),
    (1e-12, "p"),
    (1e-15, "f"),
    (1e-18, "a"),
]


def parse_quantity(text: "str | float | int") -> float:
    """Parse a SPICE-style quantity into a float.

    Accepts plain numbers (``"0.9"``, ``1e-9``), numbers with SPICE
    multiplier suffixes (``"10n"``, ``"1.5meg"``), and passes through
    floats/ints unchanged.  Any trailing unit letters after the multiplier
    (e.g. ``"10ns"``, ``"2kOhm"``) are ignored, matching SPICE behaviour.

    Raises
    ------
    UnitError
        If the text cannot be interpreted as a number.
    """
    if isinstance(text, (int, float)):
        return float(text)
    match = _NUMBER_RE.match(text)
    if match is None:
        raise UnitError(f"cannot parse quantity: {text!r}")
    value = float(match.group(1))
    suffix = match.group(2).lower()
    if not suffix:
        return value
    for prefix, multiplier in SPICE_MULTIPLIERS:
        if suffix.startswith(prefix):
            return value * multiplier
    # Unknown leading letter: SPICE treats unrecognised suffixes as unit
    # names (e.g. "3V"), i.e. multiplier one.
    return value


def format_eng(value: float, unit: str = "", digits: int = 2) -> str:
    """Format ``value`` in engineering notation with an SI prefix.

    >>> format_eng(3.3e-9, "s")
    '3.30 ns'
    >>> format_eng(0.0, "W")
    '0.00 W'
    """
    if value != value:  # NaN
        return f"nan {unit}".strip()
    if math.isinf(value):
        sign = "-" if value < 0 else ""
        return f"{sign}inf {unit}".strip()
    if value == 0.0:
        return f"{0.0:.{digits}f} {unit}".strip()
    magnitude = abs(value)
    for index, (scale, prefix) in enumerate(_ENG_PREFIXES):
        if magnitude >= scale:
            # A value just under the next prefix boundary can *round* to
            # 1000 at the requested precision (999.95e-9 at 2 digits);
            # roll it over to the next prefix instead of printing
            # "1000.00 n".  The check uses the rendered string so the
            # decision always agrees with what would have been printed.
            if index > 0 and \
                    float(f"{magnitude / scale:.{digits}f}") >= 1000.0:
                scale, prefix = _ENG_PREFIXES[index - 1]
            return f"{value / scale:.{digits}f} {prefix}{unit}".strip()
    scale, prefix = _ENG_PREFIXES[-1]
    return f"{value / scale:.{digits}f} {prefix}{unit}".strip()


# Convenience unit constants so client code can write `10 * NS` readably.
FEMTO = 1e-15
PICO = 1e-12
NANO = 1e-9
MICRO = 1e-6
MILLI = 1e-3
KILO = 1e3
MEGA = 1e6
GIGA = 1e9

NS = 1e-9
US = 1e-6
MS = 1e-3
PS = 1e-12
FS = 1e-15

NM = 1e-9
UM = 1e-6

FJ = 1e-15
PJ = 1e-12
NJ = 1e-9

NW = 1e-9
UW = 1e-6
MW = 1e-3

NA = 1e-9
UA = 1e-6
MA = 1e-3

FF = 1e-15  # farads
AF = 1e-18

#: Boltzmann constant times room temperature over electron charge (volts).
THERMAL_VOLTAGE_300K = 0.025852
