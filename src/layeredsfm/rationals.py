"""Exact rational values and their wire format.

Every function value in this package is an exact rational.  Layered
instances take values with denominators near ``(8n)^(n/2)``, far outside
floating-point range, so comparisons and equality are exact throughout;
no float ever enters a value computation.

Values are the standard-library ``Fraction``: arbitrary-precision
numerator/denominator, always stored reduced with a positive denominator,
which is exactly the representation contract this package needs.  This
module owns the serialization format: the reduced decimal string ``"p/q"``
(``"p"`` when the denominator is 1), bit-exact across platforms.
"""

from __future__ import annotations

import re
from fractions import Fraction

# ASCII digits only: ``\d`` would also match other Unicode decimal digits.
_VALUE_RE = re.compile(r"^(-?[0-9]+)(?:/([0-9]+))$|^(-?[0-9]+)$")


def format_value(v: Fraction) -> str:
    """Render a value as ``"p/q"`` (or ``"p"`` for integers), reduced."""
    return str(Fraction(v))


def parse_value(text: str) -> Fraction:
    """Parse ``"[-]p"`` or ``"[-]p/q"`` with decimal integers and q > 0.

    Round-trips with :func:`format_value`: ``parse_value(format_value(v)) == v``.
    Inputs are reduced on parse, so ``"2/4"`` yields ``1/2``.
    """
    if not isinstance(text, str):
        raise ValueError(f"expected string, got {type(text).__name__}")
    m = _VALUE_RE.match(text.strip())
    if m is None:
        raise ValueError(f"malformed rational {text!r}; expected 'p' or 'p/q'")
    if m.group(3) is not None:
        return Fraction(int(m.group(3)))
    num, den = int(m.group(1)), int(m.group(2))
    if den == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(num, den)
