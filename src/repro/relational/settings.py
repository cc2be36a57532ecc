"""Numeric engine settings read from the environment.

A value that does not parse, is negative or is not finite raises
instead of falling back to the default: a typo in a durability or lock
setting must not quietly become a different policy.
"""

from __future__ import annotations

import math
import os


def env_number(name, default, parse=float):
    """The environment variable *name* parsed with *parse* (``float`` or
    ``int``), or *default* when it is unset or blank.

    :raises ValueError: naming the variable and its value when the value
        is not a finite, non-negative number.
    """
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        value = parse(raw)
    except ValueError:
        value = None
    if value is None or not 0 <= value < math.inf:
        raise ValueError(
            f"{name}={raw!r} is not a non-negative {parse.__name__}"
        )
    return value
