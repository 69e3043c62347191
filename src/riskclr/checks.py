"""Field rules for the frozen config dataclasses.

A rule is a (predicate, description) pair; ``check_fields`` applies one rule
per field and raises ``ValueError`` naming the first field that breaks its
rule, so every config rejects bad input with the same kind of message.
"""

from __future__ import annotations

import math
import numbers


def integer(lo: int, hi: float = math.inf):
    rule = f"an integer >= {lo}" if hi == math.inf else f"an integer in [{lo}, {hi}]"
    return lambda v: isinstance(v, numbers.Integral) and lo <= v <= hi, rule


def one_of(*options):
    return lambda v: v in options, f"one of {options}"


POSITIVE = (lambda v: 0 < v < math.inf, "positive and finite")
NON_NEGATIVE = (lambda v: 0 <= v < math.inf, "non-negative and finite")
UNIT = (lambda v: 0 <= v <= 1, "in [0, 1]")
BOOL = (lambda v: isinstance(v, bool), "a bool")


def check_fields(cfg, **rules) -> None:
    """Raise ValueError naming the first field of ``cfg`` that breaks its
    (predicate, description) rule; a predicate that raises counts as broken."""
    for name, (ok, rule) in rules.items():
        value = getattr(cfg, name)
        try:
            good = bool(ok(value))
        except TypeError:
            good = False
        if not good:
            raise ValueError(f"{name} must be {rule}, got {value!r}")
