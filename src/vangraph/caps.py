"""Resource caps shared across the engine.

Everything here exists so that expensive operations refuse loudly instead
of silently grinding or, worse, returning a wrong partial answer.  The
element-enumeration cap can be overridden with the VG_ENUM_CAP environment
variable; the remaining caps are fixed defaults that callers may replace
by passing an explicit Caps value.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

ENUM_CAP_ENV = "VG_ENUM_CAP"


class CapExceeded(Exception):
    """An operation would exceed a configured cap.

    Callers that produce verdicts translate this into INDETERMINATE; it is
    never turned into a false positive or negative.
    """


@dataclass(frozen=True)
class Caps:
    enum_cap: int = 200_000
    table_class_cap: int = 60
    sepset_points_cap: int = 12
    stabilizer_pairs_cap: int = 1_000_000
    census_vectors_cap: int = 20_000_000


def default_caps() -> Caps:
    """Caps with any environment overrides applied."""
    raw = os.environ.get(ENUM_CAP_ENV)
    if raw is None:
        return Caps()
    return Caps(enum_cap=int(raw))
