"""Resource caps shared across the engine.

Everything here exists so that expensive operations refuse loudly instead
of silently grinding or, worse, returning a wrong partial answer.  The
limits are module constants, read as ``caps.NAME`` where they apply.
Only the element-enumeration cap can be overridden, by the VG_ENUM_CAP
environment variable, which ``enum_cap`` reads each time it is called.
"""
from __future__ import annotations

import os

ENUM_CAP_ENV = "VG_ENUM_CAP"
ENUM_CAP = 200_000
# the chain holds a degree-length tuple per orbit point, so C_n takes
# memory quadratic in n; this bound is read before a group is built
DEGREE_CAP = 2048
TABLE_CLASS_CAP = 60
SEPSET_POINTS_CAP = 12
STABILIZER_PAIRS_CAP = 1_000_000
CENSUS_VECTORS_CAP = 20_000_000


class CapExceeded(Exception):
    """An operation would exceed a configured cap.

    Callers that produce verdicts translate this into INDETERMINATE; it is
    never turned into a false positive or negative.
    """


def enum_cap() -> int:
    """The element-enumeration cap: VG_ENUM_CAP when set, else ENUM_CAP.
    Raises ValueError unless the variable holds a positive integer."""
    raw = os.environ.get(ENUM_CAP_ENV)
    if raw is None:
        return ENUM_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"{ENUM_CAP_ENV} must be a positive integer,"
                         f" got {raw!r}")
    return cap


def check_enumerable(order: int) -> None:
    """Refuse via CapExceeded a group whose order exceeds ``enum_cap()``."""
    cap = enum_cap()
    if order > cap:
        raise CapExceeded(f"order {order} exceeds enumeration cap {cap}")


def check_table_classes(count: int) -> None:
    """Refuse via CapExceeded a table of more than TABLE_CLASS_CAP classes."""
    if count > TABLE_CLASS_CAP:
        raise CapExceeded(f"{count} classes exceeds table cap {TABLE_CLASS_CAP}")
