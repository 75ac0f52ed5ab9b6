"""Exception types, process exit codes and the rules for numeric arguments.

A grid function (``estimate_curve``, ``band_companions``,
``confidence_band``) never raises because a point failed, even if every
point did: it records each point's reason and NaN there.  A one-point
function (``local_linear_fit``, ``estimate_second_derivative``,
``estimate_density``) raises that point's error.  An argument error
(negative bandwidth, non-finite evaluation point) raises ``ValueError``.
The classes below cover failures that depend on the data rather than on
the call signature, so callers can distinguish "your input is unusable"
from "the estimator has nothing to work with here"; a proxy without
spread, too few returns or too short a series is a ``DataError``.

Every scalar argument of the package (a bandwidth, horizon, interval,
threshold, count or seed) and every number option of the command line
is checked by ``checked``: a number is a Python or numpy int or float,
never a bool, a string or an array, and a count must be an integer,
which is never truncated.  A value that breaks its rule raises
``ValueError("{name} must be {need}, got {v!r}")``; ``checked_list``
applies it to each number of a list.  A dataclass field declares its
``check(name, value)`` in its metadata, which ``check_fields`` applies
and from which the command line builds its options.
"""

import dataclasses
import functools
import math
import numbers

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4


class JdsmoothError(Exception):
    """Base class for package-specific failures."""

    exit_code = EXIT_NUMERICAL


class ConfigError(JdsmoothError):
    """Invalid configuration file or command-line usage."""

    exit_code = EXIT_CONFIG


class DataError(JdsmoothError):
    """Unusable input data: bad CSV rows, nonpositive prices, NaNs."""

    exit_code = EXIT_DATA


class SparseRegionError(JdsmoothError):
    """No usable kernel mass near the requested evaluation point."""

    def __init__(self, x: float, message: str | None = None):
        self.x = x
        super().__init__(message or f"no usable kernel mass near x={x:g}")


class DegenerateDesignError(JdsmoothError):
    """Weighted design matrix is numerically singular at this point."""


class NotIdentifiableError(JdsmoothError):
    """Jump components cannot be recovered from the supplied moments."""


# a rule is (what error messages say it needs, its test on the converted value)
FINITE = ("finite", math.isfinite)
POSITIVE = ("positive and finite", lambda v: math.isfinite(v) and v > 0)
NONNEGATIVE = ("nonnegative and finite", lambda v: math.isfinite(v) and v >= 0)
OPEN_UNIT = ("in (0, 1)", lambda v: 0.0 < v < 1.0)


def at_least(k: int) -> tuple:
    """The rule v >= k, for counts."""
    return (f"at least {k}", lambda v: v >= k)


def is_number(v, integer: bool = False) -> bool:
    """A real number (an integer when ``integer`` is set) that is not a bool."""
    kind = numbers.Integral if integer else numbers.Real
    return isinstance(v, kind) and not isinstance(v, bool)


def checked(name: str, v, rule=FINITE, integer: bool = False):
    """``float(v)``, or ``int(v)`` when ``integer`` is set, if v is such a
    number and meets ``rule``; otherwise ValueError naming ``name``."""
    need, ok = rule
    if is_number(v, integer):
        try:
            x = int(v) if integer else float(v)
            if ok(x):
                return x
        except OverflowError:  # an integer beyond the float range
            pass
    else:
        kind = "an integer" if integer else "a number"
        need = kind if rule is FINITE else f"{kind} that is {need}"
    raise ValueError(f"{name} must be {need}, got {v!r}")


def checked_list(name: str, values, rule=FINITE, distinct: bool = False) -> tuple:
    """``values`` as a tuple of ``checked`` floats, with ``distinct`` no two equal."""
    out = tuple(checked(name, v, rule) for v in values)
    if distinct and len(set(out)) < len(out):
        raise ValueError(f"{name} must be distinct, got {out!r}")
    return out


def checked_field(rule=FINITE, integer: bool = False, **kw):
    """A dataclass field (``kw`` as for ``field``) checked against ``rule``."""
    check = functools.partial(checked, rule=rule, integer=integer)
    return dataclasses.field(metadata={"check": check}, **kw)


def check_fields(obj) -> None:
    """Store the checked value of each field of ``obj`` that has a check."""
    for f in dataclasses.fields(obj):
        if "check" in f.metadata:
            v = f.metadata["check"](f.name, getattr(obj, f.name))
            object.__setattr__(obj, f.name, v)
