"""Exception types shared across the toolkit, and the rules that settings and
parameter dataclasses declare on their fields: `bounded(default, low=0)` for a
finite value >= `low` (`low` may name an earlier field), `positive(default)` for
one > 0, `one_of(*options)` for one of a set. A bounded `int` field takes only
integers (no bool), and a tuple default fixes the length. A `Bounded` dataclass
checks each rule after `__init__`, and raises `BoundError` naming the field.
"""

import math
import numbers
from dataclasses import MISSING, field, fields
from functools import cache, partial


class RobokitError(Exception):
    """Base class for toolkit-specific failures."""


class ConfigError(RobokitError, ValueError):
    """Config file failed validation; `key` names the offending entry."""

    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(f"{key}: {message}")


class BoundError(ValueError):
    """A value that breaks its field's rule: `bound`, as a config error words it ("> 0",
    "an integer >= 1", "a 3-vector", "one of 'a', 'b'"; a float must also be finite).
    `field` names it, e.g. ``r[1]`` (`name`, `index`); `value` is the whole field."""

    def __init__(self, owner: str, name: str, index: int | None, bound: str, value):
        self.name, self.index, self.bound, self.value = name, index, bound, value
        self.field = name if index is None else f"{name}[{index}]"
        entry = value if index is None else value[index]
        rule = f"finite and {bound}" if bound[0] in "<>" else bound
        super().__init__(f"{owner}.{self.field} must be {rule}, got {entry!r}")


class CapabilityError(RobokitError):
    """A subsystem was requested that the config disables or the backend lacks."""


class IkConvergenceError(RobokitError):
    """Inverse kinematics failed to converge; carries the best residuals seen."""

    def __init__(self, position_residual: float, orientation_residual: float, iterations: int):
        self.position_residual = position_residual
        self.orientation_residual = orientation_residual
        self.iterations = iterations
        super().__init__(
            f"IK did not converge after {iterations} iterations "
            f"(residual {position_residual:.3e} m / {orientation_residual:.3e} rad)"
        )


class ControlError(RobokitError):
    """Controller-level failure (singular Riccati step, unusable trajectory, ...)."""


class NoPathError(RobokitError):
    """Global planner found no collision-free path."""


class NoClustersError(RobokitError):
    """Push planning requires at least one cluster."""


def bounded(default=MISSING, low=0, strict: bool = False):
    """A dataclass field that must be finite and >= `low` (> `low` when `strict`)."""
    return field(default=default, metadata={"low": low, "strict": strict})


positive = partial(bounded, strict=True)


def one_of(*options, default=MISSING):
    """A dataclass field that must equal one of `options`."""
    return field(default=default, metadata={"options": options})


def holds_int(f) -> bool:
    """Whether dataclass field `f` is annotated `int` (a str under postponed annotations)."""
    return f.type in (int, "int")


@cache
def _rules(cls) -> tuple:
    return tuple((f.name, f.metadata.get("low"), f.metadata.get("strict"), holds_int(f),
                  len(f.default) if isinstance(f.default, tuple) else None,
                  f.metadata.get("options")) for f in fields(cls) if f.metadata)


class Bounded:
    """Base of the settings and parameter dataclasses; a subclass with checks of
    its own calls this `__post_init__` from its own."""

    def __post_init__(self):
        owner = type(self).__name__
        for name, low, strict, integer, length, options in _rules(type(self)):
            value = getattr(self, name)
            if options is not None:
                if value not in options:
                    raise BoundError(owner, name, None,
                                     f"one of {', '.join(map(repr, options))}", value)
                continue
            if length and not (isinstance(value, (tuple, list)) and len(value) == length):
                raise BoundError(owner, name, None, f"a {length}-vector", value)
            limit = getattr(self, low) if isinstance(low, str) else low
            for i, v in (enumerate(value) if isinstance(value, (tuple, list)) else [(None, value)]):
                if not ((isinstance(v, numbers.Integral) and not isinstance(v, bool)) if integer
                        else math.isfinite(v)) or not (v > limit if strict else v >= limit):
                    raise BoundError(owner, name, i, f"{'an integer ' * integer}"
                                                     f"{'>' if strict else '>='} {low}", value)
