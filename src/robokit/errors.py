"""Exception types shared across the toolkit, and the bounds that settings and
parameter dataclasses declare on their fields: `bounded(default, low=0)` for a
value >= `low` (`low` may name an earlier field), `positive(default)` for one
> 0. A dataclass deriving from `Bounded` checks after `__init__` that each such
field, and each entry of a tuple field, is finite and meets its bound, and
raises `BoundError` naming the field otherwise.
"""

import math
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
    """A value that is not finite or breaks its field's bound. `field` names it, e.g.
    ``r[1]`` (`name` and `index`, None for a number); `value` is the whole field."""

    def __init__(self, owner: str, name: str, index: int | None, bound: str, value):
        self.name, self.index, self.bound, self.value = name, index, bound, value
        self.field = name if index is None else f"{name}[{index}]"
        entry = value if index is None else value[index]
        super().__init__(f"{owner}.{self.field} must be finite and {bound}, got {entry!r}")


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


@cache
def _bounds(cls) -> tuple:
    return tuple((f.name, f.metadata["low"], f.metadata["strict"])
                 for f in fields(cls) if "low" in f.metadata)


class Bounded:
    """Base of the settings and parameter dataclasses; a subclass with checks of
    its own calls this `__post_init__` from its own."""

    def __post_init__(self):
        for name, low, strict in _bounds(type(self)):
            value = getattr(self, name)
            limit = getattr(self, low) if isinstance(low, str) else low
            for i, v in (enumerate(value) if isinstance(value, (tuple, list)) else [(None, value)]):
                if not (math.isfinite(v) and (v > limit if strict else v >= limit)):
                    raise BoundError(type(self).__name__, name, i,
                                     f"{'>' if strict else '>='} {low}", value)
