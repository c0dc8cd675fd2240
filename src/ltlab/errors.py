"""Exception types shared across the package.

The CLI maps these onto distinct exit codes, so anything user-facing
should raise one of them rather than a bare exception.
"""


class ConfigError(ValueError):
    """Invalid configuration document, CLI argument, or hyper-parameter."""


class DataError(ValueError):
    """Malformed or inconsistent dataset input."""


class NumericError(RuntimeError):
    """Non-finite value encountered during training or evaluation."""


def check_ranges(obj, **intervals: str) -> None:
    """Raise ConfigError for the first named field of ``obj`` outside its
    interval, written as text such as ``"[0, 1)"`` or ``"(0, inf)"``. Every
    comparison is false for NaN, and no interval is closed at an infinity,
    so a value that passes is a finite number."""
    for name, interval in intervals.items():
        value = getattr(obj, name)
        lo, hi = map(float, interval[1:-1].split(","))
        if not ((lo <= value if interval[0] == "[" else lo < value)
                and (value <= hi if interval[-1] == "]" else value < hi)):
            raise ConfigError(f"{name} must lie in {interval}, got {value!r}")
