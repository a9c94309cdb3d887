"""Exception types shared across the package.

The CLI maps these to distinct exit codes, so library code should raise
the most specific one that applies. Library constructors (the fringe
specs, ``GeometryFactor``, ``ChannelModel``, ``SignalComponent``,
``VibrationSignal``, ``TimestampStream``, ``AnalysisOptions``) raise
``ConfigError`` on a bad parameter, so a config builder passes them its
values unwrapped.
"""


class ConfigError(ValueError):
    """Invalid configuration: bad parameter values, units, or keys."""


class StreamFormatError(ValueError):
    """A timestamp stream file does not match its declared format."""


class AnalysisError(RuntimeError):
    """Estimation cannot proceed (degenerate inputs, no usable trials)."""
