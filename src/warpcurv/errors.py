"""Exception taxonomy shared by all modules.

Every error raised by the library derives from WarpcurvError so callers
(and the CLI exit-code mapper) can catch domain failures in one place.
"""


class WarpcurvError(Exception):
    """Base class for all library errors."""


class ExprError(WarpcurvError):
    """Malformed expression tree or evaluation outside its domain."""


# Longest text a parse error quotes whole; of a longer one it quotes this
# many characters around the position.
_EXCERPT = 60


def excerpt(text, pos=0, width=_EXCERPT):
    """repr(text), or for a text longer than _EXCERPT characters the repr of
    `width` characters around pos with their span."""
    if len(text) <= _EXCERPT:
        return repr(text)
    lo = min(max(0, pos - width // 2), len(text) - width)
    hi = lo + width
    return f"{text[lo:hi]!r} (characters {lo} to {hi} of {len(text)})"


class ExprParseError(ExprError):
    """Expression string could not be parsed; carries position info."""

    def __init__(self, message, text, pos):
        super().__init__(f"{message} at position {pos}: {excerpt(text, pos)}")
        self.text = text
        self.pos = pos


class NonPositiveWarping(WarpcurvError):
    """A warping function is <= 0 at the requested point."""


class OutOfChart(WarpcurvError):
    """Point lies outside a chart's declared domain (e.g. sphere pole)."""


class SingularMetric(WarpcurvError):
    """Assembled metric is not invertible at the point."""


class NumericalInstability(WarpcurvError):
    """Two computation paths disagree beyond the safety threshold."""


class UnsupportedP(WarpcurvError):
    """Torsion vector field not supported (e.g. spread across blocks)."""


class CaseMismatch(WarpcurvError):
    """Argument block tags match no component-formula clause."""


class DimensionTooSmall(WarpcurvError):
    """Total dimension too small for the requested check."""


class InvalidDimension(WarpcurvError):
    """Fiber dimension outside a generator's admissible range."""


class LengthMismatch(WarpcurvError):
    """Paired parameter lists have different lengths."""


class UnsupportedType(WarpcurvError):
    """Kasner type tag outside the supported I/II/III set."""


class StepTooCoarse(WarpcurvError):
    """Numerical integration deviates too far from the closed form."""


class UnsupportedFormat(WarpcurvError):
    """Unknown report output format."""


class ConfigParseError(WarpcurvError):
    """Scenario file is malformed; carries line diagnostics."""

    def __init__(self, message, line_no=None, line=None):
        loc = f" (line {line_no}: {line!r})" if line_no is not None else ""
        super().__init__(message + loc)
        self.line_no = line_no
        self.line = line
