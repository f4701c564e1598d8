"""Exception types shared across the pipeline."""


class BlamekitError(Exception):
    """Base class for all library errors."""


class ShapeError(BlamekitError):
    """Vector or matrix width does not match what the operation expects."""


class InputError(BlamekitError):
    """Input values are unusable (non-finite entries, bad domain)."""


class ParseError(BlamekitError):
    """Malformed input file; names the file, and for telemetry the row/column."""


class TrainingError(BlamekitError):
    """Training cannot proceed (e.g. single-class data) or diverged (a
    weight or bias became non-finite)."""


class EmptyBaselineError(BlamekitError):
    """No training point scored above the candidate threshold."""


class ConfigError(BlamekitError):
    """A refused setting: a flag or config value out of its range, or a
    benchmark configuration that is infeasible."""
