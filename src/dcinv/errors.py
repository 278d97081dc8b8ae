"""Exception types shared across the package."""


class SolverFailure(RuntimeError):
    """The forward operator could not be solved: a singular factor or a non-finite solution."""


class NumericalFailure(RuntimeError):
    """An optimization loop produced a non-finite loss or model."""


class ParseError(ValueError):
    """A grid, data, trace, survey or manifest file could not be parsed; carries
    the offending line number."""

    def __init__(self, message, line_no):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class CheckpointError(ValueError):
    """A file given as a network checkpoint is not one: not an ``.npz`` archive,
    no readable architecture descriptor, or arrays that do not fit it."""


class CheckpointMismatch(CheckpointError):
    """A checkpoint's architecture differs from the one a run derives for its mesh."""


class ManifestError(ValueError):
    """A run manifest parsed as JSON but lacks a key or holds a value of the wrong type."""
