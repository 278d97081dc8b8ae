"""Exception types shared across the package."""


class NumericalFailure(RuntimeError):
    """An optimization loop produced a non-finite loss or model, a solve failed,
    or a sensitivity or curvature that a run divides by vanished."""


class SolverFailure(NumericalFailure):
    """The forward operator could not be solved: a model that is not finite, a
    singular factor or a non-finite solution."""


class ParseError(ValueError):
    """A grid, data, trace, manifest or config file could not be parsed;
    carries the file's path and the offending line number."""

    def __init__(self, message, line_no, path):
        super().__init__(f"{path}: line {line_no}: {message}")
        self.line_no = line_no
        self.path = path


class CheckpointError(ValueError):
    """A file given as a network checkpoint is not one: not an ``.npz`` archive,
    no readable architecture descriptor, arrays that do not fit it, or an
    architecture other than the one a run derives for its mesh."""


class ManifestError(ValueError):
    """A run manifest parsed as JSON but lacks a key or holds a value of the wrong type."""
