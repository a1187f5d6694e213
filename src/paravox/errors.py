"""Shared exception types."""


class ShapeError(ValueError):
    """Operands with incompatible shapes."""


class GraphError(RuntimeError):
    """Misuse of the computation graph (e.g. backward on a non-scalar)."""


class FormatError(ValueError):
    """Bad magic, unknown version, or truncated binary container."""


class ConfigError(ValueError):
    """Invalid configuration; collects every problem found."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class VocabularyError(ValueError):
    """Token id or symbol outside the phoneme inventory, or no tokens at all."""


class NonDeterministicError(RuntimeError):
    """Gradient check target returned different values on repeated evaluation."""


class DegenerateSynthesisError(RuntimeError):
    """Every token was gated to zero duration; nothing to synthesize."""


class TrainingDiverged(RuntimeError):
    """Non-finite loss encountered during training."""
