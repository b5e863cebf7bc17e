"""Exception types shared across the analysis pipeline."""


class AnalysisError(Exception):
    """Base class for all errors raised by this package."""


class PcapFormatError(AnalysisError):
    """The input file is not a readable classic pcap capture."""


class UnsupportedLinkTypeError(AnalysisError):
    """The capture's link layer cannot be unwrapped to transport payloads."""


class EmptyTraceError(AnalysisError):
    """No records survived loading and filtering."""


class HexParseError(AnalysisError):
    """A hex-lines input file contains a malformed line."""

    def __init__(self, reason: str, line_number: int):
        super().__init__(f"line {line_number}: {reason}")
        self.line_number = line_number


class InconsistentGroundTruthError(AnalysisError):
    """A ground-truth entry does not tile the payload of its message."""


class MissingMessageError(AnalysisError):
    """A ground-truth entry references a message not present in the trace."""


class EmptyAnalysisError(AnalysisError):
    """Too few analyzable segment values remain to run the analysis."""


class InsufficientMemoryError(AnalysisError):
    """The dissimilarity matrix of the values would not fit in the memory available."""

    def __init__(self, values: int, needed: int, available: int):
        super().__init__(f"{values} unique values need {needed / 2**20:.1f} MiB for the "
                         f"dissimilarity matrix, {available / 2**20:.1f} MiB available")


class OutOfMemoryError(AnalysisError):
    """An allocation failed inside a pipeline stage."""

    def __init__(self, original: MemoryError):
        super().__init__(f"ran out of memory: {original}")


class NoKneeError(AnalysisError):
    """Knee detection found no confirmed knee in the curve."""


class EvaluationUnavailableError(AnalysisError):
    """Ground-truth labels required for evaluation are missing."""


class PipelineStageError(AnalysisError):
    """Wraps an error raised inside a named pipeline stage."""

    def __init__(self, stage: str, original: BaseException):
        super().__init__(f"{stage}: {original}")
        self.stage = stage
        self.original = original
