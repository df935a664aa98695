"""Exception hierarchy shared by the whole toolkit.

Everything raised on purpose derives from QidsError so callers (and the CLI)
can separate tool failures from genuine bugs.
"""


class QidsError(Exception):
    """Base class for all toolkit errors."""


class InputError(QidsError):
    """Malformed user input: bad file contents, bad flag combinations."""


class AlphabetMismatch(InputError):
    """A string contains symbols outside the system alphabet."""


class MemoryOverflow(QidsError):
    """A rewrite would grow working memory past its configured capacity."""


class SizeLimit(QidsError):
    """Requested search/state space exceeds the configured simulation cap."""


class TapeOverflow(QidsError):
    """A tape head tried to leave the configured tape window."""


class EncodingClash(InputError):
    """Machine tokens cannot be embedded unambiguously in a memory string."""


class MalformedEncoding(QidsError):
    """A memory string does not decode to a unique machine configuration."""


class NormDrift(QidsError):
    """A state vector's norm strayed too far from 1 to be trusted."""


class ZeroProbability(QidsError):
    """Projection onto an outcome that carries (numerically) no amplitude."""


class KZero(QidsError):
    """Iteration-count policy asked for with zero marked items."""
