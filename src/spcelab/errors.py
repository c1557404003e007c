"""Exception types shared across the package, and the way their messages echo a value."""


def shorten(text: str) -> str:
    """``text`` cut to 24 characters, so a diagnostic never echoes a whole rejected value."""
    return text if len(text) <= 24 else text[:21] + "..."


class DomainError(ValueError):
    """A precondition on an operation's arguments was violated."""


class FormatError(ValueError):
    """A serialized input (JSONL, config) failed to parse.

    Carries the 1-based line number of the offending record when known.
    """

    def __init__(self, message, lineno=None):
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)
        self.lineno = lineno


class ConfigError(ValueError):
    """A CLI configuration document failed schema validation."""
