"""Exception hierarchy for the :mod:`repro` semantic patching engine.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch a single base class.  Parse errors carry enough
location information to point the user at the offending line, mirroring the
diagnostics `spatch` emits.
"""

from __future__ import annotations

from dataclasses import dataclass


class ReproError(Exception):
    """Base class of all errors raised by the repro library."""


class LocatedError(ReproError):
    """An error at a place in a source text, ``filename:line:col: message``.

    Pickling keeps the fields, not the formatted text, so an error raised
    in a forked pipeline worker reaches the parent reading as it would
    have in the parent."""

    def __init__(self, message: str, filename: str = "<string>", line: int = 0, col: int = 0):
        super().__init__(f"{filename}:{line}:{col}: {message}")
        self.message = message
        self.filename = filename
        self.line = line
        self.col = col

    def __reduce__(self):
        return type(self), (self.message, self.filename, self.line, self.col)


class LexError(LocatedError):
    """Raised when the C/C++ or SmPL lexer meets an unrecognisable character."""


class CParseError(LocatedError):
    """Raised when the C/C++ parser cannot make sense of the input.

    The top-level parser is error tolerant (unparsable top-level constructs
    become opaque declarations), so this error mostly surfaces for malformed
    statements inside function bodies or for malformed SmPL pattern code.
    """


class SmplParseError(ReproError):
    """Raised for malformed semantic patches (rule headers, metavariable
    declarations, pattern bodies)."""

    def __init__(self, message: str, line: int = 0):
        super().__init__(f"semantic patch line {line}: {message}" if line else message)
        self.message = message
        self.line = line


class FrontendParseError(ReproError):
    """Raised for malformed machine-patch frontend inputs (JSON operation
    arrays, 'ap' locator documents, search/replace block files)."""

    def __init__(self, message: str, line: int = 0):
        super().__init__(f"line {line}: {message}" if line else message)
        self.message = message
        self.line = line


class PatchFileError(ReproError):
    """A patch input (``--sp-file`` / ``--patch-file`` / inline spec) could
    not be read or parsed.  The argument is a pre-formatted one-line
    ``file:line: message`` diagnostic, identical between the in-process CLI
    path and the server's error envelope."""


def patch_error_line(name: str, exc: Exception) -> str:
    """One-line ``file:line: message`` diagnostic for a failed patch input.

    ``name`` identifies the patch source (usually the file's basename, which
    is also the name a server spec carries — keeping local and remote
    diagnostics byte-identical).
    """
    if isinstance(exc, OSError):
        where = exc.filename or name
        return f"{where}: {exc.strerror or exc}"
    line = getattr(exc, "line", 0) or 0
    message = getattr(exc, "message", None) or str(exc).splitlines()[0]
    return f"{name}:{line}: {message}"


class MetavarError(ReproError):
    """Raised for invalid metavariable declarations or inconsistent usage."""


class ScriptRuleError(ReproError):
    """Raised when a ``script:python`` rule fails in a way that cannot be
    interpreted as 'drop this environment'."""


class TransformError(ReproError):
    """Raised when the transformation stage cannot map pattern tokens onto
    the matched code (e.g. conflicting overlapping edits)."""


class EditConflictError(TransformError):
    """Raised when two edits overlap in an irreconcilable way."""


class InterpreterError(ReproError):
    """Raised by the mini C interpreter (unsupported construct, bad value)."""


class WorkloadError(ReproError):
    """Raised by synthetic workload generators on invalid parameters."""


@dataclass(frozen=True)
class Diagnostic:
    """A non-fatal message produced while applying a semantic patch.

    Diagnostics are accumulated in reports rather than raised, so that a
    patch application over a large code base never aborts half way through.
    """

    severity: str  # "info" | "warning" | "error"
    message: str
    filename: str = ""
    line: int = 0

    def __str__(self) -> str:  # pragma: no cover - trivial
        loc = f"{self.filename}:{self.line}: " if self.filename else ""
        return f"{loc}{self.severity}: {self.message}"
