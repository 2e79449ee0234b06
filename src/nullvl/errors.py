"""Exception hierarchy shared across the package."""


class NullvlError(Exception):
    """Base class for all errors raised by this package."""


class ExprParseError(NullvlError):
    """Malformed expression text. Carries the source offset of the problem."""

    def __init__(self, message: str, offset: int, line: int, column: int):
        super().__init__(f"{message} (offset {offset}, line {line}, column {column})")
        self.offset = offset
        self.line = line
        self.column = column


class TypeCheckError(NullvlError):
    """Ill-typed expression: bad arity, wrong column type, unknown name, ..."""


class SchemaError(NullvlError):
    """Inconsistent schema or database contents."""


class EvalError(NullvlError):
    """Runtime evaluation failure that is not a user error (internal bug)."""


class RecursionLimitError(NullvlError):
    """Fixpoint iteration exceeded the configured cap; query may not terminate."""


class KernelError(NullvlError):
    """Invalid logic kernel: broken table laws, missing templates, bad grounding."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class SqlParseError(NullvlError):
    """Malformed SQL text, with the line and column of the fault, or a
    query that does not lower to the algebra, without a position."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        super().__init__(message if line is None else f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class UnsupportedSqlError(NullvlError):
    """SQL construct outside the supported subset (names the feature)."""


class SqlEmitError(NullvlError):
    """Expression shape that the SQL printer cannot express."""
