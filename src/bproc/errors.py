"""Exception hierarchy shared by every stage of the toolchain.

Parse/compile-stage errors abort the pipeline; evaluation-stage errors are
caught by the execution engine and turned into a faulting run summary.
"""

from __future__ import annotations


class BprocError(Exception):
    """Base class for all toolchain errors."""


# --- FEEL ---------------------------------------------------------------

class FeelSyntaxError(BprocError):
    def __init__(self, message: str, column: int, expected: set[str] | None = None):
        super().__init__(f"{message} (column {column})")
        self.column = column
        self.expected = frozenset(expected or ())


class FeelTypeError(BprocError):
    """Operand kind mismatch during evaluation."""


class UndefinedValueError(BprocError):
    """An operation touched the undefined value of a never-written variable."""


class DivisionByZeroError(BprocError):
    pass


class DateOutOfRangeError(BprocError):
    """A date outside 0001-01-01 to 9999-12-31, which no literal writes."""


class ValueTooLargeError(BprocError):
    """An operation would build an integer or string past the size limit
    (`feel.values.MAX_INT_BITS`, `MAX_STRING_LENGTH`)."""


class IndexOutOfRangeError(BprocError):
    pass


class TypeConflictError(BprocError):
    """A variable is compared with constants of irreconcilable types."""

    def __init__(self, name: str, types):
        super().__init__(f"variable {name!r} compared with conflicting constant types: "
                         + ", ".join(sorted(str(t) for t in types)))
        self.name = name


# --- model parsing ------------------------------------------------------

class SchemaError(BprocError):
    pass


class UnsupportedElementError(BprocError):
    pass


class RoleConflictError(BprocError):
    def __init__(self, name: str, input_writers, process_writers):
        super().__init__(
            f"variable {name!r} is written both by input-side nodes "
            f"{sorted(input_writers)} and process-side nodes {sorted(process_writers)}; "
            f"rename one of them")
        self.name = name
        self.input_writers = frozenset(input_writers)
        self.process_writers = frozenset(process_writers)


class UnsupportedHitPolicyError(BprocError):
    pass


# --- decision tables ----------------------------------------------------

class NoMatchError(BprocError):
    def __init__(self, table_id: str):
        super().__init__(f"no rule of table {table_id!r} matches and the table has no default row")
        self.table_id = table_id


class UniquenessViolationError(BprocError):
    def __init__(self, table_id: str, rows):
        super().__init__(f"table {table_id!r} with hit policy UNIQUE matched rows {sorted(rows)}")
        self.table_id = table_id
        self.rows = tuple(rows)


class AnyConflictError(BprocError):
    def __init__(self, table_id: str):
        super().__init__(f"table {table_id!r} with hit policy ANY matched rows with differing outputs")
        self.table_id = table_id


# --- compiler -----------------------------------------------------------

class UnresolvedTableError(BprocError):
    def __init__(self, ref: str):
        super().__init__(f"business rule task references unknown decision table {ref!r}")
        self.ref = ref


# --- inputs file --------------------------------------------------------

class InputsParseError(BprocError):
    def __init__(self, message: str, line_no: int):
        super().__init__(f"{message} (line {line_no})")
        self.line_no = line_no


class DomainMismatchError(BprocError):
    def __init__(self, name: str, message: str):
        super().__init__(f"sample for {name!r} {message}")
        self.name = name


class MissingOverrideError(BprocError):
    def __init__(self, name: str):
        super().__init__(f"variable {name!r} has an unhandled domain and no override values; "
                         f"add an 'override {name} = ...' line to the inputs file")
        self.name = name


# --- runtime / verifier -------------------------------------------------

class MessageTypeMismatchError(BprocError):
    pass


class UnknownIdError(BprocError):
    """A node or (source, target) pair outside the process graph, which
    numbers coverage: lowering refuses a model whose routines reach one,
    before its first run, and `accumulate_coverage` a trace that names one."""


class ConfigError(BprocError):
    pass
