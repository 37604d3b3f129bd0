"""Domain errors shared across the toolkit.

Every error carries a short machine-greppable ``code`` so the CLI can print
``CODE: human message`` on one line and scripts can match on the code.
"""

from __future__ import annotations


class UnitpackError(Exception):
    """Base class for all domain errors."""

    code: str = "ERROR"

    def __init__(self, message: str, *, code: str | None = None):
        super().__init__(message)
        if code is not None:
            self.code = code


def error_code(exc: UnitpackError | OSError) -> str:
    """The code printed for `exc`; an `OSError` is `IO_ERROR`."""
    return "IO_ERROR" if isinstance(exc, OSError) else exc.code


# --- units ---------------------------------------------------------------

class UnknownUnit(UnitpackError):
    code = "UNKNOWN_UNIT"


class UnitSyntaxError(UnitpackError):
    code = "UNIT_SYNTAX"


class EmptyExpression(UnitpackError):
    code = "EMPTY_EXPRESSION"


class DimensionMismatch(UnitpackError):
    code = "DIMENSION_MISMATCH"


class DivisionByZero(UnitpackError):
    code = "DIVISION_BY_ZERO"


class OutOfRange(UnitpackError):
    code = "OUT_OF_RANGE"


# --- metadata ------------------------------------------------------------

class MetadataParseError(UnitpackError):
    code = "PARSE_ERROR"

    def __init__(self, message: str, *, line: int | None = None,
                 column: int | None = None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class DuplicateKey(UnitpackError):
    code = "DUPLICATE_KEY"


class UnsupportedExtension(UnitpackError):
    code = "UNSUPPORTED_EXTENSION"


class PathNotFound(UnitpackError):
    code = "PATH_NOT_FOUND"

    def __init__(self, message: str, *, resolved_prefix: str = ""):
        super().__init__(message)
        self.resolved_prefix = resolved_prefix


class AmbiguousKey(UnitpackError):
    code = "AMBIGUOUS_KEY"


class SchemaUnsupportedKeyword(UnitpackError):
    code = "SCHEMA_UNSUPPORTED"


class SchemaMalformed(UnitpackError):
    code = "SCHEMA_MALFORMED"


class DirectoryNotFound(UnitpackError):
    code = "DIRECTORY_NOT_FOUND"


# --- tabular -------------------------------------------------------------

class DuplicateColumnName(UnitpackError):
    code = "DUPLICATE_COLUMN"


class RaggedRow(UnitpackError):
    code = "RAGGED_ROW"

    def __init__(self, message: str, *, row_index: int):
        super().__init__(message)
        self.row_index = row_index


class CsvParseError(UnitpackError):
    code = "CSV_PARSE_ERROR"


class LoaderSpecError(UnitpackError):
    code = "LOADER_SPEC_INVALID"


class RenameSourceMissing(UnitpackError):
    code = "RENAME_SOURCE_MISSING"


class HeaderRowOutOfRange(UnitpackError):
    code = "HEADER_ROW_OUT_OF_RANGE"


# --- datapackage ---------------------------------------------------------

class InvalidIdentifier(UnitpackError):
    code = "INVALID_IDENTIFIER"


class FieldSpecUnknownColumn(UnitpackError):
    code = "FIELD_SPEC_UNKNOWN_COLUMN"


class InvalidUnit(UnitpackError):
    code = "INVALID_UNIT"


class RefusedOverwrite(UnitpackError):
    code = "REFUSED_OVERWRITE"


class DescriptorParseError(UnitpackError):
    code = "DESCRIPTOR_PARSE_ERROR"


class SchemaTableMismatch(UnitpackError):
    code = "SCHEMA_TABLE_MISMATCH"


class MissingCsv(UnitpackError):
    code = "MISSING_CSV"


class UnknownField(UnitpackError):
    code = "UNKNOWN_FIELD"


class FieldHasNoUnit(UnitpackError):
    code = "FIELD_HAS_NO_UNIT"


class NonNumericCell(UnitpackError):
    code = "NON_NUMERIC_CELL"


# --- collection ----------------------------------------------------------

class DuplicateIdentifier(UnitpackError):
    code = "DUPLICATE_IDENTIFIER"


class EntryNotFound(UnitpackError):
    code = "NOT_FOUND"


class FetchError(UnitpackError):
    code = "FETCH_ERROR"


class BadArchive(UnitpackError):
    code = "BAD_ARCHIVE"


class PredicateParseError(UnitpackError):
    code = "PREDICATE_PARSE_ERROR"


class CollectionLoadError(UnitpackError):
    code = "COLLECTION_LOAD_ERROR"

    def __init__(self, message: str, *, failures: list[tuple[str, str]] | None = None):
        super().__init__(message)
        self.failures = failures or []


# --- autotag -------------------------------------------------------------

class AlreadyTagged(UnitpackError):
    code = "ALREADY_TAGGED"


class TemplateParseError(UnitpackError):
    code = "TEMPLATE_PARSE_ERROR"


class WatchSetupError(UnitpackError):
    code = "WATCH_SETUP_ERROR"


# --- report --------------------------------------------------------------

class TooFewPoints(UnitpackError):
    code = "TOO_FEW_POINTS"
