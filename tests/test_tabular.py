import csv
import io
import os
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitpack import tabular
from unitpack.errors import (
    CsvParseError,
    DuplicateColumnName,
    HeaderRowOutOfRange,
    LoaderSpecError,
    MetadataParseError,
    RaggedRow,
    RenameSourceMissing,
    SchemaTableMismatch,
    UnitpackError,
)
from unitpack.tabular import LoaderSpec, Table


# -------------------------------
# read_table
# -------------------------------

def test_read_demo_csv(tmp_path, demo_paths):
    table = tabular.read_table(demo_paths[0])
    assert table.columns == ("t", "U", "T")
    assert table.rows[0] == (0, 1.01, 275)
    assert table.row_count == 3


def test_header_only_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("t,U,T\n", encoding="utf-8")
    table = tabular.read_table(path)
    assert table.columns == ("t", "U", "T")
    assert table.row_count == 0


def test_duplicate_column_rejected(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("t,U,U\n0,1,2\n", encoding="utf-8")
    with pytest.raises(DuplicateColumnName):
        tabular.read_table(path)


def test_ragged_row_reports_index(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("t,U\n0,1\n2\n", encoding="utf-8")
    with pytest.raises(RaggedRow) as excinfo:
        tabular.read_table(path)
    assert excinfo.value.row_index == 1
    assert str(excinfo.value).startswith(f"{path}: row 1 ")


def test_table_rejects_ragged_row():
    with pytest.raises(RaggedRow) as excinfo:
        Table(("a", "b"), ((1, 2), (3,)))
    assert excinfo.value.row_index == 1


# -------------------------------
# open_table: header now, rows on first use
# -------------------------------

def test_open_table_parses_rows_once_on_first_use(demo_paths, monkeypatch):
    eager = tabular.read_table(demo_paths[0])
    calls = []
    real = tabular.read_table
    monkeypatch.setattr(tabular, "read_table",
                        lambda path: calls.append(path) or real(path))
    table = tabular.open_table(demo_paths[0])
    assert table.columns == eager.columns
    assert calls == []
    assert table == eager and eager == table
    assert hash(table) == hash(eager)
    assert table.row_count == 3
    assert calls == [str(demo_paths[0])]


def test_open_table_raises_body_errors_on_each_use(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("t,U\n0,1\n2\n", encoding="utf-8")
    table = tabular.open_table(path)
    assert table.columns == ("t", "U")
    for _ in range(2):
        with pytest.raises(RaggedRow) as excinfo:
            table.rows
        assert excinfo.value.row_index == 1
        assert str(path) in str(excinfo.value)


def test_open_table_header_changed_before_first_use(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("t,U\n0,1\n", encoding="utf-8")
    table = tabular.open_table(path)
    path.write_text("t,V\n0,1\n", encoding="utf-8")
    with pytest.raises(SchemaTableMismatch):
        table.rows


def test_write_table_over_its_own_lazy_source(demo_paths):
    eager = tabular.read_table(demo_paths[0])
    tabular.write_table(tabular.open_table(demo_paths[0]), demo_paths[0])
    assert tabular.read_table(demo_paths[0]) == eager


# -------------------------------
# open_table splits a plain header itself; it must agree with csv
# -------------------------------

def _header_outcome(read, path):
    """The columns of `read(path)`, or its error's type, code and
    message."""
    try:
        return read(path).columns
    except UnitpackError as exc:
        return type(exc), exc.code, str(exc)


def _csv_open(path):
    """`open_table` as `csv` alone reads the header: its first row."""
    with tabular._csv_source(path) as handle:
        return Table(tuple(tabular._header(csv.reader(handle))))


def _both_headers(tmp_path, data: bytes):
    path = tmp_path / "t.csv"
    path.write_bytes(data)
    return (_header_outcome(tabular.open_table, path),
            _header_outcome(_csv_open, path))


_BLOCK = tabular._FIRST_BLOCK


def _at(offset, data):
    """A two-column CSV whose bytes from `offset` on are `data`, inside a
    cell of its last row, then a line end."""
    head = b"t,U\n" + b"0,1\n" * ((offset - 8) // 4) + b"0,"
    return head + b"9" * (offset - len(head)) + data + b"\n"


@pytest.mark.parametrize("data", [
    b"t,U\n0,1\n", b"\xef\xbb\xbft,U\n0,1\n", b"t,U\r\n0,1\r\n",
    b"t,U\r0,1\n", b'"t,x",U\n0,1\n', b'"t""",U\n', b't"x,U\n',
    b" t , U \n0,1\n", b"t,,U\n0,,1\n", b"t,U,\n0,1,\n",
    b"Spannung/\xc2\xb5V,\xe6\x99\x82\n1,2\n", b"t,U\x0c\x85\n",
    b"\nt,U\n0,1\n", b"\xef\xbb\xbf\nt,U\n", b"\r\nt,U\n", b"", b"\n",
    b"t,U", b"\xef\xbb\xbft,U", b"t," + b"x" * _BLOCK + b"\n0,1\n",
    b"t," + b"x" * (_BLOCK - 4) + b"\n0,1\n",
    b"t,\0U\n0,1\n", b"t,t\n0,1\n", b"t,\xffU\n0,1\n",
    _at(_BLOCK - 1, b"\xff"), _at(_BLOCK, b"\xff"),
    _at(_BLOCK - 1, "\u20ac".encode()), _at(_BLOCK - 3, "\u20ac".encode()),
    _at(_BLOCK - 2, b"\xe2\x82"),
], ids=["plain", "bom", "crlf", "lone-cr", "quoted", "doubled-quote",
        "inner-quote", "spaces", "empty-fields", "trailing-comma",
        "unicode", "unicode-breaks", "empty-first-line",
        "bom-empty-first-line", "crlf-empty-first-line", "empty-file",
        "newline-only", "header-only-unterminated", "bom-unterminated",
        "header-longer-than-block", "header-fills-block", "nul",
        "duplicate-column", "bad-byte-in-header", "bad-byte-at-8191",
        "bad-byte-at-8192", "euro-straddles-8192", "euro-ends-the-block",
        "cut-euro-straddles-8192"])
def test_open_table_header_equals_csv(tmp_path, data):
    direct, via_csv = _both_headers(tmp_path, data)
    assert direct == via_csv


def test_open_table_defers_only_errors_past_the_first_block(tmp_path):
    # The first block is the chunk that `open` decodes first: a bad byte
    # in it fails the load, and one past it fails on first use.
    path = tmp_path / "t.csv"
    path.write_bytes(_at(_BLOCK - 1, b"\xff"))
    with pytest.raises(CsvParseError, match="not UTF-8 text"):
        tabular.open_table(path)
    path.write_bytes(_at(_BLOCK, b"\xff"))
    table = tabular.open_table(path)
    assert table.columns == ("t", "U")
    with pytest.raises(CsvParseError, match="not UTF-8 text"):
        table.rows


# "\udcff" is written as the byte 0xff, which does not decode.
@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="tU0, \"\r\n\0\x0c\x85\ufeff\u00b5\udcff",
               max_size=12))
def test_open_table_header_equals_csv_on_generated_text(tmp_path_factory,
                                                         text):
    data = text.encode("utf-8", "surrogateescape")
    direct, via_csv = _both_headers(tmp_path_factory.mktemp("head"), data)
    assert direct == via_csv


def test_open_table_header_past_the_field_limit_is_csvs_error(tmp_path):
    limit = csv.field_size_limit(3)
    try:
        direct, via_csv = _both_headers(tmp_path, b"time,U\n0,1\n")
    finally:
        csv.field_size_limit(limit)
    assert direct == via_csv
    assert direct[1] == "CSV_PARSE_ERROR"


def test_a_plain_header_is_read_without_csv(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("csv.reader called")

    monkeypatch.setattr(tabular.csv, "reader", refuse)
    path = tmp_path / "t.csv"
    for data, columns in [(b"t,U\n0,1\n", ("t", "U")),
                          (b"\xef\xbb\xbft,U\n", ("t", "U")),
                          (b" t ,,U\n", (" t ", "", "U")),
                          (b"t,U,\n", ("t", "U", "")),
                          (_at(_BLOCK, b"\xff"), ("t", "U"))]:
        path.write_bytes(data)
        assert tabular.open_table(path).columns == columns


def test_table_is_immutable():
    table = Table(columns=("t",), rows=((1,),))
    with pytest.raises(AttributeError):
        table.columns = ("u",)


def test_quoted_fields_and_embedded_commas(tmp_path):
    path = tmp_path / "quoted.csv"
    path.write_text('name,note\nx,"a, b"\ny,"line1\nline2"\n',
                    encoding="utf-8")
    table = tabular.read_table(path)
    assert table.rows[0] == ("x", "a, b")
    assert table.rows[1] == ("y", "line1\nline2")


def test_cell_typing_rules(tmp_path):
    path = tmp_path / "typed.csv"
    path.write_text("a,b,c,d,e,f\n1,1.5,-2e3,NaN,inf,\n", encoding="utf-8")
    row = tabular.read_table(path).rows[0]
    assert row == (1, 1.5, -2000.0, "NaN", "inf", None)
    assert isinstance(row[0], int) and isinstance(row[1], float)


@pytest.mark.parametrize("separator", [".", ","])
@pytest.mark.parametrize("text, expected", [
    ("1\n", 1),  # `$` also matches before a trailing newline
    ("1.", "1."),
    ("+.5e-3", 0.0005),
    ("E5", "E5"),
    ("١٢", 12),
    ("1_0", "1_0"),
    (" 1", " 1"),
])
def test_cell_typing_edges(text, expected, separator):
    got = tabular._typed_cell(text, separator)
    assert (type(got), got) == (type(expected), expected)


def test_bom_tolerated(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbft,U\n0,1\n")
    assert tabular.read_table(path).columns == ("t", "U")


def test_undecodable_header_is_csv_parse_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"t,\xff\n0,1\n")
    for read in (tabular.read_table, tabular.open_table):
        with pytest.raises(CsvParseError, match="not UTF-8 text") as excinfo:
            read(path)
        assert str(path) in str(excinfo.value)


def test_undecodable_body_fails_on_first_use(tmp_path):
    # The decoder reads ahead, so the bad byte sits well past its first
    # chunk: only then is the header readable on its own.
    path = tmp_path / "bad.csv"
    path.write_bytes(b"t,U\n" + b"0,1\n" * 20_000 + b"1,\xff\n")
    table = tabular.open_table(path)
    assert table.columns == ("t", "U")
    with pytest.raises(CsvParseError) as excinfo:
        table.rows
    assert str(path) in str(excinfo.value)
    assert "position" not in str(excinfo.value)  # it would count per chunk


def test_oversized_field_is_csv_parse_error(tmp_path):
    path = tmp_path / "big.csv"
    path.write_text("t,U\n0," + "9" * 200_000 + "\n", encoding="utf-8")
    with pytest.raises(CsvParseError, match="field larger than field limit"):
        tabular.read_table(path)


def test_loader_maps_undecodable_and_oversized_input(tmp_path):
    path = tmp_path / "wild.txt"
    path.write_bytes(b"t;U\n0;\xff\n")
    with pytest.raises(CsvParseError) as excinfo:
        tabular.apply_loader(path, LoaderSpec(delimiter=";"))
    assert str(path) in str(excinfo.value)
    path.write_text("t;U\n0;" + "9" * 200_000 + "\n", encoding="utf-8")
    with pytest.raises(CsvParseError, match="field larger than field limit"):
        tabular.apply_loader(path, LoaderSpec(delimiter=";"))


def test_undecodable_loader_spec_is_parse_error(tmp_path):
    path = tmp_path / "loader.yaml"
    path.write_bytes(b"delimiter: \"\xff\"\n")
    with pytest.raises(MetadataParseError, match="not UTF-8") as excinfo:
        tabular.load_loader_spec(path)
    assert str(path) in str(excinfo.value)


# -------------------------------
# read_table splits plain text itself; it must agree with csv
# -------------------------------

def _outcome(read, path):
    """What `read(path)` gives: its columns and typed cells, or its
    error's type, code, message and row index."""
    try:
        table = read(path)
    except UnitpackError as exc:
        return (type(exc), exc.code, str(exc),
                getattr(exc, "row_index", None))
    return table.columns, tuple(_typed(column) for column in table._body())


def _csv_read(path):
    """`read_table` as `csv` alone reads the file."""
    with tabular._csv_source(path) as handle:
        return tabular._table_from_csv_rows(csv.reader(handle))


def _both_reads(tmp_path, text, bom=False):
    path = tmp_path / "t.csv"
    path.write_bytes(("\ufeff" * bom + text).encode("utf-8"))
    return _outcome(tabular.read_table, path), _outcome(_csv_read, path)


# cell text, the characters csv treats specially, and line breaks that
# `str.splitlines` would split at but csv does not
_plain_chars = "0123456789-.e aZ"
_odd_chars = ',\n\r"\0\x0b\x0c\x1c\x85\u2028'


@st.composite
def _csv_texts(draw):
    if draw(st.booleans()):
        return draw(st.text(alphabet=_plain_chars + _odd_chars, max_size=30))
    width = draw(st.integers(min_value=1, max_value=4))
    cell = st.text(alphabet=_plain_chars, max_size=4) | st.text(
        alphabet=_plain_chars + _odd_chars, min_size=1, max_size=2)
    lines = draw(st.lists(st.integers(min_value=width - 1,
                                      max_value=width + 1).flatmap(
        lambda n: st.lists(cell, min_size=n, max_size=n).map(",".join)),
        min_size=1, max_size=6))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"]))


@settings(max_examples=400, deadline=None)
@given(_csv_texts(), st.booleans())
def test_read_table_equals_csv_on_generated_text(tmp_path_factory, text,
                                                  bom):
    direct, via_csv = _both_reads(tmp_path_factory.mktemp("split"), text,
                                  bom)
    assert direct == via_csv


def _long_column(odd):
    """3000 rows of an int column and a float column of alike cells, but
    for `odd` in the float column deep down."""
    return "t,U\n" + "".join(f"{i},{odd if i == 2718 else f'{i % 997}.25'}\n"
                             for i in range(3000))


# ints and floats in each column
_MIXED_NUMBERS = "a,b\n" + "".join(
    f"{i},{i}.5\n" if i % 3 else f"{i}.5,{i}\n" for i in range(300))
# every line a shape of its own, and one odd cell
_DISTINCT_LINES = "a,b\n" + "".join(
    f"{'9' * i},{'8' * i}.5\n" if i != 30 else "x,1e999\n"
    for i in range(1, 60))


@pytest.mark.parametrize("text", [
    "t,U\n", "t,U",  # header only, with and without a final newline
    "t,U\n0,1\n2,3",  # no final newline
    "a\n1\n\n2\n\n",  # one column with blank lines
    "a\n1\x0c2\n3\x852\n4\u20285\n",  # line breaks csv does not split at
    "a\n" + "7" * 131_072 + "\n",  # a field of the largest size
    "1,2\n3,4\n5,6.5\n7,8.5\n9,1.5\n",  # the header has a row's shape
    "t,U\r\n0,1.5\r\n1,x\r\n",  # Windows line ends
    "t,U\r\n0,1\n2,3\r\n4,5",  # both line ends, no final one
    "a\r\n1\r2\r\n",  # a lone "\r", which csv must read
    _long_column("1e999"), _long_column("nan"), _long_column(""),
    _long_column("1" * 5000),
    _MIXED_NUMBERS, _DISTINCT_LINES,
], ids=["header-only", "header-only-unterminated", "unterminated",
        "one-column-blank-lines", "unicode-breaks", "field-at-limit",
        "header-shaped-as-a-row", "crlf", "crlf-and-lf", "lone-cr",
        "odd-overflow", "odd-nan", "odd-empty", "odd-5000-digits",
        "mixed-numbers", "distinct-lines"])
def test_read_table_equals_csv_at_the_edges(tmp_path, text):
    direct, via_csv = _both_reads(tmp_path, text)
    assert direct == via_csv
    assert isinstance(direct[0], tuple)  # a table, not an error


@pytest.mark.parametrize("text", [
    "", "\n", "\nt,U\n0,1\n", "t,U\n\n0,1\n", "t,U\n0,1\n\n",
    "t,U\r\n\r\n0,1\r\n", "t\n0\n\n1"])
def test_a_blank_line_is_left_to_csv(tmp_path, text):
    assert tabular._split_table(io.StringIO(text)) is None
    direct, via_csv = _both_reads(tmp_path, text)
    assert direct == via_csv


def test_plain_text_is_read_without_csv(tmp_path, monkeypatch):
    monkeypatch.setattr(tabular.csv, "reader", None)
    for line_end in "\n", "\r\n":
        path = tmp_path / "t.csv"
        path.write_bytes(line_end.join(["t,U", "0,1.5", "1,x", ""]).encode())
        assert tabular.read_table(path) == Table(("t", "U"),
                                                 ((0, 1.5), (1, "x")))


@pytest.mark.parametrize("text", [
    _long_column("nan"), _MIXED_NUMBERS, "t,U\n0,1\n"],
    ids=["long-column", "mixed-numbers", "one-row"])
def test_columns_are_typed_from_the_row_shapes(tmp_path, monkeypatch, text):
    given_shapes = []
    typed_column = tabular._typed_column

    def spy(cells, decimal_separator=".", shapes=None):
        given_shapes.append(shapes is not None)
        return typed_column(cells, decimal_separator, shapes)

    monkeypatch.setattr(tabular, "_typed_column", spy)
    path = tmp_path / "t.csv"
    path.write_text(text, encoding="utf-8")
    tabular.read_table(path)
    assert given_shapes == [True] * 2


# cells that a long column repeats: numbers, and text on the edges of
# the number rule
_pool_cells = st.one_of(
    st.integers().map(str), st.floats(allow_nan=False).map(repr),
    st.sampled_from(["", "nan", "1e999", "x", "1.", "\u0661\u0662", "-",
                     "1_0", " 1", "\u00b5", "\x0c", "\r"]))


@st.composite
def _long_csv_texts(draw):
    """Up to 400 rows whose cells each column draws from a pool of at
    most three, so that line shapes repeat."""
    pools = draw(st.lists(st.lists(_pool_cells, min_size=1, max_size=3),
                          min_size=1, max_size=3))
    rng = draw(st.randoms(use_true_random=False))
    lines = [",".join(rng.choice(pool) for pool in pools)
             for _ in range(draw(st.integers(0, 400)))]
    header = ",".join(f"c{i}" for i in range(len(pools)))
    if draw(st.booleans()):  # a header that may share the rows' shapes
        header = ",".join(rng.choice(pool) for pool in pools)
    line_end = draw(st.sampled_from(["\n", "\r\n"]))
    return line_end.join([header, *lines]) + draw(
        st.sampled_from(["", line_end]))


@settings(max_examples=200, deadline=None)
@given(_long_csv_texts())
def test_read_table_equals_csv_on_long_tables(tmp_path_factory, text):
    direct, via_csv = _both_reads(tmp_path_factory.mktemp("long"), text)
    assert direct == via_csv


def test_ragged_row_after_blank_lines_counts_them(tmp_path):
    direct, via_csv = _both_reads(tmp_path, "a,b\n1,2\n\n\n3\n")
    assert direct == via_csv
    assert direct[1:] == ("RAGGED_ROW", direct[2], 3)
    assert direct[2].endswith(": row 3 has 1 cells, expected 2")


def test_line_past_the_field_limit_is_csv_parse_error(tmp_path):
    direct, via_csv = _both_reads(tmp_path, "a\n" + "7" * 131_073 + "\n")
    assert direct == via_csv
    assert direct[1] == "CSV_PARSE_ERROR"
    assert "field larger than field limit (131072)" in direct[2]


def test_ragged_row_before_an_undecodable_byte_is_reported_first(tmp_path):
    # csv reads the file as it decodes it, so an error in an early row
    # comes before a bad byte a few decoding chunks on.
    path = tmp_path / "bad.csv"
    path.write_bytes(b"t,U\n0,1\n2\n" + b"0,1\n" * 20_000 + b"1,\xff\n")
    with pytest.raises(RaggedRow) as excinfo:
        tabular.read_table(path)
    assert excinfo.value.row_index == 1


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs a FIFO")
@pytest.mark.parametrize("body, error", [
    (b"t,U\n0,1.5\n1,x\n", None),
    # a pipe is read once, by csv as it decodes, so here too the ragged
    # row comes before the bad byte a few decoding chunks on
    (b"t,U\n0,1\n2\n" + b"0,1\n" * 20_000 + b"1,\xff\n",
     ("RAGGED_ROW", 1)),
], ids=["plain", "ragged-before-bad-byte"])
def test_read_table_from_a_pipe_equals_from_a_file(tmp_path, body, error):
    path, fifo = tmp_path / "t.csv", tmp_path / "pipe.csv"
    path.write_bytes(body)
    os.mkfifo(fifo)

    def feed():
        try:
            with open(fifo, "wb") as pipe:
                pipe.write(body)
        except BrokenPipeError:  # the reader stopped at its error
            pass

    feeder = threading.Thread(target=feed, daemon=True)
    feeder.start()
    try:
        from_pipe = _outcome(tabular.read_table, fifo)
    finally:
        feeder.join(timeout=10)
    assert not feeder.is_alive()
    from_file = _outcome(tabular.read_table, path)
    assert (repr(from_pipe).replace(str(fifo), "CSV")
            == repr(from_file).replace(str(path), "CSV"))
    if error is None:
        assert from_pipe[0] == ("t", "U")
    else:
        assert from_pipe[1::2] == error  # its code and row index


# -------------------------------
# write_table
# -------------------------------

def test_write_read_roundtrip(tmp_path):
    table = Table(columns=("t", "note", "x"),
                  rows=((0, "plain", 1.25), (1, "with, comma", None),
                        (2, 'quo"te', -3.5e-7)))
    path = tmp_path / "out.csv"
    tabular.write_table(table, path)
    assert tabular.read_table(path) == table


def test_comma_cell_is_quoted(tmp_path):
    table = Table(columns=("note",), rows=(("a, b",),))
    path = tmp_path / "q.csv"
    tabular.write_table(table, path)
    assert '"a, b"' in path.read_text(encoding="utf-8")


def test_zero_row_table_writes_header_only(tmp_path):
    table = Table(columns=("t", "U"), rows=())
    path = tmp_path / "zero.csv"
    tabular.write_table(table, path)
    assert path.read_text(encoding="utf-8") == "t,U\n"


# -------------------------------
# LoaderSpec + apply_loader
# -------------------------------

WILD_FILE = """Device: Frobulator 3000
Operator: MD
Started: 09:00
voltage [mV],temp
1.5,275
2.5,275
3.5,276
END OF RUN
STATUS OK
"""


def test_loader_standardizes_wild_file(tmp_path):
    path = tmp_path / "wild.txt"
    path.write_text(WILD_FILE, encoding="utf-8")
    spec = LoaderSpec(header_row=3, skip_footer=2,
                      rename={"voltage [mV]": "U"})
    table = tabular.apply_loader(path, spec)
    assert table.columns == ("U", "temp")
    # oracle: manual line count (3 preamble + header + 3 data + 2 footer)
    assert table.row_count == 3
    assert table.column_values("U") == (1.5, 2.5, 3.5)


def test_default_spec_equals_read_table(tmp_path, demo_paths):
    direct = tabular.read_table(demo_paths[0])
    assert tabular.apply_loader(demo_paths[0], LoaderSpec()) == direct


@pytest.mark.parametrize("separator", ["\x0c", "\x1e", "\x85", "\u2028"],
                         ids=["FF", "RS", "NEL", "LS"])
@pytest.mark.parametrize("quoted", [False, True], ids=["bare", "quoted"])
def test_default_spec_keeps_cells_with_unicode_line_breaks(
        tmp_path, separator, quoted):
    cell = f"c{separator}d"
    path = tmp_path / "odd.csv"
    path.write_text("a,b\n1,{}\n".format(f'"{cell}"' if quoted else cell),
                    encoding="utf-8")
    direct = tabular.read_table(path)
    assert direct.rows == ((1, cell),)
    assert tabular.apply_loader(path, LoaderSpec()) == direct


def test_loader_preserves_cell_values(tmp_path):
    path = tmp_path / "wild.txt"
    path.write_text(WILD_FILE, encoding="utf-8")
    spec = LoaderSpec(header_row=3, skip_footer=2,
                      rename={"voltage [mV]": "U"})
    table = tabular.apply_loader(path, spec)
    source_numbers = sorted([1.5, 275, 2.5, 275, 3.5, 276])
    loaded = sorted(c for row in table.rows for c in row)
    assert loaded == source_numbers


def test_comment_prefix_lines_dropped(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("# setup note\nt,U\n# mid comment\n0,1\n",
                    encoding="utf-8")
    table = tabular.apply_loader(path, LoaderSpec(comment_prefix="#"))
    assert table.row_count == 1


def test_decimal_comma(tmp_path):
    path = tmp_path / "de.csv"
    path.write_text("t;U\n0;1,5\n1;2,25\n", encoding="utf-8")
    spec = LoaderSpec(delimiter=";", decimal_separator=",")
    table = tabular.apply_loader(path, spec)
    assert table.column_values("U") == (1.5, 2.25)


def test_header_row_out_of_range(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("t,U\n0,1\n", encoding="utf-8")
    with pytest.raises(HeaderRowOutOfRange):
        tabular.apply_loader(path, LoaderSpec(header_row=5))


def test_rename_source_missing(tmp_path, demo_paths):
    with pytest.raises(RenameSourceMissing):
        tabular.apply_loader(demo_paths[0], LoaderSpec(rename={"nope": "U"}))


def test_spec_validation():
    with pytest.raises(LoaderSpecError):
        LoaderSpec(delimiter=",", decimal_separator=",")
    with pytest.raises(LoaderSpecError):
        LoaderSpec(rename={"a": "X", "b": "X"})
    with pytest.raises(LoaderSpecError):
        LoaderSpec(delimiter="")
    with pytest.raises(LoaderSpecError):
        LoaderSpec(skip_footer=-1)


@pytest.mark.parametrize("kwargs, message", [
    ({"delimiter": 5}, "delimiter must be of type str, got 5"),
    ({"decimal_separator": None},
     "decimal_separator must be of type str, got None"),
    ({"header_row": "3"}, "header_row must be of type int, got '3'"),
    ({"skip_footer": True}, "skip_footer must be of type int, got True"),
    ({"rename": None}, "rename must be of type dict, got None"),
    ({"rename": {"a": 1}}, "rename must map strings to strings"),
    ({"comment_prefix": 5}, "comment_prefix must be of type str, got 5"),
])
def test_loader_spec_checks_types_before_values(kwargs, message):
    with pytest.raises(LoaderSpecError) as excinfo:
        LoaderSpec(**kwargs)
    assert str(excinfo.value) == message
    assert excinfo.value.code == "LOADER_SPEC_INVALID"


def test_load_loader_spec_file(tmp_path):
    path = tmp_path / "loader.yaml"
    path.write_text(
        'delimiter: ","\ndecimal_separator: "."\nheader_row: 3\n'
        'skip_footer: 2\ncomment_prefix: "#"\nrename:\n'
        '  "voltage [mV]": "U"\n', encoding="utf-8")
    spec = tabular.load_loader_spec(path)
    assert spec.header_row == 3
    assert spec.skip_footer == 2
    assert spec.rename == {"voltage [mV]": "U"}
    bad = tmp_path / "bad.yaml"
    bad.write_text("unknown_key: 1\n", encoding="utf-8")
    with pytest.raises(LoaderSpecError):
        tabular.load_loader_spec(bad)


@pytest.mark.parametrize("body", [
    "header_row: abc", "header_row: 1.7", "header_row: true",
    "skip_footer: [1]", "delimiter: 5", "comment_prefix: 5",
    "decimal_separator: false", "rename: [a]", "rename: {a: 1}",
])
def test_load_loader_spec_checks_value_types(tmp_path, body):
    path = tmp_path / "loader.yaml"
    path.write_text(body + "\n", encoding="utf-8")
    with pytest.raises(LoaderSpecError):
        tabular.load_loader_spec(path)


def test_load_loader_spec_null_means_default(tmp_path):
    path = tmp_path / "loader.yaml"
    path.write_text("".join(f"{key}: null\n" for key in (
        "delimiter", "decimal_separator", "header_row", "skip_footer",
        "rename", "comment_prefix")), encoding="utf-8")
    assert tabular.load_loader_spec(path) == LoaderSpec()


@pytest.mark.parametrize("body, message", [
    ('decimal_separator: ";"',
     "decimal_separator must be '.' or ',', got ';'"),
    ("header_row: -1", "header_row must be >= 0"),
    ('comment_prefix: ""', "comment_prefix must be non-empty if set"),
])
def test_load_loader_spec_checks_values(tmp_path, body, message):
    path = tmp_path / "loader.yaml"
    path.write_text(body + "\n", encoding="utf-8")
    with pytest.raises(LoaderSpecError) as excinfo:
        tabular.load_loader_spec(path)
    assert str(excinfo.value) == message
    assert excinfo.value.code == "LOADER_SPEC_INVALID"


@pytest.mark.parametrize("text", ["", "\n", "# nothing set\n"])
def test_empty_loader_spec_file_is_the_default(tmp_path, text):
    path = tmp_path / "loader.yaml"
    path.write_text(text, encoding="utf-8")
    assert tabular.load_loader_spec(path) == LoaderSpec()


def test_loader_ragged_row_names_the_file(tmp_path):
    path = tmp_path / "ragged.txt"
    path.write_text("t,U\n0,1\n2\n", encoding="utf-8")
    with pytest.raises(RaggedRow) as excinfo:
        tabular.apply_loader(path, LoaderSpec())
    assert excinfo.value.row_index == 1
    assert str(excinfo.value).startswith(f"{path}: row 1 ")


def test_load_loader_spec_rejects_aliases(tmp_path):
    path = tmp_path / "loader.yaml"
    path.write_text('delimiter: &d ","\nrename:\n  a: *d\n', encoding="utf-8")
    with pytest.raises(MetadataParseError) as excinfo:
        tabular.load_loader_spec(path)
    assert str(path) in str(excinfo.value)
    assert "line 3, column 6" in str(excinfo.value)


# -------------------------------
# round-trip property
# -------------------------------

_names = st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1,
                 max_size=8)
# strings that cannot be mistaken for numbers or empty cells
_safe_text = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz ,\"'\n", min_size=1, max_size=12
).filter(lambda s: s.strip() != "")
_cells = st.one_of(st.none(),
                   st.integers(min_value=-10**6, max_value=10**6),
                   st.floats(allow_nan=False, allow_infinity=False),
                   _safe_text)


@st.composite
def tables(draw):
    columns = draw(st.lists(_names, min_size=1, max_size=5, unique=True))
    n_rows = draw(st.integers(min_value=0, max_value=8))
    rows = tuple(tuple(draw(_cells) for _ in columns) for _ in range(n_rows))
    return Table(columns=tuple(columns), rows=rows)


@settings(max_examples=150, deadline=None)
@given(tables())
def test_roundtrip_property(tmp_path_factory, table):
    path = tmp_path_factory.mktemp("rt") / "t.csv"
    tabular.write_table(table, path)
    assert tabular.read_table(path) == table


# -------------------------------
# column typing: the per-cell rule, a column at a time
# -------------------------------

def _typed(cells):
    return [(type(cell), cell) for cell in cells]


# pieces on every edge of the number rule: signs, separators, exponents,
# line breaks, spaces, underscores, non-ASCII digits and sentinels
_number_like = st.lists(st.sampled_from(
    ["1", "23", "0", "١٢", "１", "+", "-", ".", ",", "e", "E", "\n", " ",
     "_", "nan"]), max_size=5).map("".join)
_numbers = st.one_of(st.integers().map(str),
                     st.floats(allow_nan=False).map(repr),
                     st.floats(allow_nan=False).map(repr).map(
                         lambda s: s.replace(".", ",")))
# ints with line breaks inside or at the end of a cell
_broken_ints = st.lists(st.integers().map(str), min_size=1, max_size=3).map(
    "\n".join) | st.integers().map("{}\n".format)
_column_cells = st.one_of(
    st.lists(st.integers().map(str), max_size=6),
    st.lists(st.floats(allow_nan=False).map(repr), max_size=6),
    st.lists(st.integers().map(str) | _broken_ints, max_size=6),
    st.lists(st.one_of(_numbers, _number_like,
                       st.sampled_from(["nan", "1.", "1\n", "١٢", ""])),
             max_size=6))


@settings(max_examples=300, deadline=None)
@given(_column_cells, st.sampled_from([".", ","]))
def test_column_typing_equals_cell_typing(cells, separator):
    expected = [tabular._typed_cell(cell, separator) for cell in cells]
    assert _typed(tabular._typed_column(cells, separator)) == \
        _typed(expected)


@pytest.mark.parametrize("cells, separator, expected", [
    (["1\n"], ".", [1]),
    (["1\n", "2"], ".", [1, 2]),
    (["2.5\n", "1.5"], ".", [2.5, 1.5]),
    (["1\n2", "3"], ".", ["1\n2", 3]),
    (["1."], ".", ["1."]),
    (["١٢", "3"], ".", [12, 3]),
    (["0", "0.5"], ".", [0, 0.5]),
    (["", "1", ""], ".", [None, 1, None]),
    (["nan", "1.5"], ".", ["nan", 1.5]),
    (["1_0", "2"], ".", ["1_0", 2]),
    (["1,5", "-2e3"], ",", [1.5, -2000.0]),
    (["1.5", "2"], ",", [1.5, 2]),
    ([], ".", []),
    # long columns, all alike or with one odd cell
    ([str(i) for i in range(300)], ".", list(range(300))),
    ([f"{i}.5" for i in range(299)] + ["1."], ".",
     [i + 0.5 for i in range(299)] + ["1."]),
    (["1"] * 200 + ["1\n2"] + ["3"] * 50, ".",
     [1] * 200 + ["1\n2"] + [3] * 50),
    # a number that does not fit stays its text
    (["1e999", "1.5"], ".", ["1e999", 1.5]),
    (["-1e400", "2.5e3"], ".", ["-1e400", 2500.0]),
    (["1,5e999", "1,5"], ",", ["1,5e999", 1.5]),
    (["1" * 5000, "2"], ".", ["1" * 5000, 2]),
    (["9" * 400 + ".5", "1e308"], ".", ["9" * 400 + ".5", 1e308]),
    # a line break between two numbers keeps the cell text
    (["1.5\n2.5", "3.5"], ".", ["1.5\n2.5", 3.5]),
    # digits beyond ASCII keep their shape; `\d` still judges them
    (["١.٥", "1.5"], ".", [1.5, 1.5]),
    (["１２", "3"], ".", [12, 3]),
    (["１.５", "2.5e1"], ".", [1.5, 25.0]),
    # a sign, point or exponent mark alone is text
    (["."], ".", ["."]),
    (["e", "1e5"], ".", ["e", 1e5]),
    (["-", "-1"], ".", ["-", -1]),
    # many alike cells, then one odd cell
    ([f"{i % 10}.5" for i in range(1000)] + ["1."], ".",
     [i % 10 + 0.5 for i in range(1000)] + ["1."]),
])
def test_column_typing_edges(cells, separator, expected):
    got = tabular._typed_column(cells, separator)
    assert _typed(got) == _typed(expected)
    assert _typed(got) == _typed(
        [tabular._typed_cell(cell, separator) for cell in cells])


# -------------------------------
# the table's views: rows, columns, counts, equality
# -------------------------------

@st.composite
def columns_and_rows(draw):
    columns = tuple(draw(st.lists(_names, min_size=1, max_size=5,
                                  unique=True)))
    n_rows = draw(st.integers(min_value=0, max_value=8))
    rows = tuple(tuple(draw(_cells) for _ in columns) for _ in range(n_rows))
    return columns, rows


@settings(max_examples=150, deadline=None)
@given(columns_and_rows())
def test_views_agree_built_opened_and_read(tmp_path_factory, drawn):
    columns, rows = drawn
    built = Table(columns=columns, rows=rows)
    path = tmp_path_factory.mktemp("views") / "t.csv"
    tabular.write_table(built, path)
    tables = [built, tabular.open_table(path), tabular.read_table(path)]
    for table in tables:
        assert table.columns == columns
        assert table.rows == rows
        for index, name in enumerate(columns):
            assert table.column_values(name) == \
                tuple(row[index] for row in rows)
        assert table.row_count == len(rows)
    assert tables[0] == tables[1] == tables[2]
    assert len(set(map(hash, tables))) == 1


def test_rename_of_a_header_only_file(tmp_path):
    path = tmp_path / "wild.csv"
    path.write_text("Time;Voltage\n", encoding="utf-8")
    spec = LoaderSpec(delimiter=";", rename={"Voltage": "U"})
    table = tabular.apply_loader(path, spec)
    assert table == Table(columns=("Time", "U"), rows=())
    assert table.rows == ()
    assert table.column_values("U") == ()
    assert table.row_count == 0


def test_a_table_with_no_columns_has_no_rows(tmp_path):
    table = Table((), ((),) * 3)
    assert table.row_count == 0
    assert table.rows == ()
    path = tmp_path / "t.csv"
    tabular.write_table(table, path)
    assert tabular.read_table(path) == table
