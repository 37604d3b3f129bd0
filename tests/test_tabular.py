import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitpack import tabular
from unitpack.errors import (
    DuplicateColumnName,
    HeaderRowOutOfRange,
    LoaderSpecError,
    RaggedRow,
    RenameSourceMissing,
    SchemaTableMismatch,
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
    assert calls == [demo_paths[0]]


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


def test_bom_tolerated(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbft,U\n0,1\n")
    assert tabular.read_table(path).columns == ("t", "U")


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
    ["1", "23", "0", "١٢", "+", "-", ".", ",", "e", "E", "\n", " ", "_",
     "nan"]), max_size=5).map("".join)
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
    # longer than one chunk of the column match
    ([str(i) for i in range(300)], ".", list(range(300))),
    ([f"{i}.5" for i in range(299)] + ["1."], ".",
     [i + 0.5 for i in range(299)] + ["1."]),
    (["1"] * 200 + ["1\n2"] + ["3"] * 50, ".",
     [1] * 200 + ["1\n2"] + [3] * 50),
])
def test_column_typing_edges(cells, separator, expected):
    got = tabular._typed_column(cells, separator)
    assert _typed(got) == _typed(expected)
    assert _typed(got) == _typed(
        [tabular._typed_cell(cell, separator) for cell in cells])
