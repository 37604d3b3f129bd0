"""What every metadata lookup does with each node shape a dot-path can
reach: a missing path, an ambiguous one (two sibling keys that normalize
alike), a map, a list, a present ``null`` and a scalar.  An absent path
(missing or ambiguous) is never a match and never a value."""

from pathlib import Path

import pytest

from unitpack.collection import (
    OPERATORS,
    Clause,
    Collection,
    Profile,
    describe,
    filter as filter_collection,
)
from unitpack.datapackage import Entry
from unitpack.metadata import MetadataDoc, filter_metadata
from unitpack.report import MISSING, ReportConfig, _descriptor_cells, \
    _group_value

from conftest import material_entry

DOC = {
    "a b": 1, "a_b": 2,
    "m": {"k": 1},
    "l": [1, "x", None],
    "z": None,
    "n": 1,
}

SHAPES = {
    "missing": "no.such.path",
    "ambiguous": "a_b",
    "map": "m",
    "list": "l",
    "null": "z",
    "scalar": "n",
}

ABSENT = ("missing", "ambiguous")


def _entry() -> Entry:
    entry = material_entry("shapes", "Pt")
    return Entry(identifier=entry.identifier, fields=entry.fields,
                 table=entry.table, metadata=MetadataDoc(root=DOC))


def _matches(op: str, value) -> set[str]:
    db = Collection(entries=(_entry(),))
    return {shape for shape, path in SHAPES.items()
            if len(filter_collection(db, Clause(path, op, value))) == 1}


# One literal per operator, and the shapes that match it.  An ordering
# operator never holds for a null, on either side.
@pytest.mark.parametrize("op, value, expected", [
    ("==", None, {"null"}),
    ("!=", None, {"scalar"}),
    ("<=", 1, {"scalar"}),
    (">=", 1, {"scalar"}),
    ("<", 2, {"scalar"}),
    (">", 0, {"scalar"}),
    ("contains", 1, {"list"}),
    ("<", None, set()),
    (">=", None, set()),
    ("contains", 1.0, {"list"}),
])
def test_filter_by_node_shape(op, value, expected):
    assert _matches(op, value) == expected


def test_filter_covers_every_operator():
    assert OPERATORS == ("==", "!=", "<=", ">=", "<", ">", "contains")


@pytest.mark.parametrize("op", OPERATORS)
@pytest.mark.parametrize("value", [None, 0, 1, 2, "x", "null", True])
def test_absent_path_never_matches(op, value):
    assert not _matches(op, value) & set(ABSENT)


def test_describe_by_node_shape():
    profile = Profile(name="shapes", describe_paths=tuple(SHAPES.items()))
    summary = describe(Collection(entries=(_entry(),)), profile)
    assert summary == {
        "number of entries": 1,
        "missing": [], "ambiguous": [], "map": [], "list": [],
        "null": [None], "scalar": [1],
    }


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("expected", [None, 1, 2, "x"])
def test_filter_metadata_by_node_shape(shape, expected):
    docs = [(Path("shapes.meta.yaml"), MetadataDoc(root=DOC))]
    kept = filter_metadata(docs, SHAPES[shape], expected)
    matches = (shape, expected) in {("null", None), ("scalar", 1)}
    assert kept == (docs if matches else [])


def _report_cfg(tmp_path, **overrides) -> ReportConfig:
    return ReportConfig(out_dir=tmp_path, plot_x="t", plot_y="U",
                        **overrides)


def test_descriptor_cells_by_node_shape(tmp_path):
    cfg = _report_cfg(tmp_path, descriptor_columns=tuple(SHAPES.items()))
    assert dict(_descriptor_cells(_entry(), cfg)) == {
        "missing": MISSING, "ambiguous": MISSING,
        "map": '{"k": 1}', "list": '[1, "x", null]',
        "null": "null", "scalar": "1",
    }


@pytest.mark.parametrize("shape, expected", [
    ("missing", "ungrouped"), ("ambiguous", "ungrouped"),
    ("map", "ungrouped"), ("list", "ungrouped"),
    ("null", "null"), ("scalar", "1"),
])
def test_group_value_by_node_shape(tmp_path, shape, expected):
    cfg = _report_cfg(tmp_path, group_by=SHAPES[shape])
    assert _group_value(_entry(), cfg) == expected
