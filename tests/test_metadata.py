import datetime
import json

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from unitpack import metadata
from unitpack.errors import (
    AmbiguousKey,
    DirectoryNotFound,
    DuplicateKey,
    MetadataParseError,
    PathNotFound,
    SchemaMalformed,
    SchemaUnsupportedKeyword,
    UnsupportedExtension,
)

USER_SCHEMA = {
    "type": "object",
    "required": ["user"],
    "properties": {"user": {"type": "string"}},
}


# -------------------------------
# load_document
# -------------------------------

def test_load_yaml_document(tmp_path):
    path = tmp_path / "meta.yaml"
    path.write_text("user: Max Doe\ncurrent: 5 mA\n", encoding="utf-8")
    doc = metadata.load_document(path)
    assert doc.root["user"] == "Max Doe"


def test_load_empty_map(tmp_path):
    path = tmp_path / "meta.json"
    path.write_text("{}", encoding="utf-8")
    assert metadata.load_document(path).root == {}


def test_duplicate_key_rejected(tmp_path):
    path = tmp_path / "meta.yaml"
    path.write_text("user: a\nuser: b\n", encoding="utf-8")
    with pytest.raises(DuplicateKey):
        metadata.load_document(path)
    jpath = tmp_path / "meta.json"
    jpath.write_text('{"user": "a", "user": "b"}', encoding="utf-8")
    with pytest.raises(DuplicateKey):
        metadata.load_document(jpath)


def test_parse_error_carries_position(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("user: [unclosed\n", encoding="utf-8")
    with pytest.raises(MetadataParseError) as excinfo:
        metadata.load_document(path)
    assert "line" in str(excinfo.value)


def test_json_parse_error_position():
    with pytest.raises(MetadataParseError) as excinfo:
        metadata.parse_json("{")
    assert (excinfo.value.line, excinfo.value.column) == (1, 2)
    assert str(excinfo.value).endswith("(line 1, column 2)")


@pytest.mark.parametrize("name", ["meta.yaml", "meta.json"])
def test_undecodable_document_is_parse_error(tmp_path, name):
    path = tmp_path / name
    path.write_bytes(b'{"user": "\xff"}\n')
    with pytest.raises(MetadataParseError, match="not UTF-8") as excinfo:
        metadata.load_document(path)
    assert excinfo.value.code == "PARSE_ERROR"
    assert str(path) in str(excinfo.value)


def test_yaml_alias_rejected_with_position():
    with pytest.raises(MetadataParseError) as excinfo:
        metadata.parse_yaml("a: &x [1, 2]\nb: [*x, *x]\n")
    assert (excinfo.value.code, excinfo.value.line, excinfo.value.column) \
        == ("PARSE_ERROR", 2, 5)


def test_nested_aliases_fail_before_expanding(tmp_path):
    # Each level holds ten aliases of the one before; loaded, the last
    # level would hold 10**5 copies of the first.
    lines = ["l0: &l0 [x, x, x, x, x, x, x, x, x, x]"]
    lines += [f"l{n}: &l{n} [{', '.join([f'*l{n - 1}'] * 10)}]"
              for n in range(1, 6)]
    path = tmp_path / "laughs.yaml"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(MetadataParseError):
        metadata.load_document(path)


def test_unsupported_extension(tmp_path):
    path = tmp_path / "meta.xml"
    path.write_text("<user/>", encoding="utf-8")
    with pytest.raises(UnsupportedExtension):
        metadata.load_document(path)


def test_dates_stay_strings(tmp_path):
    path = tmp_path / "meta.yaml"
    path.write_text("when: 2022-09-02\n", encoding="utf-8")
    assert metadata.load_document(path).root["when"] == "2022-09-02"


def test_a_tagged_date_stays_a_string(tmp_path):
    path = tmp_path / "meta.yaml"
    path.write_text("when: !!timestamp 2022-09-02\n", encoding="utf-8")
    assert metadata.load_document(path).root["when"] == "2022-09-02"
    # PyYAML's own loader still builds a date.
    assert yaml.safe_load("when: 2022-09-02\n")["when"] == \
        datetime.date(2022, 9, 2)


@pytest.mark.parametrize("text", ["a: !!binary aGk=\n", "a: !!set {x: null}\n",
                                  "a: !!omap [x: 1]\n", "a: !!pairs [x: 1]\n"])
def test_yaml_node_kinds_beyond_json_are_refused(text):
    with pytest.raises(MetadataParseError, match="line 1, column 4"):
        metadata.parse_yaml(text)
    assert yaml.safe_load(text)["a"]  # PyYAML's own loader is untouched


def test_an_escaped_surrogate_pair_is_one_character_in_json_only(tmp_path):
    text = json.dumps({"user": "\U0001F600"})
    assert "\\ud83d\\ude00" in text
    (tmp_path / "meta.json").write_text(text, encoding="utf-8")
    assert metadata.load_document(tmp_path / "meta.json").root == \
        {"user": "\U0001F600"}
    # A YAML escape names one code point, as libyaml reads it.
    (tmp_path / "meta.yaml").write_text(text, encoding="utf-8")
    with pytest.raises(MetadataParseError,
                       match="lone surrogate '\\\\ud83d'"):
        metadata.load_document(tmp_path / "meta.yaml")


def test_yaml_comments_discarded(tmp_path):
    path = tmp_path / "meta.yaml"
    path.write_text("# a template hint\nuser: Max Doe\n", encoding="utf-8")
    assert metadata.load_document(path).root == {"user": "Max Doe"}


# -------------------------------
# get_path
# -------------------------------

@pytest.fixture
def demo_doc():
    return metadata.MetadataDoc(root={
        "user": "Max Doe",
        "figure description": {
            "fields": [{"name": "t", "unit": "s"}, {"name": "U", "unit": "mV"}],
        },
    })


def test_get_simple_key(demo_doc):
    assert metadata.get_path(demo_doc, "user") == "Max Doe"


def test_get_normalized_segment(demo_doc):
    # "figure_description" reaches the key "figure description"
    fields = metadata.get_path(demo_doc, "figure_description.fields")
    assert isinstance(fields, list) and len(fields) == 2


def test_get_sequence_index(demo_doc):
    assert metadata.get_path(demo_doc, "figure_description.fields.1.unit") \
        == "mV"


def test_path_not_found_reports_prefix(demo_doc):
    with pytest.raises(PathNotFound) as excinfo:
        metadata.get_path(demo_doc, "figure_description.nope")
    assert excinfo.value.resolved_prefix == "figure_description"


def test_ambiguous_key():
    doc = metadata.MetadataDoc(root={"User": 1, "user": 2})
    with pytest.raises(AmbiguousKey):
        metadata.get_path(doc, "user")


def test_case_insensitive_property(demo_doc):
    assert metadata.get_path(demo_doc, "USER") == \
        metadata.get_path(demo_doc, "user")


@pytest.mark.parametrize("path, message", [
    ("", "empty path"),
    (" ", "empty path"),
    ("figure_description.fields.5",
     "index 5 out of range after 'figure_description.fields'"),
    ("figure_description.fields.x",
     "segment 'x' is not a sequence index after "
     "'figure_description.fields'"),
    ("user.first", "cannot descend into scalar at 'user' looking for "
                   "'first'"),
])
def test_get_path_misses(demo_doc, path, message):
    with pytest.raises(PathNotFound) as excinfo:
        metadata.get_path(demo_doc, path)
    assert str(excinfo.value) == message
    assert excinfo.value.code == "PATH_NOT_FOUND"


# -------------------------------
# validate
# -------------------------------

def _schema(tree) -> metadata.SchemaDoc:
    metadata._check_schema_node(tree, "")
    return metadata.SchemaDoc(root=tree)


def test_validate_ok():
    doc = metadata.MetadataDoc(root={"user": "Max Doe"})
    assert metadata.validate(doc, _schema(USER_SCHEMA)) == []


def test_validate_missing_required():
    violations = metadata.validate(metadata.MetadataDoc(root={}),
                                   _schema(USER_SCHEMA))
    assert len(violations) == 1
    assert violations[0].path == "user"
    assert "required" in violations[0].reason


def test_validate_wrong_type():
    # oracle: hand evaluation of the three keywords on this 1-key doc:
    # `user` present (required ok), type object ok, `user` is integer
    # where string is expected → exactly one violation at path `user`.
    violations = metadata.validate(metadata.MetadataDoc(root={"user": 42}),
                                   _schema(USER_SCHEMA))
    assert [(v.path, v.reason) for v in violations] == \
        [("user", "expected string, found integer")]


def test_validate_enum_items_additional():
    schema = _schema({
        "type": "object",
        "properties": {
            "mode": {"enum": ["fast", "slow"]},
            "tags": {"type": "array", "items": {"type": "string"}},
        },
        "additionalProperties": False,
    })
    doc = metadata.MetadataDoc(root={"mode": "warp", "tags": ["ok", 3],
                                     "extra": 1})
    paths = {(v.path, v.reason) for v in metadata.validate(doc, schema)}
    assert ("mode", "value not in enum") in paths
    assert ("tags.1", "expected string, found integer") in paths
    assert ("extra", "unexpected key 'extra'") in paths
    assert len(paths) == 3


def test_validate_required_monotone():
    base = {"type": "object", "required": ["a"]}
    more = {"type": "object", "required": ["a", "b"]}
    doc = metadata.MetadataDoc(root={})
    fewer = metadata.validate(doc, _schema(base))
    extra = metadata.validate(doc, _schema(more))
    assert {(v.path, v.reason) for v in fewer} <= \
        {(v.path, v.reason) for v in extra}


@pytest.mark.parametrize("value, expected, reason", [
    (None, "string", "expected string, found null"),
    (1.5, "string", "expected string, found number"),
    (1.5, "integer", "expected integer, found number"),
    ([], "object", "expected object, found array"),
    ({}, "array", "expected array, found object"),
])
def test_validate_names_the_found_type(value, expected, reason):
    schema = _schema({"type": "object",
                      "properties": {"v": {"type": expected}}})
    violations = metadata.validate(metadata.MetadataDoc(root={"v": value}),
                                   schema)
    assert [(v.path, v.reason) for v in violations] == [("v", reason)]


@pytest.mark.parametrize("value, allowed", [
    (1, True), (1.0, True), (True, False), (False, False), ("1", False),
])
def test_enum_keeps_bools_apart_from_numbers(value, allowed):
    schema = _schema({"properties": {"v": {"enum": [1]}}})
    violations = metadata.validate(metadata.MetadataDoc(root={"v": value}),
                                   schema)
    assert (violations == []) is allowed


@pytest.mark.parametrize("allowed, value, accepted", [
    ([True], [1], False),
    ({"a": False}, {"a": 0}, False),
    ([1], [1.0], True),
    ({"a": [1, None]}, {"a": [1.0, None]}, True),
    ([True], [True, True], False),
    ({"a": 1}, {"a": 1, "b": 1}, False),
    ([1], {"0": 1}, False),
])
def test_enum_compares_lists_and_maps_member_by_member(allowed, value,
                                                       accepted):
    schema = _schema({"properties": {"v": {"enum": [allowed]}}})
    violations = metadata.validate(metadata.MetadataDoc(root={"v": value}),
                                   schema)
    assert (violations == []) is accepted


def test_enum_compares_values_nested_as_deep_as_a_parse_allows():
    def nested(leaf, depth=900):
        for _ in range(depth):
            leaf = [leaf]
        return leaf

    schema = _schema({"enum": [nested(1)]})
    for value, accepted in ((nested(1.0), True), (nested(True), False)):
        violations = metadata.validate(metadata.MetadataDoc(root=value),
                                       schema)
        assert (violations == []) is accepted


def test_bool_is_not_integer():
    schema = _schema({"type": "object",
                      "properties": {"n": {"type": "integer"}}})
    doc = metadata.MetadataDoc(root={"n": True})
    assert len(metadata.validate(doc, schema)) == 1


# -------------------------------
# schema loading
# -------------------------------

def test_unsupported_keyword_rejected_at_load(tmp_path):
    path = tmp_path / "schema.json"
    path.write_text(json.dumps({"type": "object",
                                "$ref": "#/definitions/x"}),
                    encoding="utf-8")
    with pytest.raises(SchemaUnsupportedKeyword):
        metadata.load_schema(path)


def test_malformed_schema_rejected(tmp_path):
    path = tmp_path / "schema.yaml"
    path.write_text("type: 5\n", encoding="utf-8")
    with pytest.raises(SchemaMalformed):
        metadata.load_schema(path)


# One schema per `SCHEMA_MALFORMED` check, each reached at its own path.
@pytest.mark.parametrize("tree, message", [
    ([], "schema at <root> must be a map"),
    ({"type": "float"}, "bad type 'float' at <root>"),
    ({"required": "a"}, "'required' must be a list of strings at <root>"),
    ({"required": [1]}, "'required' must be a list of strings at <root>"),
    ({"enum": "a"}, "'enum' must be a list at <root>"),
    ({"additionalProperties": {}},
     "'additionalProperties' must be a boolean at <root>"),
    ({"properties": []}, "'properties' must be a map at <root>"),
    ({"properties": {"a": 1}}, "schema at a must be a map"),
    ({"properties": {"a": {"properties": {"b": {"type": 1}}}}},
     "bad type 1 at a.b"),
    ({"items": "x"}, "schema at [] must be a map"),
    ({"properties": {"a": {"items": {"enum": 1}}}},
     "'enum' must be a list at a[]"),
    ({"type": ["string", "null"]}, "bad type ['string', 'null'] at <root>"),
    ({"type": {"a": 1}}, "bad type {'a': 1} at <root>"),
])
def test_each_malformed_schema_check(tree, message):
    with pytest.raises(SchemaMalformed) as excinfo:
        metadata._check_schema_node(tree, "")
    assert str(excinfo.value) == message
    assert excinfo.value.code == "SCHEMA_MALFORMED"


# -------------------------------
# scan + filter
# -------------------------------

def test_scan_finds_meta_files(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "data.csv.meta.yaml").write_text("user: Max Doe\n",
                                                 encoding="utf-8")
    (tmp_path / "sub" / "other.csv.meta.yaml").write_text("user: B\n",
                                                          encoding="utf-8")
    (tmp_path / "data.csv").write_text("t\n1\n", encoding="utf-8")
    result = metadata.scan_metadata_directory(tmp_path)
    assert [p.name for p, _ in result.documents] == \
        ["data.csv.meta.yaml", "other.csv.meta.yaml"]
    assert result.failures == []


def test_scan_empty_dir(tmp_path):
    result = metadata.scan_metadata_directory(tmp_path)
    assert result.documents == [] and result.failures == []


def test_scan_reports_malformed_and_continues(tmp_path):
    (tmp_path / "good.csv.meta.yaml").write_text("user: Max Doe\n",
                                                 encoding="utf-8")
    (tmp_path / "bad.csv.meta.yaml").write_text("user: [truncated\n",
                                                encoding="utf-8")
    result = metadata.scan_metadata_directory(tmp_path)
    assert len(result.documents) == 1
    assert len(result.failures) == 1
    assert result.failures[0][0].name == "bad.csv.meta.yaml"


def test_scan_missing_dir(tmp_path):
    with pytest.raises(DirectoryNotFound):
        metadata.scan_metadata_directory(tmp_path / "nope")


def _docs_fixture():
    doc_a = metadata.MetadataDoc(root={"user": "Max Doe", "n": 1.0})
    doc_b = metadata.MetadataDoc(root={"user": "Ada Lovelace", "n": 2})
    return [("a.meta.yaml", doc_a), ("b.meta.yaml", doc_b)]


def test_filter_matches_one():
    docs = _docs_fixture()
    # brute-force oracle over the raw trees
    expected = [pair for pair in docs if pair[1].root.get("user") == "Max Doe"]
    assert metadata.filter_metadata(docs, "user", "Max Doe") == expected


def test_filter_absent_path_everywhere():
    assert metadata.filter_metadata(_docs_fixture(), "missing", "x") == []


def test_filter_tautology_keeps_all():
    docs = _docs_fixture()
    out = metadata.filter_metadata(docs, "user", "Max Doe") + \
        metadata.filter_metadata(docs, "user", "Ada Lovelace")
    assert len(out) == len(docs)


# Two numbers are equal by value, as under `enum`, whatever their
# renderings; a text never equals a number.
def test_filter_numeric_canonical_rendering():
    docs = _docs_fixture()
    assert len(metadata.filter_metadata(docs, "n", 1.0)) == 1
    assert len(metadata.filter_metadata(docs, "n", 2)) == 1
    assert len(metadata.filter_metadata(docs, "n", 1)) == 1  # 1 vs 1.0
    assert metadata.filter_metadata(docs, "n", "1.0") == []


# -------------------------------
# JSON round-trip property
# -------------------------------

_scalars = st.one_of(st.none(), st.booleans(),
                     st.integers(min_value=-10**9, max_value=10**9),
                     st.floats(allow_nan=False, allow_infinity=False),
                     st.text(max_size=20))

_trees = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(min_size=1, max_size=10), children,
                        max_size=4)),
    max_leaves=20)


@settings(max_examples=150, deadline=None)
@given(_trees)
def test_json_roundtrip(tree):
    doc = metadata.MetadataDoc(root=tree)
    again = metadata.parse_json(doc.to_json())
    assert again == tree


def test_scan_failures_name_their_code(tmp_path):
    (tmp_path / "dup.csv.meta.yaml").write_text("a: 1\na: 2\n",
                                                encoding="utf-8")
    (tmp_path / "deep.csv.meta.yaml").write_text("[" * 100_000,
                                                 encoding="utf-8")
    result = metadata.scan_metadata_directory(tmp_path)
    assert [(path.name, message.split(":")[0])
            for path, message in result.failures] == \
        [("deep.csv.meta.yaml", "PARSE_ERROR"),
         ("dup.csv.meta.yaml", "DUPLICATE_KEY")]


@pytest.mark.parametrize("text", ["[" * 100_000, "1" * 5000],
                         ids=["nested-deeply", "long-int"])
@pytest.mark.parametrize("parse", [metadata.parse_yaml, metadata.parse_json])
def test_deep_or_long_number_documents_are_parse_errors(parse, text):
    with pytest.raises(MetadataParseError):
        parse(text)
