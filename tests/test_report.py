import posixpath
import re
from urllib.parse import unquote

import pytest

from unitpack import report
from unitpack.collection import Collection
from unitpack.datapackage import Entry, FieldSpec
from unitpack.errors import NonNumericCell, TooFewPoints, UnknownField
from unitpack.metadata import MetadataDoc, get_path
from unitpack.report import (
    ReportConfig,
    render_entry_page,
    render_index,
    render_plot,
    write_report,
)
from unitpack.tabular import Table

from conftest import material_entry


def _cfg(tmp_path, **overrides):
    kwargs = dict(
        out_dir=tmp_path / "site", plot_x="t", plot_y="U",
        group_by="system.electrodes.working_electrode.material",
        descriptor_columns=(("user", "user"),
                            ("material",
                             "system.electrodes.working_electrode.material")),
        format="markdown")
    kwargs.update(overrides)
    return ReportConfig(**kwargs)


# -------------------------------
# render_plot
# -------------------------------

def test_plot_demo_entry(demo_entry):
    svg = render_plot(demo_entry, "t", "U")
    assert svg.startswith("<svg")
    assert svg.count("<polyline") == 1
    points = re.search(r'points="([^"]+)"', svg).group(1).split()
    assert len(points) == 3
    assert "U [mV]" in svg
    assert "t [s]" in svg


def test_plot_two_points_is_segment():
    entry = material_entry("seg", "Pt", rows=((0, 1.0), (1, 2.0)))
    svg = render_plot(entry, "t", "U")
    points = re.search(r'points="([^"]+)"', svg).group(1).split()
    assert len(points) == 2


def test_plot_constant_y_maps_to_midline():
    entry = material_entry("flat", "Pt", rows=((0, 5.0), (1, 5.0), (2, 5.0)))
    svg = render_plot(entry, "t", "U")
    points = re.search(r'points="([^"]+)"', svg).group(1).split()
    # oracle: the mapping formula with zero y-range puts every point at
    # the vertical center of the 300-high viewport
    for pair in points:
        assert pair.endswith(",150.00")


def test_plot_error_cases(demo_entry):
    with pytest.raises(UnknownField):
        render_plot(demo_entry, "t", "nope")
    single = material_entry("one", "Pt", rows=((0, 1.0),))
    with pytest.raises(TooFewPoints):
        render_plot(single, "t", "U")
    stringy = Entry(
        identifier="s",
        fields=(FieldSpec(name="t"), FieldSpec(name="U", type="string")),
        table=Table(columns=("t", "U"), rows=((0, "a"), (1, "b"))),
        metadata=MetadataDoc(root={}))
    with pytest.raises(NonNumericCell):
        render_plot(stringy, "t", "U")


def test_plot_deterministic(demo_entry):
    assert render_plot(demo_entry, "t", "U") == \
        render_plot(demo_entry, "t", "U")


# -------------------------------
# render_entry_page
# -------------------------------

def _entry_page(entry, cfg):
    """`entry`'s page with its plot, as `render_index` renders it."""
    return render_entry_page(entry, cfg, True,
                             report._descriptor_cells(entry, cfg))


def test_entry_page_preview_header(demo_entry, tmp_path):
    page = _entry_page(demo_entry, _cfg(tmp_path, group_by=None,
                                        descriptor_columns=()))
    assert "| t [s] | U [mV] | T [K] |" in page
    assert page.startswith("# data\n")
    assert "![data](../plots/data.svg)" in page


def test_entry_page_missing_descriptor_is_dash(demo_entry, tmp_path):
    cfg = _cfg(tmp_path, descriptor_columns=(("ghost", "no.such.path"),))
    page = _entry_page(demo_entry, cfg)
    assert "| ghost | — |" in page


def test_entry_page_placeholder_on_plot_failure(tmp_path):
    stringy = Entry(
        identifier="s",
        fields=(FieldSpec(name="t", type="string"),
                FieldSpec(name="U", type="string")),
        table=Table(columns=("t", "U"), rows=(("a", "b"),)),
        metadata=MetadataDoc(root={"user": "x"}))
    pages = render_index(Collection(entries=(stringy,)),
                         _cfg(tmp_path, descriptor_columns=()))
    assert "plots/s.svg" not in pages
    page = pages["entries/s.md"]
    assert "no plot available" in page
    assert "plots/" not in page


def test_entry_page_preview_capped_at_10_rows(tmp_path):
    entry = material_entry("long", "Pt",
                           rows=tuple((i, float(i)) for i in range(25)))
    page = _entry_page(entry, _cfg(tmp_path, descriptor_columns=()))
    data_rows = [line for line in page.splitlines()
                 if re.match(r"^\| \d", line)]
    assert len(data_rows) == 10
    assert "25 row(s) total" in page


def test_entry_page_html(demo_entry, tmp_path):
    page = _entry_page(demo_entry, _cfg(tmp_path, format="html",
                                        descriptor_columns=()))
    assert page.startswith("<!DOCTYPE html>")
    assert "<script" not in page
    assert "<h1>data</h1>" in page
    assert 'src="../plots/data.svg"' in page


# -------------------------------
# render_index
# -------------------------------

def test_grouped_page_set(material_collection, tmp_path):
    pages = render_index(material_collection, _cfg(tmp_path))
    # oracle: 2 group pages (Pt, Au) + 3 entry pages + 1 root index
    # + 3 plots
    groups = [p for p in pages if p.startswith("groups/")]
    entries = [p for p in pages if p.startswith("entries/")]
    plots = [p for p in pages if p.startswith("plots/")]
    assert len(groups) == 2
    assert len(entries) == 3
    assert len(plots) == 3
    assert "index.md" in pages
    assert sorted(groups) == ["groups/au.md", "groups/pt.md"]


def test_every_entry_once_across_overviews(material_collection, tmp_path):
    pages = render_index(material_collection, _cfg(tmp_path))
    overview_text = "".join(v for k, v in pages.items()
                            if k.startswith("groups/"))
    for identifier in material_collection.identifiers:
        assert overview_text.count(f"(../entries/{identifier}.md)") == 1


def test_ungrouped_index_lists_all(material_collection, tmp_path):
    pages = render_index(material_collection, _cfg(tmp_path, group_by=None))
    assert [p for p in pages if p.startswith("groups/")] == []
    index = pages["index.md"]
    rows = [line for line in index.splitlines()
            if line.startswith("| ![")]
    assert len(rows) == 3
    # sorted by identifier
    assert index.find("cv-au-1") < index.find("cv-pt-1") \
        < index.find("cv-pt-2")


def test_empty_collection_index(tmp_path):
    pages = render_index(Collection(entries=()), _cfg(tmp_path,
                                                      group_by=None))
    assert list(pages) == ["index.md"]
    assert "0 entries" in pages["index.md"]


def test_each_plot_rendered_once(material_collection, tmp_path,
                                 monkeypatch):
    calls = []

    def counting(entry, x, y):
        calls.append(entry.identifier)
        return render_plot(entry, x, y)
    monkeypatch.setattr(report, "render_plot", counting)
    for fmt in ("markdown", "html"):
        calls.clear()
        render_index(material_collection, _cfg(tmp_path, format=fmt))
        assert sorted(calls) == list(material_collection.identifiers)


def test_descriptor_cells_computed_once(material_collection, tmp_path,
                                       monkeypatch):
    paths = []

    def counting(doc, path):
        paths.append(path)
        return get_path(doc, path)
    monkeypatch.setattr(report, "get_path", counting)
    cfg = _cfg(tmp_path, group_by=None)
    render_index(material_collection, cfg)
    assert len(paths) == len(material_collection) * \
        len(cfg.descriptor_columns)


def test_missing_group_value_becomes_ungrouped(tmp_path):
    entry = material_entry("nogroup", "Pt")
    cfg = _cfg(tmp_path, group_by="no.such.path")
    pages = render_index(Collection(entries=(entry,)), cfg)
    assert "groups/ungrouped.md" in pages


# -------------------------------
# determinism + link closure
# -------------------------------

def test_render_deterministic(material_collection, tmp_path):
    cfg = _cfg(tmp_path)
    assert render_index(material_collection, cfg) == \
        render_index(material_collection, cfg)


def _links_in(page_path: str, content: str, fmt: str):
    if fmt == "markdown":
        for match in re.finditer(r"\]\(([^)]+)\)", content):
            yield match.group(1)
    else:
        for match in re.finditer(r'(?:src|href)="([^"]+)"', content):
            yield match.group(1)


def _assert_link_closure(pages: dict[str, str], fmt: str) -> None:
    for page_path, content in pages.items():
        if page_path.endswith(".svg"):
            continue
        base = posixpath.dirname(page_path)
        for link in _links_in(page_path, content, fmt):
            resolved = posixpath.normpath(posixpath.join(base, unquote(link)))
            assert resolved in pages, \
                f"{page_path} links to {link} -> {resolved} (missing)"


@pytest.mark.parametrize("fmt", ["markdown", "html"])
def test_link_closure(material_collection, tmp_path, fmt):
    pages = render_index(material_collection, _cfg(tmp_path, format=fmt))
    _assert_link_closure(pages, fmt)


@pytest.mark.parametrize("fmt, thumb, link", [
    ("markdown", '![a"b c)](plots/a%22b%20c%29.svg)',
     '[a"b c)](entries/a%22b%20c%29.md)'),
    ("html", '<img class="thumb" src="plots/a%22b%20c%29.svg" '
             'alt="a&quot;b c)">',
     '<a href="entries/a%22b%20c%29.html">a&quot;b c)</a>'),
], ids=["markdown", "html"])
def test_odd_identifier_links_are_encoded(material_collection, tmp_path,
                                          fmt, thumb, link):
    collection = Collection(entries=material_collection.entries + (
        material_entry('a"b c)', "Pt"),))
    flat = render_index(collection, _cfg(tmp_path, format=fmt,
                                         group_by=None))
    index = next(v for k, v in flat.items() if k.startswith("index."))
    assert thumb in index and link in index
    assert 'plots/a"b c).svg' in flat
    for pages in (flat, render_index(collection, _cfg(tmp_path, format=fmt))):
        _assert_link_closure(pages, fmt)


def test_write_report_writes_closed_tree(material_collection, tmp_path):
    cfg = _cfg(tmp_path)
    written = write_report(material_collection, cfg)
    assert all(path.is_file() for path in written)
    out_dir = cfg.out_dir
    on_disk = {str(p.relative_to(out_dir)) for p in out_dir.rglob("*")
               if p.is_file()}
    assert on_disk == set(render_index(material_collection, cfg))


def test_write_report_prunes_stale_pages(material_collection, tmp_path):
    cfg = _cfg(tmp_path)
    out_dir = cfg.out_dir
    write_report(material_collection, cfg)
    (out_dir / "notes.txt").write_text("keep me", encoding="utf-8")

    fewer = Collection(entries=material_collection.entries[1:])
    gone = material_collection.entries[0].identifier
    write_report(fewer, cfg)
    assert not (out_dir / "entries" / f"{gone}.md").exists()
    assert not (out_dir / "plots" / f"{gone}.svg").exists()

    html_cfg = _cfg(tmp_path, format="html")
    write_report(fewer, html_cfg)
    on_disk = {p.relative_to(out_dir).as_posix() for p in out_dir.rglob("*")
               if p.is_file()}
    assert not [p for p in on_disk if p.endswith(".md")]
    assert on_disk == set(render_index(fewer, html_cfg)) | {"notes.txt"}
    assert (out_dir / "notes.txt").read_text(encoding="utf-8") == "keep me"


def test_config_validation(tmp_path):
    with pytest.raises(Exception):
        ReportConfig(out_dir=tmp_path, plot_x="t", plot_y="t")
    with pytest.raises(Exception):
        ReportConfig(out_dir=tmp_path, plot_x="t", plot_y="U",
                     format="pdf")


@pytest.mark.parametrize("rows, message", [
    (((0, 1.0), (None, 2.0), (True, 3.0)),
     "field 't' holds non-numeric cell True"),
    (((0, 1.0), (1, None), (2, "a"), ("b", 4.0)),
     "field 'U' holds non-numeric cell 'a'"),
    (((0, 1.0), (False, "b")), "field 't' holds non-numeric cell False"),
    (((0, "y"), ("x", 1.0)), "field 'U' holds non-numeric cell 'y'"),
    (((0.5, 1), (1, True)), "field 'U' holds non-numeric cell True"),
], ids=["bool-after-null", "string-after-null", "x-before-y",
        "row-order", "bool-y"])
def test_plot_names_first_non_numeric_cell(rows, message):
    with pytest.raises(NonNumericCell) as info:
        render_plot(material_entry("odd", "Pt", rows=rows), "t", "U")
    assert str(info.value) == message


def test_markdown_link_text_is_escaped(material_collection, tmp_path):
    collection = Collection(entries=material_collection.entries + (
        material_entry("a]b", "P[t]\\"),))
    flat = render_index(collection, _cfg(tmp_path, group_by=None))
    assert "| ![a\\]b](plots/a%5Db.svg) |" in flat["index.md"]
    assert "| [a\\]b](entries/a%5Db.md) |" in flat["index.md"]
    grouped = render_index(collection, _cfg(tmp_path))
    assert "| [P\\[t\\]\\\\](groups/p-t.md) | 1 |" in grouped["index.md"]
    for pages in (flat, grouped):
        _assert_link_closure(pages, "markdown")
