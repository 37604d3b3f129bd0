"""Byte-for-byte pin of the report page set in both formats.

The expected pages under ``golden/<format>-<layout>/`` are the report's
output for a fixed collection: the three-entry material collection plus
one entry whose plot fails and whose values, group name included,
need escaping.  Any change to them is a change to the published report
format.
"""

from pathlib import Path

import pytest

from unitpack.collection import Collection
from unitpack.datapackage import Entry, FieldSpec
from unitpack.metadata import MetadataDoc
from unitpack.report import ReportConfig, render_index
from unitpack.tabular import Table

GOLDEN = Path(__file__).parent / "golden"
MATERIAL = "system.electrodes.working_electrode.material"
LAYOUTS = {"grouped": MATERIAL, "flat": None}


def golden_collection(material_collection: Collection) -> Collection:
    no_plot = Entry(
        identifier="no-plot",
        fields=(FieldSpec(name="t", unit="s"),
                FieldSpec(name="U", type="string")),
        table=Table(columns=("t", "U"), rows=((0, "a|b"), (1, "<&>"))),
        metadata=MetadataDoc(root={
            "user": "A & B <x|y>",
            "system": {"electrodes": {"working_electrode":
                                      {"material": "Au & <Pt>|x"}}},
            "tags": ["one", {"k": 2, "ok": True}],
            "note": None,
        }))
    return Collection(entries=material_collection.entries + (no_plot,))


def golden_config(fmt: str, layout: str) -> ReportConfig:
    return ReportConfig(
        out_dir=Path("site"), plot_x="t", plot_y="U",
        group_by=LAYOUTS[layout],
        descriptor_columns=(("user", "user"), ("material", MATERIAL),
                            ("source", "source"), ("ghost", "no.such.path")),
        format=fmt)


def _expected_pages(directory: Path) -> dict[str, str]:
    return {p.relative_to(directory).as_posix():
            p.read_bytes().decode("utf-8")
            for p in directory.rglob("*") if p.is_file()}


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("fmt", ["markdown", "html"])
def test_report_pages_match_golden(material_collection, fmt, layout):
    pages = render_index(golden_collection(material_collection),
                         golden_config(fmt, layout))
    expected = _expected_pages(GOLDEN / f"{fmt}-{layout}")
    assert sorted(pages) == sorted(expected)
    for rel_path, content in pages.items():
        assert content == expected[rel_path], rel_path
