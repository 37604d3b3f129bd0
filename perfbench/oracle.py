"""Output checks: compare what a unitpack command produced with what the
generator says it must produce.  Each check returns a list of problems;
an empty list means the output is correct."""

from __future__ import annotations

import csv
import json
import re
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

from gen import PACKED_FIELDS

_POINTS_RE = re.compile(r'<polyline [^>]*points="([^"]*)"')


def check_stdout(label: str, got: str, want: str) -> list[str]:
    if got == want:
        return []
    return [f"{label}: stdout differs (got {len(got.splitlines())} lines, "
            f"want {len(want.splitlines())}; first got {got[:80]!r})"]


def scaled_text(text: str, factor: Fraction) -> str:
    """The cell an exact rescale must write: the exact rational behind the
    shortest decimal rendering, times the factor, rounded once."""
    return repr(float(Fraction(Decimal(text)) * factor))


def _read_rows(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle))


def _descriptor(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))["resources"][0]


def check_rescale(out_dir: Path, identifier: str, raw_csv: Path,
                  metadata: dict, stdout: str) -> list[str]:
    """`rescale --field U --unit V`: U values are the originals converted
    from mV exactly; t, the other fields and the metadata are unchanged."""
    json_path = out_dir / f"{identifier}.json"
    csv_path = out_dir / f"{identifier}.csv"
    problems = check_stdout("rescale", stdout, f"{json_path}\n{csv_path}\n")
    if not json_path.is_file() or not csv_path.is_file():
        return problems + [f"rescale: {identifier} not written"]
    resource = _descriptor(json_path)
    want_fields = [dict(f) for f in metadata["figure description"]["fields"]]
    want_fields[1]["unit"] = "V"
    if resource["schema"]["fields"] != want_fields:
        problems.append(f"rescale: {identifier} fields {resource['schema']}")
    if resource["metadata"] != metadata:
        problems.append(f"rescale: {identifier} metadata changed")
    got = _read_rows(csv_path)
    original = _read_rows(raw_csv)
    factor = Fraction(1, 1000)
    want = [original[0]] + [[t, scaled_text(u, factor)]
                            for t, u in original[1:]]
    if got != want:
        bad = sum(1 for g, w in zip(got, want) if g != w) + \
            abs(len(got) - len(want))
        problems.append(f"rescale: {identifier} has {bad} wrong row(s)")
    return problems


def check_report(out_dir: Path, ext: str, groups: dict[str, list[str]],
                 rows: int) -> list[str]:
    """A grouped report: exactly the expected files, every entry linked
    from exactly one group page, and one plot point per numeric row."""
    ids = [i for members in groups.values() for i in members]
    want = {f"index.{ext}"} | {f"groups/{m.lower()}.{ext}" for m in groups}
    want |= {f"entries/{i}.{ext}" for i in ids}
    want |= {f"plots/{i}.svg" for i in ids}
    got = {p.relative_to(out_dir).as_posix()
           for p in out_dir.rglob("*") if p.is_file()}
    problems = []
    if got != want:
        problems.append(f"report {ext}: {len(got - want)} unexpected and "
                        f"{len(want - got)} missing file(s)")
    index = out_dir / f"index.{ext}"
    if index.is_file() and f"{len(ids)} entries in {len(groups)} group(s)." \
            not in index.read_text(encoding="utf-8"):
        problems.append(f"report {ext}: index lacks the entry count")
    for material, members in groups.items():
        page = out_dir / "groups" / f"{material.lower()}.{ext}"
        if not page.is_file():
            continue
        text = page.read_text(encoding="utf-8")
        linked = set(re.findall(rf"entries/([a-z0-9-]+)\.{ext}", text))
        if linked != set(members):
            problems.append(f"report {ext}: group {material} links "
                            f"{len(linked)} entries, want {len(members)}")
    for identifier in ids:
        page = out_dir / "entries" / f"{identifier}.{ext}"
        if page.is_file() and f"../plots/{identifier}.svg" not in \
                page.read_text(encoding="utf-8"):
            problems.append(f"report {ext}: {identifier} page lacks its plot")
        plot = out_dir / "plots" / f"{identifier}.svg"
        if plot.is_file():
            problems += check_plot(plot.read_text(encoding="utf-8"), rows,
                                   identifier)
    return problems


def check_plot(svg: str, rows: int, identifier: str) -> list[str]:
    match = _POINTS_RE.search(svg)
    if not svg.endswith("</svg>\n") or match is None:
        return [f"plot {identifier}: truncated SVG"]
    points = len(match.group(1).split())
    if points != rows:
        return [f"plot {identifier}: {points} points, want {rows}"]
    return []


def sidecar_problems(sidecar: Path, source: Path, template_text: str,
                     template_hash: str, stamp: str) -> list[str]:
    """The sidecar is the template verbatim plus the autotag block."""
    try:
        text = sidecar.read_text(encoding="utf-8")
    except OSError:
        return [f"sidecar {sidecar.name}: missing"]
    block = (rf"autotag:\n  tagged: '?{re.escape(stamp)}'?\n"
             rf"  file: {re.escape(source.name)}\n"
             rf"  template_hash: {template_hash}\n")
    if not text.startswith(template_text) or \
            re.fullmatch(block, text[len(template_text):]) is None:
        return [f"sidecar {sidecar.name}: not template + autotag block"]
    return []


def check_pack(db_dir: Path, source: Path, template_doc: dict,
               template_hash: str, stamp: str, stdout: str) -> list[str]:
    """`pack` of a tagged file round-trips the rows byte for byte and
    stores the template document plus its autotag block."""
    identifier = source.stem.lower()
    json_path = db_dir / f"{identifier}.json"
    csv_path = db_dir / f"{identifier}.csv"
    problems = check_stdout("pack", stdout, f"{json_path}\n{csv_path}\n")
    if not json_path.is_file() or not csv_path.is_file():
        return problems + [f"pack: {identifier} not written"]
    if csv_path.read_bytes() != source.read_bytes():
        problems.append(f"pack: {identifier} rows differ from the raw file")
    resource = _descriptor(json_path)
    want_meta = dict(template_doc)
    want_meta["autotag"] = {"tagged": stamp, "file": source.name,
                            "template_hash": template_hash}
    if resource["metadata"] != want_meta:
        problems.append(f"pack: {identifier} metadata differs")
    if resource["schema"]["fields"] != PACKED_FIELDS or \
            resource["name"] != identifier:
        problems.append(f"pack: {identifier} descriptor differs")
    return problems
