"""Static report emitter: index + per-entry pages + SVG plots.

Output is a closed set of files under the output directory:

    index.md                    (or .html)
    groups/<value>.md           one overview per group value, if grouping
    entries/<identifier>.md     one page per entry
    plots/<identifier>.svg      hand-assembled SVG 1.1 line plot

Rendering is deterministic: identical collection + config produce a
byte-identical tree.
"""

from __future__ import annotations

import html as html_lib
import json
import re
from dataclasses import dataclass
from pathlib import Path
from urllib.parse import quote

from .collection import Collection
from .datapackage import Entry
from .errors import (
    AmbiguousKey,
    NonNumericCell,
    PathNotFound,
    TooFewPoints,
    UnitpackError,
)
from .metadata import canonical_scalar, get_path, is_scalar
from .tabular import _is_number, _plain_numbers, render_cell

MISSING = "—"

_VIEW_W, _VIEW_H = 400, 300
_MARGIN_X, _MARGIN_Y = 20, 15  # 5% of each dimension


@dataclass(frozen=True)
class ReportConfig:
    out_dir: Path
    plot_x: str
    plot_y: str
    group_by: str | None = None
    descriptor_columns: tuple[tuple[str, str], ...] = ()
    format: str = "markdown"

    def __post_init__(self):
        object.__setattr__(self, "out_dir", Path(self.out_dir))
        if self.plot_x == self.plot_y:
            raise UnitpackError("plot_x and plot_y must differ",
                                code="REPORT_CONFIG_INVALID")
        if self.format not in _FORMATS:
            raise UnitpackError(
                f"format must be 'markdown' or 'html', got {self.format!r}",
                code="REPORT_CONFIG_INVALID")


def _axis_label(entry: Entry, name: str) -> str:
    unit = entry.field(name).unit
    return f"{name} [{unit}]" if unit else name


def render_plot(entry: Entry, x: str, y: str) -> str:
    """Standalone SVG line plot of column y over column x.

    Points are mapped linearly into the 400×300 viewport with 5%
    margins; a degenerate (zero-range) axis maps every point to the
    midline.
    """
    x_cells = entry.table.column_values(entry.field(x).name)
    y_cells = entry.table.column_values(entry.field(y).name)
    if _plain_numbers(x_cells) and _plain_numbers(y_cells):
        xs, ys = list(map(float, x_cells)), list(map(float, y_cells))
    else:
        xs, ys = [], []
        for xc, yc in zip(x_cells, y_cells):
            if xc is None or yc is None:
                continue
            for cell, name in ((xc, x), (yc, y)):
                if not _is_number(cell):
                    raise NonNumericCell(
                        f"field {name!r} holds non-numeric cell {cell!r}")
            xs.append(float(xc))
            ys.append(float(yc))
    if len(xs) < 2:
        raise TooFewPoints(
            f"need at least 2 numeric rows to plot, found {len(xs)}")

    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(ys), max(ys)
    x_flat, x_range = x_max == x_min, x_max - x_min
    y_flat, y_range = y_max == y_min, y_max - y_min
    plot_w = _VIEW_W - 2 * _MARGIN_X
    plot_h = _VIEW_H - 2 * _MARGIN_Y
    left, bottom = _MARGIN_X, _VIEW_H - _MARGIN_Y
    mid_x, mid_y = _VIEW_W / 2, _VIEW_H / 2
    coords = " ".join([
        f"{mid_x if x_flat else left + (px - x_min) / x_range * plot_w:.2f},"
        f"{mid_y if y_flat else bottom - (py - y_min) / y_range * plot_h:.2f}"
        for px, py in zip(xs, ys)])
    x_label = html_lib.escape(_axis_label(entry, x), quote=False)
    y_label = html_lib.escape(_axis_label(entry, y), quote=False)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="0 0 {_VIEW_W} {_VIEW_H}" width="{_VIEW_W}" '
        f'height="{_VIEW_H}">\n'
        f'  <rect x="{_MARGIN_X}" y="{_MARGIN_Y}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="#555" stroke-width="1"/>\n'
        f'  <polyline fill="none" stroke="#1f77b4" stroke-width="1.5" '
        f'points="{coords}"/>\n'
        f'  <text x="{_VIEW_W // 2}" y="{_VIEW_H - 3}" font-size="11" '
        f'font-family="sans-serif" text-anchor="middle">{x_label}</text>\n'
        f'  <text x="11" y="{mid_y:.0f}" font-size="11" '
        f'font-family="sans-serif" text-anchor="middle" '
        f'transform="rotate(-90 11 {mid_y:.0f})">{y_label}</text>\n'
        f'</svg>\n'
    )


def _node_text(node) -> str:
    if is_scalar(node):
        return canonical_scalar(node)
    return json.dumps(node, ensure_ascii=False)


def _descriptor_cells(entry: Entry, cfg: ReportConfig) -> list[tuple[str, str]]:
    cells = []
    for label, path in cfg.descriptor_columns:
        try:
            value = _node_text(get_path(entry.metadata, path))
        except (PathNotFound, AmbiguousKey):
            value = MISSING
        cells.append((label, value))
    return cells


def _group_value(entry: Entry, cfg: ReportConfig) -> str:
    try:
        node = get_path(entry.metadata, cfg.group_by)
    except (PathNotFound, AmbiguousKey):
        return "ungrouped"
    return canonical_scalar(node) if is_scalar(node) else "ungrouped"


def _slug(value: str, taken: set[str]) -> str:
    base = re.sub(r"[^a-z0-9._-]+", "-", value.lower()).strip("-.") or "group"
    slug = base
    counter = 2
    while slug in taken:
        slug = f"{base}-{counter}"
        counter += 1
    taken.add(slug)
    return slug


# --- page formats: a page is a list of blocks, each ending in a newline ------
# Link targets are relative file paths; the formats percent-encode them.

class _Markdown:
    ext = "md"

    def heading(self, text: str, level: int = 1) -> str:
        return f"{'#' * level} {text}\n"

    def paragraph(self, text: str) -> str:
        return f"{text}\n"

    def note(self, text: str) -> str:
        return f"*{text}*\n"

    def thumbnail(self, src: str, alt: str) -> str:
        return f"![{self._link_text(alt)}]({quote(src)})"

    def image(self, src: str, alt: str) -> str:
        return self.thumbnail(src, alt) + "\n"

    def link(self, href: str, text: str) -> str:
        return f"[{self._link_text(text)}]({quote(href)})"

    @staticmethod
    def _link_text(text: str) -> str:
        """Link or alt text with the characters that would end it escaped."""
        return re.sub(r"([\\\[\]])", r"\\\1", text)

    def table(self, headers, rows) -> str:
        lines = [self._row(headers), self._row(["---"] * len(headers))]
        lines.extend(self._row(row) for row in rows)
        return "\n".join(lines) + "\n"

    @staticmethod
    def _row(cells) -> str:
        return "| " + " | ".join(c.replace("|", "\\|").replace("\n", " ")
                                 for c in cells) + " |"

    def tree(self, node) -> str:
        lines = self._tree_lines(node, 0)
        return "\n".join(lines) + "\n" if lines else self.note("empty")

    def _tree_lines(self, node, depth: int) -> list[str]:
        pad = "  " * depth
        if isinstance(node, dict):
            items = [(f"{pad}- **{key}:**", value)
                     for key, value in node.items()]
        elif isinstance(node, list):
            items = [(f"{pad}-", item) for item in node]
        else:
            return [f"{pad}- {canonical_scalar(node)}"]
        lines = []
        for label, value in items:
            if is_scalar(value):
                lines.append(f"{label} {canonical_scalar(value)}")
            else:
                lines.append(label)
                lines.extend(self._tree_lines(value, depth + 1))
        return lines

    def document(self, title: str, blocks: list[str]) -> str:
        return "\n".join(blocks)


class _Markup(str):
    """HTML that a table cell takes as it is, without escaping."""


class _Html:
    ext = "html"

    def heading(self, text: str, level: int = 1) -> str:
        return f"<h{level}>{html_lib.escape(text)}</h{level}>\n"

    def paragraph(self, text: str) -> str:
        return f"<p>{html_lib.escape(text)}</p>\n"

    def note(self, text: str) -> str:
        return f"<p><em>{html_lib.escape(text)}</em></p>\n"

    def thumbnail(self, src: str, alt: str) -> str:
        return _Markup(f'<img class="thumb" src="{quote(src)}" '
                       f'alt="{html_lib.escape(alt)}">')

    def image(self, src: str, alt: str) -> str:
        return (f'<p><img src="{quote(src)}" '
                f'alt="{html_lib.escape(alt)}"></p>\n')

    def link(self, href: str, text: str) -> str:
        return _Markup(f'<a href="{quote(href)}">{html_lib.escape(text)}</a>')

    def table(self, headers, rows) -> str:
        head = "".join(f"<th>{html_lib.escape(h)}</th>" for h in headers)
        body = "\n".join(
            "<tr>" + "".join(
                f"<td>{c if isinstance(c, _Markup) else html_lib.escape(c)}"
                f"</td>" for c in row) + "</tr>"
            for row in rows)
        return (f"<table>\n<thead><tr>{head}</tr></thead>\n"
                f"<tbody>\n{body}\n</tbody>\n</table>\n")

    def tree(self, node) -> str:
        return self._tree(node) + "\n"

    def _tree(self, node) -> str:
        if isinstance(node, dict):
            return "<dl>" + "".join(
                f"<dt>{html_lib.escape(str(key))}</dt>"
                f"<dd>{self._tree(value)}</dd>"
                for key, value in node.items()) + "</dl>"
        if isinstance(node, list):
            return "<ul>" + "".join(f"<li>{self._tree(item)}</li>"
                                    for item in node) + "</ul>"
        return html_lib.escape(canonical_scalar(node))

    def document(self, title: str, blocks: list[str]) -> str:
        return (
            "<!DOCTYPE html>\n"
            "<html>\n<head>\n<meta charset=\"utf-8\">\n"
            f"<title>{html_lib.escape(title)}</title>\n"
            "<style>\n"
            "body { font-family: sans-serif; margin: 2em; max-width: 60em; }\n"
            "table { border-collapse: collapse; }\n"
            "td, th { border: 1px solid #999; padding: 0.3em 0.6em; }\n"
            "dl dl { margin-left: 1.5em; }\n"
            "dt { font-weight: bold; }\n"
            "img.thumb { width: 160px; }\n"
            "</style>\n</head>\n<body>\n"
            + "".join(blocks) +
            "</body>\n</html>\n"
        )


_FORMATS = {"markdown": _Markdown(), "html": _Html()}


def _entries_text(count: int) -> str:
    return f"{count} entr{'y' if count == 1 else 'ies'}"


def render_entry_page(entry: Entry, cfg: ReportConfig, has_plot: bool,
                      descriptor_cells: list[tuple[str, str]]) -> str:
    """One page per entry: descriptors, plot, data preview, metadata.

    `has_plot` tells whether `render_plot` succeeded for the entry; if
    not, the page shows a placeholder where the plot would be.
    `descriptor_cells` are the entry's (label, value) descriptor pairs.
    """
    fmt = _FORMATS[cfg.format]
    blocks = [fmt.heading(entry.identifier)]
    if descriptor_cells:
        blocks.append(fmt.table(["descriptor", "value"], descriptor_cells))
    if has_plot:
        blocks.append(fmt.image(f"../plots/{entry.identifier}.svg",
                                entry.identifier))
    else:
        blocks.append(fmt.note("no plot available"))
    blocks += [
        fmt.heading("Data preview", 2),
        fmt.table([_axis_label(entry, f.name) for f in entry.fields],
                  [[render_cell(cell) for cell in row]
                   for row in entry.table.rows[:10]]),
        fmt.paragraph(f"{entry.table.row_count} row(s) total; full data in "
                      f"the package CSV."),
        fmt.heading("Metadata", 2),
        fmt.tree(entry.metadata.root),
    ]
    return fmt.document(entry.identifier, blocks)


def _overview_page(fmt, title: str, entries: list[Entry], cfg: ReportConfig,
                   prefix: str, plot_ids: set[str],
                   cells: dict[str, list[tuple[str, str]]]) -> str:
    """The ungrouped index or one group's page: a count and, if there are
    entries, a table row per entry: thumbnail, descriptor `cells`, link."""
    blocks = [fmt.heading(title),
              fmt.paragraph(f"{_entries_text(len(entries))}.")]
    rows = []
    for entry in entries:
        identifier = entry.identifier
        thumb = (fmt.thumbnail(f"{prefix}plots/{identifier}.svg", identifier)
                 if identifier in plot_ids else MISSING)
        link = fmt.link(f"{prefix}entries/{identifier}.{fmt.ext}", identifier)
        rows.append([thumb] + [v for _, v in cells[identifier]] + [link])
    if rows:
        blocks.append(fmt.table(
            ["plot"] + [label for label, _ in cfg.descriptor_columns]
            + ["entry"], rows))
    return fmt.document(title, blocks)


def render_index(c: Collection, cfg: ReportConfig) -> dict[str, str]:
    """Render the complete page set as {relative path: content}.

    With `group_by`, one overview page per distinct group value plus a
    root index; otherwise a single root overview.  Every entry appears
    exactly once across overview tables, and every link resolves inside
    the returned set.  Each entry's plot is rendered once.
    """
    fmt = _FORMATS[cfg.format]
    pages: dict[str, str] = {}
    plot_ids: set[str] = set()
    cells: dict[str, list[tuple[str, str]]] = {}
    for entry in c.entries:
        try:
            pages[f"plots/{entry.identifier}.svg"] = render_plot(
                entry, cfg.plot_x, cfg.plot_y)
            plot_ids.add(entry.identifier)
        except UnitpackError:
            pass
        cells[entry.identifier] = _descriptor_cells(entry, cfg)
        pages[f"entries/{entry.identifier}.{fmt.ext}"] = render_entry_page(
            entry, cfg, entry.identifier in plot_ids, cells[entry.identifier])

    title = "Collection report"
    if cfg.group_by is None:
        pages[f"index.{fmt.ext}"] = _overview_page(
            fmt, title, list(c.entries), cfg, "", plot_ids, cells)
        return pages

    groups: dict[str, list[Entry]] = {}
    for entry in c.entries:
        groups.setdefault(_group_value(entry, cfg), []).append(entry)
    taken: set[str] = set()
    rows = []
    for value in sorted(groups):
        page = f"groups/{_slug(value, taken)}.{fmt.ext}"
        pages[page] = _overview_page(fmt, value, groups[value], cfg, "../",
                                     plot_ids, cells)
        rows.append([fmt.link(page, value), str(len(groups[value]))])
    pages[f"index.{fmt.ext}"] = fmt.document(title, [
        fmt.heading(title),
        fmt.paragraph(f"{_entries_text(len(c))} in {len(groups)} group(s)."),
        fmt.table(["group", "entries"], rows),
    ])
    return pages


def write_report(c: Collection, cfg: ReportConfig) -> list[Path]:
    """Render and write the full page tree under cfg.out_dir.

    Afterwards the files under ``entries/``, ``plots/`` and ``groups/``,
    and the root index, are exactly the page set: pages an earlier run
    left there (a removed entry, the other format) are deleted.  Other
    files in cfg.out_dir are left alone.
    """
    pages = render_index(c, cfg)
    written = []
    for rel_path in sorted(pages):
        target = cfg.out_dir / rel_path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(pages[rel_path], encoding="utf-8")
        written.append(target)
    owned = [cfg.out_dir / f"index.{fmt.ext}" for fmt in _FORMATS.values()]
    for subdir in ("entries", "plots", "groups"):
        owned.extend((cfg.out_dir / subdir).rglob("*"))
    for path in owned:
        if path.is_file() and \
                path.relative_to(cfg.out_dir).as_posix() not in pages:
            path.unlink()
    return written
