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
import math
import os
import re
from collections.abc import Iterator
from contextlib import ExitStack
from dataclasses import dataclass, replace
from pathlib import Path
from urllib.parse import quote

from .collection import Collection
from .datapackage import Entry
from .errors import (NonNumericCell, OutOfRange, ReportConfigInvalid,
                     TooFewPoints, UnitpackError, UnknownField)
from .metadata import (ABSENT, _staged, _walk, canonical_scalar,
                       dump_json, find_path, is_scalar)
from .tabular import Table, _is_number, _plain_numbers, render_cell

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
            raise ReportConfigInvalid("plot_x and plot_y must differ")
        if self.format not in FORMATS:
            raise ReportConfigInvalid(
                f"format must be {' or '.join(map(repr, FORMATS))}, got "
                f"{self.format!r}")


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
    try:
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
    except OverflowError:  # an int cell beyond the float range
        raise OutOfRange(f"field {x!r} or {y!r} holds a cell beyond the "
                         f"float range") from None
    if len(xs) < 2:
        raise TooFewPoints(
            f"need at least 2 numeric rows to plot, found {len(xs)}")

    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(ys), max(ys)
    x_range, y_range = x_max - x_min, y_max - y_min
    for name, span in ((x, x_range), (y, y_range)):
        if not math.isfinite(span):
            raise OutOfRange(f"the span of field {name!r} is beyond the "
                             f"float range")
    plot_w = _VIEW_W - 2 * _MARGIN_X
    plot_h = _VIEW_H - 2 * _MARGIN_Y
    left, bottom = _MARGIN_X, _VIEW_H - _MARGIN_Y
    mid_x, mid_y = _VIEW_W / 2, _VIEW_H / 2
    points = [mid_x, mid_y] * len(xs)  # a flat axis stays on its midline
    if x_max != x_min:
        points[0::2] = [left + (px - x_min) / x_range * plot_w for px in xs]
    if y_max != y_min:
        points[1::2] = [bottom - (py - y_min) / y_range * plot_h for py in ys]
    # "%.2f" writes what f"{v:.2f}" writes, in one call for the line.
    coords = ("%.2f,%.2f " * len(xs) % tuple(points))[:-1]
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
    if node is ABSENT:
        return MISSING
    if is_scalar(node):
        return canonical_scalar(node)
    return dump_json(node)


def _descriptor_cells(entry: Entry, cfg: ReportConfig) -> list[tuple[str, str]]:
    return [(label, _node_text(find_path(entry.metadata, path)))
            for label, path in cfg.descriptor_columns]


def _group_value(entry: Entry, cfg: ReportConfig) -> str:
    node = find_path(entry.metadata, cfg.group_by)
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


def _tree(root, parts) -> str:
    """Render a metadata tree in one walk that takes nodes from a stack,
    not by recursion, so a document nested as deep as a parser allows
    cannot overflow Python's stack.  ``parts(node, depth)`` gives the
    text before and after a node and its members as ``(opening, member,
    closing)`` triples; a scalar has no members."""
    out, pending = [], [(root, 0)]
    while pending:
        item = pending.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node, depth = item
        before, after, members = parts(node, depth)
        out.append(before)
        pending.append(after)
        for opening, member, closing in reversed(members):
            pending += (closing, (member, depth + 1), opening)
    return "".join(out)


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
        """One line per member, each a list item indented by its depth; a
        scalar root is a list of one.  Each line starts with its newline,
        so the first is cut."""
        text = _tree([node] if is_scalar(node) else node, self._tree_parts)
        return text[1:] + "\n" if text else self.note("empty")

    @staticmethod
    def _tree_parts(node, depth: int):
        pad = "\n" + "  " * depth
        if isinstance(node, dict):
            return "", "", [(f"{pad}- **{key}:**", value, "")
                            for key, value in node.items()]
        if isinstance(node, list):
            return "", "", [(f"{pad}-", item, "") for item in node]
        return f" {canonical_scalar(node)}", "", ()

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
        return _tree(node, self._tree_parts) + "\n"

    @staticmethod
    def _tree_parts(node, depth: int):
        if isinstance(node, dict):
            return "<dl>", "</dl>", [
                (f"<dt>{html_lib.escape(str(key))}</dt><dd>", value, "</dd>")
                for key, value in node.items()]
        if isinstance(node, list):
            return "<ul>", "</ul>", [("<li>", item, "</li>") for item in node]
        return html_lib.escape(canonical_scalar(node)), "", ()

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
FORMATS = tuple(_FORMATS)


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
    preview = zip(*(cells[:10] for cells in entry.table._body()))
    blocks += [
        fmt.heading("Data preview", 2),
        fmt.table([_axis_label(entry, f.name) for f in entry.fields],
                  [map(render_cell, row) for row in preview]),
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


def _pages(c: Collection, cfg: ReportConfig) -> Iterator[tuple[str, str]]:
    """Yield (relative path, content) for each page of the report: each
    entry's plot and page as soon as they are rendered, then the overview
    pages.

    Each entry's cells are read once, through a copy of its lazy table,
    and dropped with that copy when its pages are done: the collection's
    entries stay lazy, and memory holds one entry's cells at a time.
    An axis that no entry declares is an `UnknownField`, raised from the
    descriptors before the first page.
    """
    declared = {spec.name for entry in c.entries for spec in entry.fields}
    for axis in (cfg.plot_x, cfg.plot_y):
        if c.entries and axis not in declared:
            raise UnknownField(f"no entry has a field {axis!r} to plot "
                               f"(fields: {', '.join(sorted(declared))})")
    fmt = _FORMATS[cfg.format]
    plot_ids: set[str] = set()
    cells: dict[str, list[tuple[str, str]]] = {}
    for lazy in c.entries:
        entry = replace(lazy, table=Table(lazy.table.columns,
                                          _cells=lazy.table._cells))
        entry.table.row_count  # the one read of the cells, before plotting
        try:
            plot = render_plot(entry, cfg.plot_x, cfg.plot_y)
        except UnitpackError:
            pass
        else:
            plot_ids.add(entry.identifier)
            yield f"plots/{entry.identifier}.svg", plot
        cells[entry.identifier] = _descriptor_cells(entry, cfg)
        yield f"entries/{entry.identifier}.{fmt.ext}", render_entry_page(
            entry, cfg, entry.identifier in plot_ids, cells[entry.identifier])

    title = "Collection report"
    if cfg.group_by is None:
        yield f"index.{fmt.ext}", _overview_page(
            fmt, title, list(c.entries), cfg, "", plot_ids, cells)
        return

    groups: dict[str, list[Entry]] = {}
    for entry in c.entries:
        groups.setdefault(_group_value(entry, cfg), []).append(entry)
    taken: set[str] = set()
    rows = []
    for value in sorted(groups):
        page = f"groups/{_slug(value, taken)}.{fmt.ext}"
        yield page, _overview_page(fmt, value, groups[value], cfg, "../",
                                   plot_ids, cells)
        rows.append([fmt.link(page, value), str(len(groups[value]))])
    yield f"index.{fmt.ext}", fmt.document(title, [
        fmt.heading(title),
        fmt.paragraph(f"{_entries_text(len(c))} in {len(groups)} group(s)."),
        fmt.table(["group", "entries"], rows),
    ])


def render_index(c: Collection, cfg: ReportConfig) -> dict[str, str]:
    """Render the complete page set as {relative path: content}.

    With `group_by`, one overview page per distinct group value plus a
    root index; otherwise a single root overview.  Every entry appears
    exactly once across overview tables, and every link resolves inside
    the returned set.  Each entry's plot is rendered once.
    """
    return dict(_pages(c, cfg))


def write_report(c: Collection, cfg: ReportConfig) -> list[Path]:
    """Render and write the full page tree under cfg.out_dir.

    Pages come from `_pages`, so memory holds one entry's cells at a time.
    Each page is written to a temporary file beside it as soon as it is
    rendered; only once every page is staged are they moved into place
    with `os.replace`, in sorted order.  A failure before that removes the
    temporary files and leaves every old page, though the page directories
    may already have been made; one during the renames can leave some
    pages new and some old, each whole.  Afterwards the files under
    ``entries/``, ``plots/`` and ``groups/``, and the root index, are
    exactly the page set: pages an earlier run left there (a removed
    entry, the other format) are deleted.  Other files in cfg.out_dir are
    left alone.
    """
    staged: dict[str, tuple[str, Path]] = {}
    made: set[Path] = set()
    written = []
    with ExitStack() as stack:
        for rel_path, text in _pages(c, cfg):
            target = cfg.out_dir / rel_path
            if target.parent not in made:
                target.parent.mkdir(parents=True, exist_ok=True)
                made.add(target.parent)
            temp = stack.enter_context(_staged(target))
            Path(temp).write_text(text, encoding="utf-8")
            staged[rel_path] = temp, target
        for rel_path in sorted(staged):
            temp, target = staged[rel_path]
            os.replace(temp, target)
            written.append(target)
    out = str(cfg.out_dir)
    indexes = {f"index.{fmt.ext}" for fmt in _FORMATS.values()}
    owned = _walk(out, lambda path: os.path.basename(path) in indexes,
                  recursive=False)
    for subdir in ("entries", "plots", "groups"):
        owned += _walk(os.path.join(out, subdir), lambda path: True)
    for path in owned:
        if os.path.relpath(path, out).replace(os.sep, "/") not in staged:
            os.unlink(path)
    return written
