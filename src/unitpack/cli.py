"""``unitpack`` command line: pack, validate, explore, rescale, report,
and watch: the whole pipeline over plain files.

Exit codes: 0 success, 1 domain or I/O error (one ``CODE: message``
line on stderr), 2 usage error; an interrupt ends the process as SIGINT
does, after the one line ``interrupted`` on stderr.  ``show`` and
``describe`` print JSON.  Set ``UNITPACK_NO_COLOR`` to disable the
little styling ``--pretty`` adds.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import threading
from pathlib import Path

from . import autotag, collection, datapackage, metadata, report, tabular
from .errors import MetaNotFound, ReportConfigInvalid, UnitpackError, error_code


def _styled(text: str) -> str:
    if os.environ.get("UNITPACK_NO_COLOR") or not sys.stdout.isatty():
        return text
    return f"\033[1m{text}\033[0m"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unitpack",
        description="File-system-native toolkit for unit-aware data "
                    "packages.",
        epilog="Set UNITPACK_NO_COLOR to disable styled output.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("watch", help="tag newly created files with metadata "
                                     "from a template")
    p.set_defaults(run=_cmd_watch)
    p.add_argument("--dir", required=True, help="directory to watch")
    p.add_argument("--template", required=True, help="YAML template file")
    p.add_argument("--quiescence-ms", type=int,
                   default=autotag.WatchConfig.quiescence_ms,
                   help="size-stability interval before tagging "
                        "(default %(default)s)")
    p.add_argument("--include", action="append",
                   metavar="GLOB", help="only tag matching names "
                                        "(repeatable; default *)")
    p.add_argument("--exclude", action="append",
                   metavar="GLOB", help="never tag matching names "
                                        "(repeatable; *.meta.yaml is always "
                                        "excluded)")
    p.add_argument("--no-recursive", action="store_true",
                   help="watch only the top-level directory")
    p.add_argument("--log", default=None, metavar="PATH",
                   help="JSON-lines event log (default: "
                        "<dir>/autotag.log.jsonl)")
    p.add_argument("--backfill", action="store_true",
                   help="tag existing untagged files once and exit")

    p = sub.add_parser("pack", help="bundle a CSV + its metadata into a "
                                    "data package")
    p.set_defaults(run=_cmd_pack)
    p.add_argument("csv", metavar="CSV")
    p.add_argument("--meta", default=None,
                   help="metadata file (default: CSV + .meta.yaml)")
    p.add_argument("--fields-path", default=datapackage.DEFAULT_FIELDS_PATH,
                   help="dot-path of the field spec list in the metadata")
    p.add_argument("--loader", default=None, metavar="SPEC",
                   help="loader spec YAML for nonstandard files")
    p.add_argument("--outdir", default=".", help="output directory")
    p.add_argument("--overwrite", action="store_true")

    p = sub.add_parser("validate", help="validate a metadata document "
                                        "against a schema")
    p.set_defaults(run=_cmd_validate)
    p.add_argument("doc", metavar="DOC")
    p.add_argument("--schema", required=True)

    p = sub.add_parser("ls", help="list entry identifiers in a collection")
    p.set_defaults(run=_cmd_ls)
    p.add_argument("dir", metavar="DIR")
    p.add_argument("--filter", action="append", default=[],
                   metavar="'PATH OP VALUE'",
                   help="keep entries matching the clause (repeatable, "
                        "conjunctive)")
    p.add_argument("--skip-errors", action="store_true",
                   help="skip unloadable descriptors with a warning")

    p = sub.add_parser("show", help="print an entry's metadata as JSON")
    p.set_defaults(run=_cmd_show)
    p.add_argument("dir", metavar="DIR")
    p.add_argument("id", metavar="ID")
    p.add_argument("--path", default=None, help="dot-path of a single node")

    p = sub.add_parser("rescale", help="convert a field to a new unit and "
                                       "save the package")
    p.set_defaults(run=_cmd_rescale)
    p.add_argument("dir", metavar="DIR")
    p.add_argument("id", metavar="ID")
    p.add_argument("--field", required=True)
    p.add_argument("--unit", required=True)
    p.add_argument("--outdir", required=True)
    p.add_argument("--overwrite", action="store_true")

    p = sub.add_parser("describe", help="summarize a collection as JSON")
    p.set_defaults(run=_cmd_describe)
    p.add_argument("dir", metavar="DIR")
    p.add_argument("--profile", default=None, metavar="FILE",
                   help="profile YAML (default: entry count + materials "
                        "+ references)")
    p.add_argument("--pretty", action="store_true",
                   help="human-oriented table instead of JSON")

    p = sub.add_parser("report", help="emit a static report for a "
                                      "collection")
    p.set_defaults(run=_cmd_report)
    p.add_argument("dir", metavar="DIR")
    p.add_argument("--out", required=True)
    p.add_argument("--x", required=True, dest="plot_x")
    p.add_argument("--y", required=True, dest="plot_y")
    p.add_argument("--group-by", default=None)
    p.add_argument("--format", choices=report.FORMATS, default="markdown")
    p.add_argument("--column", action="append", default=[],
                   metavar="LABEL=PATH",
                   help="descriptor column for overview tables "
                        "(repeatable)")
    return parser


def _cmd_watch(args) -> int:
    defaults = autotag.WatchConfig
    cfg = autotag.WatchConfig(
        watch_dir=args.dir,
        template_path=args.template,
        include_globs=tuple(args.include or defaults.include_globs),
        exclude_globs=tuple(args.exclude or defaults.exclude_globs),
        quiescence_ms=args.quiescence_ms,
        recursive=not args.no_recursive,
        log_path=args.log or None,
    )

    def sink(record: dict) -> None:
        # One write per record, where print makes two when unbuffered.
        sys.stdout.write(autotag.json_line(record) + "\n")

    if args.backfill:
        events = autotag.backfill(cfg, event_sink=sink)
        print(f"backfilled {len(events)} file(s)", file=sys.stderr)
        return 0
    stop = threading.Event()

    def request_stop(signum, frame) -> None:
        # Not `stop.set()` here: it takes a lock that the `stop.wait` this
        # handler may have interrupted still holds.
        threading.Thread(target=stop.set, daemon=True).start()

    # A signal the caller ignores (as a shell does SIGINT for a job it
    # starts in the background) stays ignored.
    previous = {signum: signal.signal(signum, request_stop)
                for signum in (signal.SIGINT, signal.SIGTERM)
                if signal.getsignal(signum) != signal.SIG_IGN}
    try:
        autotag.watch(cfg, event_sink=sink, stop_event=stop)
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    return 0


def _save(entry: datapackage.Entry, args) -> int:
    """Save `entry` under ``--outdir`` and print the two paths written."""
    for path in datapackage.save_entry(entry, args.outdir,
                                       overwrite=args.overwrite):
        print(path)
    return 0


def _cmd_pack(args) -> int:
    csv_path = Path(args.csv)
    meta_path = Path(args.meta or autotag.meta_path_for(csv_path))
    if not meta_path.is_file():
        raise MetaNotFound(f"metadata file not found: {meta_path}")
    doc = metadata.load_document(meta_path)
    if args.loader:
        spec = tabular.load_loader_spec(args.loader)
        table = tabular.apply_loader(csv_path, spec)
    else:
        table = tabular.read_table(csv_path)
    return _save(datapackage.build_entry_from_table(
        datapackage.identifier_from_path(csv_path), table, doc,
        args.fields_path), args)


def _cmd_validate(args) -> int:
    doc = metadata.load_document(args.doc)
    schema = metadata.load_schema(args.schema)
    violations = metadata.validate(doc, schema)
    for violation in violations:
        print(f"{violation.path}\t{violation.reason}")
    return 1 if violations else 0


def _load_collection(args) -> collection.Collection:
    return collection.from_directory(
        args.dir, skip_errors=getattr(args, "skip_errors", False))


def _cmd_ls(args) -> int:
    coll = _load_collection(args)
    clauses = [collection.parse_clause(text) for text in args.filter]
    if clauses:
        coll = collection.filter(coll, clauses)
    for identifier in coll.identifiers:
        print(identifier)
    return 0


def _cmd_show(args) -> int:
    entry = collection.get(_load_collection(args), args.id)
    node = entry.metadata.root if args.path is None \
        else metadata.get_path(entry.metadata, args.path)
    print(metadata.dump_json(node, indent=2))
    return 0


def _cmd_rescale(args) -> int:
    entry = collection.get(_load_collection(args), args.id)
    return _save(datapackage.rescale(entry, {args.field: args.unit}), args)


def _literal(value) -> str:
    """`value` as ``describe --pretty`` shows it: as `canonical_scalar`
    renders it, but a text in JSON quotes where, bare, it would read as
    another ``--filter`` literal (a number, ``true``, ``false`` or
    ``null``), so each value reads as what ``--filter`` matches it by."""
    if isinstance(value, str) and collection._parse_literal(value) != value:
        return metadata.dump_json(value)
    return metadata.canonical_scalar(value)


def _cmd_describe(args) -> int:
    coll = _load_collection(args)
    profile = collection.load_profile(args.profile) if args.profile \
        else collection.DEFAULT_PROFILE
    summary = collection.describe(coll, profile)
    if args.pretty:
        for key, value in summary.items():
            values = value if isinstance(value, list) else [value]
            rendered = ", ".join(map(_literal, values))
            print(f"{_styled(key)}: {rendered}")
    else:
        print(metadata.dump_json(summary, indent=2))
    return 0


def _cmd_report(args) -> int:
    coll = _load_collection(args)
    columns = []
    for item in args.column:
        label, sep, path = item.partition("=")
        if not sep or not label or not path:
            raise ReportConfigInvalid(
                f"--column expects LABEL=PATH, got {item!r}")
        columns.append((label, path))
    cfg = report.ReportConfig(
        out_dir=Path(args.out), plot_x=args.plot_x, plot_y=args.plot_y,
        group_by=args.group_by, descriptor_columns=tuple(columns),
        format=args.format)
    written = report.write_report(coll, cfg)
    print(f"wrote {len(written)} file(s) to {args.out}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (UnitpackError, OSError) as exc:
        print(f"{error_code(exc)}: {' '.join(str(exc).split())}",
              file=sys.stderr)
    return 1


def _excepthook(kind, value, traceback) -> None:
    if issubclass(kind, KeyboardInterrupt):
        print("interrupted", file=sys.stderr)
    else:
        sys.__excepthook__(kind, value, traceback)


def run() -> int:
    """`main` as a process's entry point (``python -m unitpack.cli`` and
    the ``unitpack`` script).  An interrupt still leaves it, so Python
    ends the process as SIGINT does, but its traceback is one line."""
    sys.excepthook = _excepthook
    return main()


if __name__ == "__main__":
    sys.exit(run())
