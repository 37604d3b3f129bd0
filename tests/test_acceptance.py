"""Acceptance suite: one test per criterion, each printing a pass/fail
line (run with ``pytest tests/test_acceptance.py -sv`` to see them all).
"""

import hashlib
import http.server
import math
import posixpath
import random
import re
import string
import threading
import time
import zipfile
from contextlib import contextmanager
from fractions import Fraction

import pytest

from unitpack import collection as collection_mod
from unitpack import units
from unitpack.autotag import WatchConfig, split_meta, watch
from unitpack.collection import Collection, describe, from_archive, \
    from_directory, parse_clause
from unitpack.datapackage import (
    Entry,
    FieldSpec,
    build_entry,
    build_entry_from_table,
    field_quantity,
    identifier_from_path,
    load_entry,
    rescale,
    save_entry,
)
from unitpack.metadata import MetadataDoc, SchemaDoc, \
    _check_schema_node, get_path, load_document, validate
from unitpack.report import ReportConfig, render_index
from unitpack.tabular import LoaderSpec, Table, apply_loader

from conftest import material_entry, strict_json, write_demo_fixture


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"\ncriterion {number:02d} FAIL  {description}")
        raise
    print(f"\ncriterion {number:02d} PASS  {description}")


# ---------------------------------------------------------------------------
# 1. Rescale reproduction
# ---------------------------------------------------------------------------

def test_criterion_01_rescale_reproduction(tmp_path):
    with criterion(1, "rescale U mV->V reproduces 0.00101 / 0.00102 / "
                      "0.00105"):
        started = time.perf_counter()
        csv_path, meta_path = write_demo_fixture(tmp_path)
        entry = build_entry(csv_path, load_document(meta_path))
        rescaled = rescale(entry, {"U": "V"})
        expected = (0.00101, 0.00102, 0.00105)
        for got, want in zip(rescaled.table.column_values("U"), expected):
            assert math.isclose(got, want, rel_tol=1e-12), (got, want)
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


# ---------------------------------------------------------------------------
# 2. Ohm's-law reproduction
# ---------------------------------------------------------------------------

def test_criterion_02_ohms_law(tmp_path):
    with criterion(2, "mean(U)=1.0 mV over current 5 mA converts to "
                      "0.2 Ohm"):
        started = time.perf_counter()
        csv_path = tmp_path / "flat.csv"
        csv_path.write_text("t,U\n0,1.0\n1,1.0\n2,1.0\n", encoding="utf-8")
        meta_path = tmp_path / "flat.csv.meta.yaml"
        meta_path.write_text(
            "user: Max Doe\ncurrent: 5 mA\nfigure description:\n  fields:\n"
            "    - name: t\n      unit: s\n    - name: U\n      unit: mV\n",
            encoding="utf-8")
        entry = build_entry(csv_path, load_document(meta_path))
        mean_u = field_quantity(entry, "U", "mean")
        current = units.parse_quantity(get_path(entry.metadata, "current"))
        resistance = (mean_u / current).to("Ohm")
        assert math.isclose(resistance.magnitude, 0.2, rel_tol=1e-12)
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


# ---------------------------------------------------------------------------
# 3. Round-trip suite over randomized entries
# ---------------------------------------------------------------------------

_UNIT_SYMBOLS = sorted(units._UNITS)
_UNIT_PREFIXES = [""] + sorted(units._PREFIXES)


def _random_unit_text(rng: random.Random) -> str:
    return rng.choice(_UNIT_PREFIXES) + rng.choice(_UNIT_SYMBOLS)


def _random_entry(rng: random.Random, index: int) -> Entry:
    n_cols = rng.randint(1, 8)
    n_rows = rng.randint(0, 50)
    names = []
    while len(names) < n_cols:
        name = rng.choice(string.ascii_lowercase) + "".join(
            rng.choices(string.ascii_lowercase + string.digits + "_",
                        k=rng.randint(0, 7)))
        if name not in names:
            names.append(name)
    fields = []
    for name in names:
        unit = _random_unit_text(rng) if rng.random() < 0.7 else None
        fields.append(FieldSpec(
            name=name, type=rng.choice(("number", "integer", "string")),
            unit=unit,
            description=rng.choice((None, "measured", "derived value"))))
    rows = []
    for _ in range(n_rows):
        row = []
        for _ in names:
            if rng.random() < 0.5:
                row.append(rng.randint(-10**6, 10**6))
            else:
                row.append(rng.uniform(-1e6, 1e6))
        rows.append(tuple(row))
    metadata = MetadataDoc(root={
        "user": rng.choice(("Max Doe", "Ada Lovelace")),
        "run": index,
        "settings": {"gain": rng.uniform(0, 10),
                     "tags": ["a", "b"][: rng.randint(0, 2)]},
    })
    return Entry(identifier=f"entry{index:03d}", fields=tuple(fields),
                 table=Table(columns=tuple(names), rows=tuple(rows)),
                 metadata=metadata)


def test_criterion_03_roundtrip_randomized_entries(tmp_path):
    with criterion(3, "save/load round-trip over 200 randomized entries"):
        rng = random.Random(20260809)
        failures = 0
        for index in range(200):
            entry = _random_entry(rng, index)
            json_path, _ = save_entry(entry, tmp_path)
            strict_json(json_path.read_text(encoding="utf-8"))
            if load_entry(json_path) != entry:
                failures += 1
        assert failures == 0


# ---------------------------------------------------------------------------
# 4. Unit engine properties over 1000 random pairs
# ---------------------------------------------------------------------------

def _random_unit_expr_text(rng: random.Random) -> str:
    n = rng.randint(1, 4)
    parts = []
    for i in range(n):
        token = _random_unit_text(rng)
        exp = rng.randint(-3, 3)
        if exp != 1:
            token += f"^{exp}"
        parts.append(token if i == 0 else rng.choice("*/") + token)
    return "".join(parts)


def test_criterion_04_unit_engine_properties():
    with criterion(4, "exact inverse/triangle factors and parse-render "
                      "identity over 1000 random pairs"):
        rng = random.Random(13)
        one = Fraction(1)
        for _ in range(1000):
            base = units.parse_unit(_random_unit_expr_text(rng))
            p1 = rng.choice(_UNIT_PREFIXES)
            p2 = rng.choice(_UNIT_PREFIXES)
            scale1 = units._PREFIXES.get(p1, one)
            scale2 = units._PREFIXES.get(p2, one)
            a = units.UnitExpr(scale=base.scale * scale1, dims=base.dims,
                               factors=base.factors)
            b = units.UnitExpr(scale=base.scale * scale2, dims=base.dims,
                               factors=base.factors)
            assert units.conversion_factor(a, b) * \
                units.conversion_factor(b, a) == one
            assert units.conversion_factor(a, base) == \
                units.conversion_factor(a, b) * \
                units.conversion_factor(b, base)
            assert units.parse_unit(base.canonical_text) == base


# ---------------------------------------------------------------------------
# 5. Collection semantics vs brute-force oracle
# ---------------------------------------------------------------------------

def test_criterion_05_collection_vs_oracle():
    with criterion(5, "filter/describe equal brute-force comprehensions; "
                      "describe shape matches the demonstrator"):
        entries = (
            material_entry("cv-pt-1", "Pt"),
            material_entry("cv-pt-2", "Pt", user="Ada Lovelace"),
            material_entry("cv-au-1", "Au"),
            material_entry("cv-ag-1", "Ag"),
            material_entry("cv-cu-1", "Cu", user="Ada Lovelace"),
        )
        db = Collection(entries=entries)

        def material(e):
            return e.metadata.root["system"]["electrodes"][
                "working_electrode"]["material"]

        filtered = collection_mod.filter(
            db, parse_clause('user == "Max Doe"'))
        oracle = {e.identifier for e in entries
                  if e.metadata.root["user"] == "Max Doe"}
        assert set(filtered.identifiers) == oracle

        filtered_pt = collection_mod.filter(db, parse_clause(
            "system.electrodes.working_electrode.material == Pt"))
        oracle_pt = {e.identifier for e in entries if material(e) == "Pt"}
        assert set(filtered_pt.identifiers) == oracle_pt

        summary = describe(db)
        assert summary["number of entries"] == len(entries)
        assert summary["materials"] == sorted({material(e)
                                               for e in entries})
        assert summary["materials"] == ["Ag", "Au", "Cu", "Pt"]
        assert summary["references"] == sorted(
            {e.metadata.root["source"]["citation_key"] for e in entries})
        # shape of the demonstrator: an entry count plus a materials set
        assert isinstance(summary["number of entries"], int)
        assert isinstance(summary["materials"], list)


# ---------------------------------------------------------------------------
# 6. Watcher integration: 100-file burst with a mid-burst template edit
# ---------------------------------------------------------------------------

def test_criterion_06_watcher_burst(tmp_path):
    with criterion(6, "100-file burst -> exactly 100 sidecars, "
                      "0 meta-of-meta, contents partition by template "
                      "hash"):
        started = time.perf_counter()
        watch_dir = tmp_path / "incoming"
        watch_dir.mkdir()
        template_path = tmp_path / "template.yaml"
        template_text_1 = "user: Max Doe\ncurrent: 5 mA\n"
        template_text_2 = "user: Max Doe\ncurrent: 7 mA\n"
        template_path.write_text(template_text_1, encoding="utf-8")
        cfg = WatchConfig(watch_dir=watch_dir, template_path=template_path,
                          quiescence_ms=100)
        stop = threading.Event()
        thread = threading.Thread(target=watch, args=(cfg, None, stop),
                                  daemon=True)
        thread.start()
        time.sleep(0.3)

        def meta_count():
            return len(list(watch_dir.glob("*.meta.yaml")))

        def wait_for(count, timeout):
            deadline = time.monotonic() + timeout
            while time.monotonic() < deadline:
                if meta_count() >= count:
                    return True
                time.sleep(0.02)
            return False

        try:
            for i in range(50):
                (watch_dir / f"run{i:03d}.csv").write_text(
                    f"t,U\n{i},1.0\n", encoding="utf-8")
            assert wait_for(50, timeout=5.0), "first batch not tagged"
            template_path.write_text(template_text_2, encoding="utf-8")
            time.sleep(0.3)
            for i in range(50, 100):
                (watch_dir / f"run{i:03d}.csv").write_text(
                    f"t,U\n{i},1.0\n", encoding="utf-8")
            assert wait_for(100, timeout=5.0), "second batch not tagged"
            time.sleep(0.3)  # settle: no extra tags may appear
        finally:
            stop.set()
            thread.join(timeout=5)

        metas = sorted(watch_dir.glob("*.meta.yaml"))
        assert len(metas) == 100
        assert list(watch_dir.glob("*.meta.yaml.meta.yaml")) == []

        by_hash: dict[str, list[str]] = {}
        for meta in metas:
            body, block = split_meta(meta.read_text(encoding="utf-8"))
            by_hash.setdefault(block["template_hash"], []).append(body)
        # partition exactly by template hash: two templates were active,
        # and within each hash group every body is that template verbatim
        hash_1 = hashlib.sha256(template_text_1.encode()).hexdigest()
        hash_2 = hashlib.sha256(template_text_2.encode()).hexdigest()
        assert set(by_hash) == {hash_1, hash_2}
        assert set(by_hash[hash_1]) == {template_text_1}
        assert set(by_hash[hash_2]) == {template_text_2}
        assert len(by_hash[hash_1]) == 50
        assert len(by_hash[hash_2]) == 50
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"took {elapsed:.3f}s"


# ---------------------------------------------------------------------------
# 7. Validator conformance table
# ---------------------------------------------------------------------------

def _schema(tree) -> SchemaDoc:
    _check_schema_node(tree, "")
    return SchemaDoc(root=tree)


def test_criterion_07_validator_conformance():
    with criterion(7, "12-case keyword table yields exactly the expected "
                      "violation paths"):
        typed = _schema({"type": "object",
                         "properties": {"user": {"type": "string"}}})
        required = _schema({"type": "object", "required": ["user"]})
        enum = _schema({"type": "object",
                        "properties": {"mode": {"enum": ["fast", "slow"]}}})
        items = _schema({"type": "object",
                         "properties": {"tags": {"type": "array",
                                                 "items": {"type":
                                                           "string"}}}})
        nested = _schema({"type": "object",
                          "properties": {"system": {
                              "type": "object",
                              "properties": {"material":
                                             {"type": "string"}}}}})
        closed = _schema({"type": "object",
                          "properties": {"user": {"type": "string"}},
                          "additionalProperties": False})

        cases = [
            # (keyword, doc, schema, expected violation paths)
            ("type ok", {"user": "Max"}, typed, []),
            ("type bad", {"user": 42}, typed, ["user"]),
            ("required ok", {"user": "Max"}, required, []),
            ("required bad", {}, required, ["user"]),
            ("enum ok", {"mode": "fast"}, enum, []),
            ("enum bad", {"mode": "warp"}, enum, ["mode"]),
            ("items ok", {"tags": ["a", "b"]}, items, []),
            ("items bad", {"tags": ["a", 3]}, items, ["tags.1"]),
            ("properties ok", {"system": {"material": "Pt"}}, nested, []),
            ("properties bad", {"system": {"material": 5}}, nested,
             ["system.material"]),
            ("additionalProperties ok", {"user": "Max"}, closed, []),
            ("additionalProperties bad", {"user": "Max", "extra": 1},
             closed, ["extra"]),
        ]
        assert len(cases) == 12
        for label, tree, schema, expected_paths in cases:
            got = [v.path for v in validate(MetadataDoc(root=tree), schema)]
            assert got == expected_paths, \
                f"{label}: expected {expected_paths}, got {got}"


# ---------------------------------------------------------------------------
# 8. Loader standardization
# ---------------------------------------------------------------------------

def test_criterion_08_loader_standardization(tmp_path):
    with criterion(8, "wild file packs into schema field U [mV] with an "
                      "identical cell multiset"):
        source_numbers = [(0, 1.5), (1, 2.5), (2, 3.5)]
        lines = ["Device: Frobulator 3000", "Mode: sweep", "Operator: MD",
                 "t,voltage [mV]"]
        lines += [f"{t},{u}" for t, u in source_numbers]
        lines += ["END OF RUN", "STATUS OK"]
        wild = tmp_path / "run9.txt"
        wild.write_text("\n".join(lines) + "\n", encoding="utf-8")

        spec = LoaderSpec(header_row=3, skip_footer=2,
                          rename={"voltage [mV]": "U"})
        table = apply_loader(wild, spec)
        metadata = MetadataDoc(root={"figure description": {"fields": [
            {"name": "t", "unit": "s"}, {"name": "U", "unit": "mV"}]}})
        entry = build_entry_from_table(identifier_from_path(wild), table,
                                       metadata)
        out = save_entry(entry, tmp_path / "out")
        loaded = load_entry(out[0])
        field = loaded.field("U")
        assert field.unit == "mV"
        got_cells = sorted(c for row in loaded.table.rows for c in row)
        want_cells = sorted([v for pair in source_numbers for v in pair])
        assert got_cells == want_cells


# ---------------------------------------------------------------------------
# 9. Report determinism and link closure
# ---------------------------------------------------------------------------

def _closure_ok(pages: dict) -> bool:
    for page_path, content in pages.items():
        if page_path.endswith(".svg"):
            continue
        base = posixpath.dirname(page_path)
        for match in re.finditer(r"\]\(([^)]+)\)", content):
            resolved = posixpath.normpath(posixpath.join(base,
                                                         match.group(1)))
            if resolved not in pages:
                return False
    return True


def test_criterion_09_report_determinism(tmp_path):
    with criterion(9, "grouped report renders byte-identically twice and "
                      "all links resolve"):
        db = Collection(entries=(
            material_entry("cv-pt-1", "Pt"),
            material_entry("cv-pt-2", "Pt"),
            material_entry("cv-au-1", "Au"),
        ))
        cfg = ReportConfig(
            out_dir=tmp_path / "site", plot_x="t", plot_y="U",
            group_by="system.electrodes.working_electrode.material",
            descriptor_columns=(("user", "user"),), format="markdown")
        first = render_index(db, cfg)
        second = render_index(db, cfg)
        assert first == second
        assert _closure_ok(first)
        groups = [p for p in first if p.startswith("groups/")]
        assert len(groups) == 2


# ---------------------------------------------------------------------------
# 10. from_archive over a locally served ZIP (optional/networked)
# ---------------------------------------------------------------------------

@pytest.mark.networked
def test_criterion_10_archive_equals_directory(tmp_path):
    with criterion(10, "from_archive(zip over local HTTP) equals "
                       "from_directory"):
        outdir = tmp_path / "db"
        write_demo_fixture(tmp_path)
        entry = build_entry(tmp_path / "data.csv",
                            load_document(tmp_path / "data.csv.meta.yaml"))
        save_entry(entry, outdir)
        save_entry(material_entry("cv-pt-1", "Pt"), outdir)
        save_entry(material_entry("cv-au-1", "Au"), outdir)

        zip_path = tmp_path / "db.zip"
        with zipfile.ZipFile(zip_path, "w") as archive:
            for path in sorted(outdir.rglob("*")):
                if path.is_file():
                    archive.write(path, path.relative_to(outdir))

        class QuietHandler(http.server.SimpleHTTPRequestHandler):
            def log_message(self, *args):
                pass

        handler = lambda *a, **kw: QuietHandler(
            *a, directory=str(tmp_path), **kw)
        server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            url = f"http://127.0.0.1:{server.server_address[1]}/db.zip"
            assert from_archive(url) == from_directory(outdir)
            assert from_archive(zip_path) == from_directory(outdir)
        finally:
            server.shutdown()
            thread.join()
            server.server_close()
