"""Self-tests of the benchmark: generator determinism, self-time
arithmetic, wrapper transparency, and the oracle catching corrupted
outputs.  Run from the repository root:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import oracle
import spans

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from unitpack import cli, datapackage, metadata  # noqa: E402


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _watch_tree(root: Path, seed: int) -> gen.WatchTree:
    return gen.generate_watch_tree(root, seed, subdirs=3, per_dir=4,
                                   existing_rows=5, arrivals=3,
                                   arrival_rows=7)


def test_generator_is_deterministic(tmp_path):
    a = gen.generate_collection(tmp_path / "a", 7, entries=12, rows=9)
    b = gen.generate_collection(tmp_path / "b", 7, entries=12, rows=9)
    c = gen.generate_collection(tmp_path / "c", 8, entries=12, rows=9)
    assert _tree_bytes(tmp_path / "a") == _tree_bytes(tmp_path / "b")
    assert _tree_bytes(tmp_path / "a") != _tree_bytes(tmp_path / "c")
    assert a.ls_queries == b.ls_queries and a.show_cases == b.show_cases
    assert all(out for _, out in a.ls_queries)

    wa, wb = _watch_tree(tmp_path / "wa", 7), _watch_tree(tmp_path / "wb", 7)
    assert _tree_bytes(tmp_path / "wa") == _tree_bytes(tmp_path / "wb")
    assert wa.arrivals[0][1] == wb.arrivals[0][1]
    assert _tree_bytes(tmp_path / "wa") != \
        _tree_bytes(_watch_tree(tmp_path / "wc", 8).watch_dir.parent)


def test_self_time_on_hand_built_tree():
    names = ["a", "b", "c", "d"]
    tree = [[0, 0, 100, -1],   # a: 0..100
            [1, 10, 30, 0],    # b: 10..30 under a
            [2, 20, 50, 0],    # c: 20..50 under a, overlapping b
            [3, 25, 35, 2],    # d: 25..35 under c
            [0, 40, 45, 2]]    # a again, nested in c under a
    times = spans.span_times(names, tree)
    ns = 1e-9
    assert times["a"]["calls"] == 2
    # a's children cover 10..50 (union of b and c): self 60 + nested a 5.
    assert times["a"]["self_s"] == pytest.approx((60 + 5) * ns)
    # The nested a lies inside the outer a, so inclusive time counts once.
    assert times["a"]["s"] == pytest.approx(100 * ns)
    assert times["b"]["self_s"] == pytest.approx(20 * ns)
    assert times["c"]["self_s"] == pytest.approx((30 - 10 - 5) * ns)
    assert times["d"]["s"] == pytest.approx(10 * ns)


def test_idle_poll_busy():
    waits = [(0, 80), (100, 180), (200, 280)]
    busy, polls = spans.idle_poll_busy_ms(
        [(s * 10**6, e * 10**6) for s, e in waits], 0, 300 * 10**6)
    assert polls == 3
    assert busy == pytest.approx((300 - 240) / 3)


def test_wrappers_return_and_raise_exactly():
    rec = spans.Recorder("t")
    marker, error = object(), KeyError("boom")

    def ok(x):
        return x

    def bad():
        raise error

    assert spans._span_wrapper(rec, "m.ok", ok, None)(marker) is marker
    with pytest.raises(KeyError) as caught:
        spans._span_wrapper(rec, "m.bad", bad, None)()
    assert caught.value is error
    assert [s[2] > 0 for s in rec.spans] == [True, True]
    assert rec._stack == []


def _packed(tmp_path, entries=6, rows=5) -> tuple[gen.Collection, Path]:
    coll = gen.generate_collection(tmp_path / "in", 3, entries, rows)
    target = tmp_path / "coll"
    for identifier in coll.ids:
        datapackage.save_entry(datapackage.build_entry(
            coll.csv_path(identifier),
            metadata.load_document(coll.meta_path(identifier))), target)
    return coll, target


def test_traced_cli_matches_plain_and_nests_spans(tmp_path):
    coll, target = _packed(tmp_path)
    env = {"PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0"}
    args = ["ls", str(target), "--filter", coll.ls_queries[0][0][0]]
    plain = subprocess.run([sys.executable, "-m", "unitpack.cli", *args],
                           capture_output=True, text=True, env=env)
    out = tmp_path / "spans.json"
    traced = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced.py"), str(out),
         "t/ls", "cli", *args], capture_output=True, text=True, env=env)
    assert (traced.returncode, traced.stdout) == (0, plain.stdout)
    rec = json.loads(out.read_text())
    names = rec["names"]
    by_name = {}
    for span in rec["spans"]:
        by_name.setdefault(names[span[0]], []).append(span)
    loads = by_name["datapackage.load_entry"]
    assert len(loads) == len(coll.ids) == len(by_name["tabular.read_table"])
    assert {names[rec["spans"][s[3]][0]] for s in loads} == \
        {"collection.from_directory"}
    assert rec["counts"]["collection.entries_loaded"] == len(coll.ids)


def test_oracle_accepts_correct_and_catches_corrupt_outputs(tmp_path):
    coll, target = _packed(tmp_path)
    filters, want = coll.ls_queries[0]
    assert oracle.check_stdout("ls", want, want) == []
    dropped = "".join(want.splitlines(keepends=True)[1:])
    assert oracle.check_stdout("ls", dropped, want)

    out = tmp_path / "report"
    assert cli.main(["report", str(target), "--out", str(out), "--x", "t",
                     "--y", "U", "--group-by", gen.MATERIAL_PATH]) == 0
    groups = coll.groups()
    assert oracle.check_report(out, "md", groups, coll.rows) == []
    plot = out / "plots" / f"{coll.ids[0]}.svg"
    plot.write_text(plot.read_text()[:-20])
    assert any("truncated" in p
               for p in oracle.check_report(out, "md", groups, coll.rows))
    plot.unlink()
    assert oracle.check_report(out, "md", groups, coll.rows)

    identifier = coll.ids[1]
    rescaled = tmp_path / "rescaled"
    assert cli.main(["rescale", str(target), identifier, "--field", "U",
                     "--unit", "V", "--outdir", str(rescaled)]) == 0
    stdout = f"{rescaled / identifier}.json\n{rescaled / identifier}.csv\n"
    args = (rescaled, identifier, coll.csv_path(identifier),
            coll.metadata[identifier], stdout)
    assert oracle.check_rescale(*args) == []
    csv_path = rescaled / f"{identifier}.csv"
    lines = csv_path.read_text().splitlines(keepends=True)
    t, u = lines[1].rstrip("\n").split(",")
    lines[1] = f"{t},{float(u) * 1.000001!r}\n"
    csv_path.write_text("".join(lines))
    assert oracle.check_rescale(*args)


def test_oracle_checks_sidecars(tmp_path):
    tree = _watch_tree(tmp_path, 5)
    source = tree.existing[0]
    sidecar = Path(f"{source}.meta.yaml")
    stamp = "2026-01-02T03:04:05.678+00:00"
    sidecar.write_text(
        tree.template_text + f"autotag:\n  tagged: '{stamp}'\n"
        f"  file: {source.name}\n  template_hash: {tree.template_hash}\n")
    args = (sidecar, source, tree.template_text, tree.template_hash, stamp)
    assert oracle.sidecar_problems(*args) == []
    sidecar.write_text(sidecar.read_text().replace(source.name, "other.csv"))
    assert oracle.sidecar_problems(*args)
    shutil.rmtree(tree.watch_dir)
    assert oracle.sidecar_problems(*args)
