"""The unitpack benchmark.

    python3 perfbench/run.py --workload {browse,publish,ingest} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a unitpack checkout: it drives the CLI of the
source tree under ``src/`` as subprocesses, on inputs generated from the
seed, and checks every output against the generator's answers.

With ``--trace 0`` it measures the end-to-end metrics for S seconds;
times of processes that run flat out are scaled to a reference machine
speed (see `Pace`).
With ``--trace 1`` it runs each command of the workload once plainly and
once through ``traced.py`` and reports the per-layer metrics.  A summary
is printed first; the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``,
whose metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import gen
import oracle
import spans
from harness import Program, Tally, Watcher, peak_child_rss_mb, quantile

ROOT = Path(__file__).resolve().parent.parent

SETUP_REPEATS = 3
IMPORT_REPEATS = 5
REFERENCE_S = 0.25  # reference.py's time at the nominal machine speed

# browse: many short packages; publish: few long ones.  Both hold 400k rows.
SIZES = {"browse": (2000, 200), "publish": (200, 2000)}
KINDS = {"browse": ("ls", "show", "describe", "rescale"),
         "publish": ("report_md", "report_html", "rescale")}

# ingest: the watched tree, the open-loop arrivals and the pack share.
SUBDIRS, PER_DIR, EXISTING_ROWS = 40, 100, 20
ARRIVAL_ROWS = 2000
RATE_PER_S = 4.0
IDLE_S = 3.0
DRAIN_S = 2.0
PACK_EVERY = 4
PROBE_EVERY_S = 0.2
TAG_TIMEOUT_S = 15.0
READY_TIMEOUT_S = 30.0


class Run:
    """State of one benchmark invocation."""

    def __init__(self, args, work: Path, defs: list[dict]):
        self.args = args
        self.work = work
        self.defs = defs  # the BENCHMARK.json metrics this run reports
        self.trace = bool(args.trace)
        self.prog = Program(ROOT, work)
        self.tally = Tally()
        self.values: dict[str, float] = {}
        self.lines: list[str] = []

    def show(self, name: str, unit: str, value: float,
             n: int | str = "") -> None:
        """One line of the human-readable summary."""
        self.lines.append(f"  {name:<36} {value:>14.6g} {unit:<6} n={n}")

    def check(self, label: str, done, check) -> None:
        """Count one operation: failed on a non-zero exit or a bad output."""
        if done.returncode != 0:
            problems = [f"{label}: exit {done.returncode}: "
                        f"{done.stderr.strip()[:300]}"]
        else:
            problems = check(done.stdout)
        self.tally.add(problems)

    def show_failed(self) -> None:
        frac = self.tally.failed / max(self.tally.attempted, 1)
        self.show("failed_frac", "1", frac,
                  f"{self.tally.failed}/{self.tally.attempted}")

    def finish_common(self) -> None:
        self.values["peak_rss_mb"] = peak_child_rss_mb()
        self.show("peak_rss_mb", "MB", self.values["peak_rss_mb"])
        self.show_failed()


class Pace:
    """Scales CPU-bound durations to one fixed machine speed.

    The shared machine's speed drifts by 10-20% over minutes, which would
    swamp the differences the benchmark exists to show.  The reference
    workload (reference.py) is timed before the first measured step and
    after each one, and a step's duration is multiplied by REFERENCE_S
    over the mean of the two reference times around it.  Timer-bound
    waits, such as the watcher's quiescence, are not scaled.
    """

    def __init__(self, prog: Program):
        self.prog = prog
        self.refs = [prog.reference_s()]

    def factor(self) -> float:
        """Time the reference again; the factor for the step just done."""
        self.refs.append(self.prog.reference_s())
        return REFERENCE_S / statistics.fmean(self.refs[-2:])

    def show(self, run: Run) -> None:
        run.show("reference_s", "s", statistics.median(self.refs),
                 len(self.refs))


# --- browse and publish -----------------------------------------------------

def pack_collection(coll: gen.Collection, target: Path) -> float:
    """Pack every raw file through build_entry + save_entry; seconds."""
    from unitpack import datapackage, metadata

    start = time.perf_counter()
    for identifier in coll.ids:
        entry = datapackage.build_entry(
            coll.csv_path(identifier),
            metadata.load_document(coll.meta_path(identifier)))
        datapackage.save_entry(entry, target)
    return time.perf_counter() - start


class Commands:
    """The command of each kind, with its output check, for round k."""

    def __init__(self, coll: gen.Collection, coll_dir: Path, out_dir: Path):
        self.coll = coll
        self.coll_dir = str(coll_dir)
        self.out_dir = out_dir

    def make(self, kind: str, k: int):
        """(CLI arguments, stdout check, output dir to remove after)."""
        coll, v = self.coll, k % gen.VARIANTS
        if kind == "ls":
            filters, want = coll.ls_queries[v]
            args = ["ls", self.coll_dir]
            for clause in filters:
                args += ["--filter", clause]
            return args, lambda out: oracle.check_stdout("ls", out, want), None
        if kind == "show":
            identifier, want = coll.show_cases[v]
            return (["show", self.coll_dir, identifier, "--path", "user"],
                    lambda out: oracle.check_stdout("show", out, want), None)
        if kind == "describe":
            return (["describe", self.coll_dir, "--profile",
                     str(coll.profile_path)],
                    lambda out: oracle.check_stdout("describe", out,
                                                    coll.describe_stdout),
                    None)
        out_dir = self.out_dir / f"{kind}-{k}"
        if kind == "rescale":
            identifier = coll.rescale_ids[v]
            return (["rescale", self.coll_dir, identifier, "--field", "U",
                     "--unit", "V", "--outdir", str(out_dir)],
                    lambda out: oracle.check_rescale(
                        out_dir, identifier, coll.csv_path(identifier),
                        coll.metadata[identifier], out),
                    out_dir)
        fmt, ext = {"report_md": ("markdown", "md"),
                    "report_html": ("html", "html")}[kind]
        return (["report", self.coll_dir, "--out", str(out_dir), "--x", "t",
                 "--y", "U", "--group-by", gen.MATERIAL_PATH, "--column",
                 "user=user", "--format", fmt],
                lambda out: oracle.check_stdout(kind, out, "") +
                oracle.check_report(out_dir, ext, coll.groups(), coll.rows),
                out_dir)


def execute(run: Run, cmds: Commands, kind: str, k: int,
            trace_id: str | None = None):
    args, check, out_dir = cmds.make(kind, k)
    done = run.prog.run(args, trace_id)
    run.check(kind, done, check)
    if out_dir is not None:
        shutil.rmtree(out_dir, ignore_errors=True)
    return done


def cli_workload(run: Run) -> None:
    name = run.args.workload
    kinds = KINDS[name]
    entries, rows = SIZES[name]
    coll = gen.generate_collection(run.work / "in", run.args.seed, entries,
                                   rows)
    if run.trace:
        target = run.work / "collection"
        pack_collection(coll, target)
        cmds = Commands(coll, target, run.work / "out")
        run.prog.run(["--help"])  # warm the interpreter and bytecode caches
        plain = traced = 0.0
        for k, kind in enumerate(kinds):
            plain += execute(run, cmds, kind, k).wall_s
            traced += execute(run, cmds, kind, k, f"{name}/{kind}").wall_s
        layer_metrics(run, traced / plain - 1.0)
        return

    run.prog.run(["--help"])  # warm the interpreter and bytecode caches
    pace = Pace(run.prog)
    setup_times = []
    for r in range(SETUP_REPEATS):
        target = run.work / f"collection-{r}"
        setup_times.append(pack_collection(coll, target) * pace.factor())
        if r:
            shutil.rmtree(run.work / f"collection-{r - 1}")
    cmds = Commands(coll, target, run.work / "out")

    # The run lasts until the commands themselves have taken --seconds.
    walls: dict[str, list[float]] = {kind: [] for kind in kinds}
    cpus: dict[str, list[float]] = {kind: [] for kind in kinds}
    raw: dict[str, list[float]] = {kind: [] for kind in kinds}
    measured = 0.0
    k = 0
    while k < len(kinds) or measured < run.args.seconds:
        kind = kinds[k % len(kinds)]
        done = execute(run, cmds, kind, k)
        factor = pace.factor()
        walls[kind].append(done.wall_s * factor)
        raw[kind].append(done.wall_s)
        cpus[kind].append(done.cpu_s * factor)
        measured += done.wall_s
        k += 1
    # Each kind weighs the same however many of it fitted in the run.
    medians = {kind: statistics.median(v) for kind, v in walls.items()}
    run.values["setup_s"] = statistics.median(setup_times)
    run.values["wait_s"] = statistics.fmean(medians.values())
    run.values["cpu_per_op_s"] = statistics.fmean(
        statistics.median(v) for v in cpus.values())
    run.show("setup_s", "s", run.values["setup_s"], len(setup_times))
    for kind in kinds:
        run.show(f"{kind}_s", "s", medians[kind], len(walls[kind]))
    run.show("wait_s", "s", run.values["wait_s"], k)
    run.show("  unscaled", "s", statistics.fmean(
        statistics.median(v) for v in raw.values()), k)
    run.show("cpu_per_op_s", "s", run.values["cpu_per_op_s"], k)
    pace.show(run)
    run.finish_common()


# --- ingest ------------------------------------------------------------------

def meta_path(path: Path) -> Path:
    return Path(f"{path}.meta.yaml")


def untag(tree: gen.WatchTree, log: Path) -> None:
    for path in tree.existing:
        meta_path(path).unlink(missing_ok=True)
    log.unlink(missing_ok=True)


def backfill(run: Run, tree: gen.WatchTree, log: Path,
             trace_id: str | None = None) -> float:
    args = ["watch", "--dir", str(tree.watch_dir), "--template",
            str(tree.template_path), "--log", str(log), "--backfill"]
    done = run.prog.run(args, trace_id)

    def check(stdout: str) -> list[str]:
        try:
            events = [json.loads(line) for line in stdout.splitlines()]
        except ValueError:
            return ["backfill: stdout is not JSON lines"]
        stamps = {e["source_path"]: e["timestamp"] for e in events
                  if e.get("event") == "tagged"}
        if set(stamps) != {str(p) for p in tree.existing}:
            return [f"backfill: tagged {len(stamps)} of "
                    f"{len(tree.existing)} files"]
        problems = []
        for path in tree.existing:
            problems += oracle.sidecar_problems(
                meta_path(path), path, tree.template_text,
                tree.template_hash, stamps[str(path)])
        return problems

    run.check("backfill", done, check)
    return done.wall_s


def await_ready(watcher: Watcher, probe_dir: Path) -> float | None:
    """Write probe files until one is tagged; seconds from the watcher's
    start to that event.  Probes written before the watcher's first scan
    count as pre-existing and are never tagged, hence more than one."""
    probe_dir.mkdir()
    probes: list[Path] = []
    deadline = watcher.started + READY_TIMEOUT_S
    while time.monotonic() < deadline and watcher.proc.poll() is None:
        probe = probe_dir / f"probe-{len(probes):03d}.csv"
        probe.write_text("t,U\n0.0,1.0\n", encoding="utf-8")
        probes.append(probe)
        until = time.monotonic() + PROBE_EVERY_S
        while time.monotonic() < until:
            hits = [(seen[0], i) for i, p in enumerate(probes)
                    if (seen := watcher.seen(p)) is not None]
            if hits:
                ready_at, first = min(hits)
                # Later probes were written after the first scan: let them
                # be tagged so the idle window that follows is idle.
                watcher.wait_tagged(probes[first + 1:],
                                    time.monotonic() + TAG_TIMEOUT_S)
                return ready_at - watcher.started
            time.sleep(0.005)
    return None


def due_at(tree: gen.WatchTree, t0: float, k: int) -> float:
    """When arrival k is due: at its seeded point in slot k of 1/rate."""
    return t0 + (k + tree.slot_offsets[k]) / RATE_PER_S


def write_arrivals(tree: gen.WatchTree, t0: float, lags: list[float]) -> None:
    """Open loop: each file is written when it is due, whatever the
    watcher is doing; lags record how late each write started."""
    tree.arrival_dir.mkdir()
    for k, (path, data) in enumerate(tree.arrivals):
        due = due_at(tree, t0, k)
        delay = due - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        lags.append(time.monotonic() - due)
        path.write_bytes(data)


def ingest(run: Run) -> None:
    seconds = run.args.seconds
    arrivals = max(PACK_EVERY,
                   int(RATE_PER_S * max(seconds - IDLE_S - DRAIN_S, 1.0)))
    tree = gen.generate_watch_tree(run.work / "in", run.args.seed, SUBDIRS,
                                   PER_DIR, EXISTING_ROWS, arrivals,
                                   ARRIVAL_ROWS)
    log = run.work / "autotag.log.jsonl"
    db = run.work / "db"
    run.prog.run(["--help"])  # warm the interpreter and bytecode caches

    setup_times, plain, traced = [], 0.0, 0.0
    if run.trace:
        plain += backfill(run, tree, log)
        untag(tree, log)
        traced += backfill(run, tree, log, "ingest/backfill")
    else:
        pace = Pace(run.prog)
        for r in range(SETUP_REPEATS):
            if r:
                untag(tree, log)
            setup_times.append(backfill(run, tree, log) * pace.factor())

    watch_args = ["watch", "--dir", str(tree.watch_dir), "--template",
                  str(tree.template_path), "--log", str(log)]
    if run.trace:
        argv = run.prog.argv([str(tree.watch_dir), str(tree.template_path),
                              str(log)], "ingest/watch", mode="watch")
    else:
        argv = run.prog.argv(watch_args)
    watcher = Watcher(argv, run.prog.env, ROOT, run.work / "watch.stderr")
    lags: list[float] = []
    writer = None
    pack_walls, pack_cpu = [], 0.0
    try:
        ready_s = await_ready(watcher, tree.watch_dir / "probe")
        if not run.tally.add([] if ready_s is not None
                             else ["watch: no probe tagged in time"]):
            ready_s = READY_TIMEOUT_S
        idle_lo, cpu_lo = time.monotonic(), watcher.cpu_s()
        time.sleep(IDLE_S)
        idle_hi, cpu_idle = time.monotonic(), watcher.cpu_s()

        t0 = time.monotonic() + 0.05
        writer = threading.Thread(target=write_arrivals,
                                  args=(tree, t0, lags))
        writer.start()
        for k in range(0, arrivals, PACK_EVERY):
            path = tree.arrivals[k][0]
            if not watcher.wait_tagged([path],
                                       due_at(tree, t0, k) + TAG_TIMEOUT_S):
                run.tally.add([f"pack: {path.name} never tagged"])
                continue
            stamp = watcher.seen(path)[1]["timestamp"]
            for trace_id in ((None, "ingest/pack") if run.trace else (None,)):
                out = db / ("traced" if trace_id else "plain")
                done = run.prog.run(["pack", str(path), "--outdir", str(out)],
                                    trace_id)
                run.check("pack", done, lambda stdout: oracle.check_pack(
                    out, path, tree.template_doc, tree.template_hash, stamp,
                    stdout))
                if trace_id:
                    traced += done.wall_s
                else:
                    plain += done.wall_s
                    pack_walls.append(done.wall_s)
                    pack_cpu += done.cpu_s
        writer.join()
        writer = None
        watcher.wait_tagged([p for p, _ in tree.arrivals],
                            due_at(tree, t0, arrivals - 1) + TAG_TIMEOUT_S)
        cpu_hi = watcher.cpu_s()
    finally:
        if writer is not None:
            writer.join()
        code = watcher.stop()
    stop_at = time.monotonic()
    run.tally.add([f"watch: exit {code}"] * (code != 0) +
                  [f"watch: {m}" for m in watcher.errors])

    latencies = []
    for k, (path, _) in enumerate(tree.arrivals):
        seen = watcher.seen(path)
        if seen is None:
            run.tally.add([f"watch: {path.name} untagged at shutdown"])
            continue
        latencies.append(seen[0] - due_at(tree, t0, k))
        run.tally.add(oracle.sidecar_problems(
            meta_path(path), path, tree.template_text, tree.template_hash,
            seen[1]["timestamp"]))
    lag_p95_ms = quantile(lags, 0.95) * 1000.0

    if run.trace:
        probe_dir = str(tree.watch_dir / "probe")
        probes = sum(1 for source in watcher.tagged
                     if source.startswith(probe_dir))
        layer_metrics(run, traced / plain - 1.0, lag_p95_ms,
                      (int(idle_lo * 1e9), int(idle_hi * 1e9)), probes)
        return

    # Nothing in the watcher session is scaled: no reference may run beside
    # the watcher, and its loop is paced by its poll timer anyway.
    pack_s = statistics.median(pack_walls)
    idle_cpu = (cpu_idle - cpu_lo) / (idle_hi - idle_lo)
    ops = len(latencies) + len(pack_walls)
    run.values["setup_s"] = statistics.median(setup_times) + ready_s
    run.values["wait_s"] = statistics.fmean(
        [statistics.median(latencies), pack_s])
    run.values["cpu_per_op_s"] = ((cpu_hi - cpu_lo) + pack_cpu) / ops
    run.show("setup_s", "s", run.values["setup_s"], len(setup_times))
    run.show("  backfill_s", "s", statistics.median(setup_times),
             len(setup_times))
    run.show("  ready_s", "s", ready_s, 1)
    run.show("tag_latency_p50_ms", "ms", quantile(latencies, 0.5) * 1000.0,
             len(latencies))
    run.show("tag_latency_p95_ms", "ms", quantile(latencies, 0.95) * 1000.0,
             len(latencies))
    run.show("pack_s", "s", pack_s, len(pack_walls))
    run.show("watch_idle_cpu", "CPU-s/s", idle_cpu, f"{IDLE_S:g}s")
    run.show("wait_s", "s", run.values["wait_s"], ops)
    run.show("cpu_per_op_s", "s", run.values["cpu_per_op_s"], ops)
    run.show("ingest.generator_lag_p95_ms", "ms", lag_p95_ms, len(lags))
    run.show("  measured_wall_s", "s", stop_at - idle_lo)
    pace.show(run)
    run.finish_common()


# --- per-layer metrics from the traced processes ---------------------------

SPAN_STATS = ("calls", "s", "self_s")


def layer_metrics(run: Run, overhead: float, lag_p95_ms: float = 0.0,
                  idle_ns: tuple[int, int] | None = None,
                  probes_tagged: int = 0) -> None:
    """Per-layer metrics from the span files of the traced processes.
    `autotag.tag_file.calls` leaves out the readiness probes, whose number
    depends on how fast the watcher starts."""
    records = []
    for path in run.prog.traced_runs:
        if run.tally.add([] if path.is_file()
                         else [f"trace: {path.name} not written"]):
            records.append(json.loads(path.read_text(encoding="utf-8")))
    totals: dict[str, dict[str, float]] = {}
    counts: Counter = Counter()
    loaded = used = 0
    for rec in records:
        per_run = spans.span_times(rec["names"], rec["spans"])
        for name, stats in per_run.items():
            agg = totals.setdefault(name, {"calls": 0, "s": 0.0,
                                           "self_s": 0.0})
            for stat in SPAN_STATS:
                agg[stat] += stats[stat]
        counts.update(rec["counts"])
        n = rec["counts"].get("collection.entries_loaded", 0)
        loaded += n
        used += n if rec["used"] is None else rec["used"]
        breakdown = ", ".join(
            f"{key}={int(per_run.get(key, {}).get('calls', 0))}"
            for key in ("datapackage.load_entry", "tabular.read_table",
                        "units.parse_unit", "metadata.get_path",
                        "report.render_plot"))
        run.lines.append(f"  [{rec['run_id']}] {breakdown}")

    values = {
        "cli.import_s": run.prog.import_s(IMPORT_REPEATS),
        "collection.useful_ratio": used / loaded if loaded else 0.0,
        "ingest.generator_lag_p95_ms": lag_p95_ms,
        "trace.overhead_frac": overhead,
        "autotag.polls": 0, "autotag.poll_busy_ms": 0.0,
        "autotag.path_matches.calls_per_poll": 0.0,
    }
    read_s = totals.get("tabular.read_table", {}).get("s", 0.0)
    values["tabular.cells_per_s"] = \
        counts["tabular.cells_typed"] / read_s if read_s else 0.0
    watch = [r for r in records if r["run_id"] == "ingest/watch"]
    if watch:
        polls = len(watch[0]["waits"])
        values["autotag.polls"] = polls
        values["autotag.poll_busy_ms"], _ = spans.idle_poll_busy_ms(
            watch[0]["waits"], *idle_ns)
        values["autotag.path_matches.calls_per_poll"] = \
            watch[0]["counts"].get("autotag.path_matches.calls", 0) / \
            max(polls, 1)

    values["autotag.tag_file.calls"] = totals.get(
        "autotag.tag_file", {}).get("calls", 0) - probes_tagged
    wrapped = {name for name, _, _ in spans.public_functions().values()}
    for metric in run.defs:
        name = metric["name"]
        if name in values:
            continue
        base, _, stat = name.rpartition(".")
        if stat in SPAN_STATS:
            if base not in wrapped:
                raise ValueError(f"{name}: no unitpack function {base}")
            values[name] = totals.get(base, {}).get(stat, 0) or \
                counts.get(name, 0)
        else:
            values[name] = counts.get(name, 0)
    run.values.update(values)
    for metric in run.defs:
        run.show(metric["name"], metric["unit"], values[metric["name"]])
    run.show_failed()


WORKLOADS = {"browse": cli_workload, "publish": cli_workload,
             "ingest": ingest}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src, spec = ROOT / "src", ROOT / "BENCHMARK.json"
    if not (src / "unitpack" / "cli.py").is_file() or not spec.is_file():
        print(f"perfbench: {ROOT} is not a unitpack checkout (needs "
              f"src/unitpack and BENCHMARK.json)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    defs = json.loads(spec.read_text(encoding="utf-8"))[
        "per_layer" if args.trace else "end_to_end"]

    # Bytecode is built once, outside every timed region.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(src)],
                   check=True, capture_output=True)
    work = ROOT / ".perfbench_work" / \
        f"{args.workload}-{args.seed}-{time.time_ns()}"
    work.mkdir(parents=True)
    try:
        run = Run(args, work, defs)
        WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"unitpack benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    for line in run.lines:
        print(line)
    for problem in run.tally.problems[:20]:
        print(f"  FAILED {problem}")
    metrics = {m["name"]: {"value": run.values[m["name"]], "unit": m["unit"]}
               for m in defs}
    print(json.dumps({"correct": run.tally.failed == 0,
                      "attempted": run.tally.attempted,
                      "failed": run.tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
