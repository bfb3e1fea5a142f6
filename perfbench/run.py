"""Benchmark for the `dps` CLI and the dpstates library.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cli-tour --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12   # every workload, traced and not
    python3 perfbench/run.py --smoke                                 # every operation once, all checks

A run sets up (writes inputs, fills the program's caches) several times
and reports the median, then repeats whole rounds of the workload's
operations until ``--seconds`` have passed.  Each operation is checked
against an independent computation.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``,
which are the end-to-end metrics with ``--trace 0`` and the per-layer
metrics with ``--trace 1``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import array
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(NPROC)
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402  (after the thread setting)

import api_workload  # noqa: E402
import cli_workloads  # noqa: E402
import spans  # noqa: E402

SETUP_REPEATS = 5
TAIL_SAMPLES = 10  # a reported tail percentile has at least this many operations beyond it
# api-calls set-up again in a fresh interpreter: the cache fills a new process pays
SETUP_PROBE = (
    "import time, api_workload, dpstates\n"
    "t = time.perf_counter(); api_workload.fill_caches(dpstates); print(time.perf_counter() - t)"
)
IMPORT_REPEATS = 3
WORKLOAD_NAMES = ("cli-tour", "cli-identify", "cli-compute", "api-calls")
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cmd_p50_s": "s",
    "call_p50_us": "us",
    "call_p99_us": "us",
    "peak_rss_mb": "MB",
}
SPAN_UNITS = {"calls": "count", "self_s": "s", "peak_mb": "MB"}
# (metric, unit, traced function, what the metric reads from its spans)
LAYER_SPANS = [(f"{fn}.{kind}", SPAN_UNITS[kind], fn, kind) for fn, kinds in spans.TRACED.items() for kind in kinds]
PER_LAYER_OTHER = {
    "cli.import.s": "s",
    "cli.import_scipy.s": "s",
    "cli.cmd.self_s": "s",
    "linalg.eigensolves.calls": "count",
    "linalg.eigensolves_per_identify": "ratio",
    "trace.wall_s": "s",
}


def child_env(*paths: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *map(str, paths), *filter(None, [env.get("PYTHONPATH")])])
    return env


class Run:
    """What one run measured, whatever the workload."""

    def __init__(self) -> None:
        self.setups: list[float] = []
        self.rounds: list[float] = []  # summed operation time of each round
        self.latencies = array.array("d")  # seconds per operation, in the order run
        self.block = 0  # operations per percentile block, set by the workload
        self.peak_rss_mb = 0.0
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.known: dict[str, str] = {}
        self.setup_totals = spans.Totals()
        self.totals = spans.Totals()
        self.imports: dict[str, float] = {}
        self.ops_per_round = 0

    def record(self, label: str, seconds: float, error: str | None, fault: str | None) -> None:
        self.attempted += 1
        self.latencies.append(seconds)
        if error is None:
            return
        self.failed += 1
        if fault is None:
            self.unexpected.append(f"{label}: {error}")
        else:
            self.known[label] = f"{fault} [{error}]"

    def percentiles(self) -> tuple[float, float]:
        """Median over blocks of each block's median and tail percentile.

        A slowdown that hits part of a run moves only the blocks it hits.
        The tail is the 99th percentile where a block holds 1000 or more
        operations, so that ten lie beyond it (api-calls: ten rounds per
        block).  A CLI round is far shorter, so there the tail is the
        highest percentile with ten commands beyond it, and at least the
        median: a 29-command cli-tour round gives p65, the others p50.
        """
        lat = np.asarray(self.latencies)
        size = min(self.block, lat.size)
        blocks = lat[: lat.size // size * size].reshape(-1, size)
        tail = 100.0 * min(0.99, max(0.5, 1.0 - TAIL_SAMPLES / size))
        p50 = np.median(np.percentile(blocks, 50, axis=1))
        p99 = np.median(np.percentile(blocks, tail, axis=1))
        return float(p50), float(p99)

    def end_to_end(self) -> dict:
        p50, p99 = self.percentiles()
        values = {
            "setup_s": statistics.median(self.setups),
            "wall_s": statistics.median(self.rounds),
            "cmd_p50_s": p50,
            "call_p50_us": p50 * 1e6,
            "call_p99_us": p99 * 1e6,
            "peak_rss_mb": self.peak_rss_mb,
        }
        return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}

    def per_layer(self) -> dict:
        n = len(self.rounds)
        s, t = self.setup_totals, self.totals

        def per_round(setup_value, round_value):
            v = setup_value + round_value / n
            return int(v) if float(v).is_integer() else v

        values: dict[str, float] = {}
        for metric, _, fn, kind in LAYER_SPANS:
            if kind == "calls":
                values[metric] = per_round(s.calls.get(fn, 0), t.calls.get(fn, 0))
            elif kind == "self_s":
                values[metric] = per_round(s.self_s(fn), t.self_s(fn))
            else:
                values[metric] = max(s.peak.get(fn, 0), t.peak.get(fn, 0)) / 1e6
        cmd = sum(v for k, v in t.self_ns.items() if k.startswith("cli.cmd_")) / 1e9
        solves = s.identify_solves + t.identify_solves / n
        tests = s.identify_tests + t.identify_tests / n
        values.update(
            {
                "cli.import.s": self.imports["dpstates.cli"],
                "cli.import_scipy.s": self.imports["scipy"],
                "cli.cmd.self_s": cmd / n,
                "linalg.eigensolves.calls": per_round(s.eigensolves, t.eigensolves),
                "linalg.eigensolves_per_identify": solves / tests if tests else 0.0,
                "trace.wall_s": statistics.median(self.rounds),
            }
        )
        units = {m: u for m, u, _, _ in LAYER_SPANS} | PER_LAYER_OTHER
        return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


# ---------------------------------------------------------------------------
# CLI workloads


def run_dps(argv: list[str], work: Path, span_file: Path | None):
    """Run one dps process; return (outcome, wall seconds, max RSS in MB)."""
    if span_file is None:
        cmd = [sys.executable, "-m", "dpstates", *argv]
    else:
        cmd = [sys.executable, str(HERE / "cli_shim.py"), str(span_file), *argv]
    out_path, err_path = work / ".stdout", work / ".stderr"
    with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=fo, stderr=fe, cwd=work, env=child_env())
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    outcome = cli_workloads.Outcome(proc.returncode, out_path.read_bytes(), err_path.read_bytes(), work)
    return outcome, wall, usage.ru_maxrss / 1024.0


def import_times() -> dict[str, float]:
    """Median cumulative import time of dpstates.cli and of the scipy it pulls in."""
    samples = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import dpstates.cli"],
            capture_output=True, text=True, env=child_env(), cwd=ROOT, check=True,
        )
        rows = []
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = line.split("|")
            if cumulative.strip().isdigit():
                rows.append((len(name) - len(name.lstrip()), name.strip(), int(cumulative) / 1e6))
        cli = sum(c for _, n, c in rows if n == "dpstates.cli")
        scipy = 0.0
        for i, (depth, name, cum) in enumerate(rows):
            if name.split(".")[0] != "scipy":
                continue
            parent = next((r for r in rows[i + 1 :] if r[0] < depth), None)
            if parent is None or parent[1].split(".")[0] != "scipy":
                scipy += cum
        samples.append((cli, scipy))
    return {
        "dpstates.cli": statistics.median(s[0] for s in samples),
        "scipy": statistics.median(s[1] for s in samples),
    }


def run_cli(name: str, seed: int, seconds: float, trace: bool, smoke: bool, log) -> Run:
    run = Run()
    build = cli_workloads.WORKLOADS[name]
    work = WORK / name
    for _ in range(1 if trace or smoke else SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        t0 = time.perf_counter()
        work.mkdir(parents=True)
        ops = build(work, seed)
        warm, _, _ = run_dps(["--help"], work, None)
        run.setups.append(time.perf_counter() - t0)
        if warm.code != 0:
            raise SystemExit(f"dps --help failed: {warm.last_error()}")
    if trace:
        run.imports = import_times()
    run.ops_per_round = run.block = len(ops)
    if trace:
        (work / "spans").mkdir()
    deadline = time.perf_counter() + seconds
    while True:
        total = 0.0
        for i, op in enumerate(ops):
            span_file = work / "spans" / f"round{len(run.rounds)}-op{i:02d}.npz" if trace else None
            outcome, wall, rss = run_dps(op.argv, work, span_file)
            total += wall
            run.peak_rss_mb = max(run.peak_rss_mb, rss)
            try:
                op.check(outcome)
                error = None
            except cli_workloads.CheckError as exc:
                error = str(exc)
            except Exception as exc:  # malformed output: the operation failed, the run goes on
                error = f"{type(exc).__name__}: {exc}"
            run.record(op.label, wall, error, op.fault)
            if span_file is not None and span_file.exists():
                run.totals.add_file(span_file)
            log(op.label, wall, error, op.fault)
        run.rounds.append(total)
        if smoke or time.perf_counter() >= deadline:
            return run


# ---------------------------------------------------------------------------
# api-calls


def run_api(seed: int, seconds: float, trace: bool, smoke: bool, log) -> Run:
    run = Run()
    import dpstates as dp

    rec = None
    if trace:
        rec = spans.Recorder()
        spans.install(rec)
        run.imports = import_times()
    t0 = time.perf_counter()
    api_workload.fill_caches(dp)
    run.setups.append(time.perf_counter() - t0)
    for _ in range(0 if trace or smoke else SETUP_REPEATS - 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE], capture_output=True, text=True, env=child_env(HERE), check=True
        )
        run.setups.append(float(proc.stdout))
    if rec is not None:
        run.setup_totals.add_recorder(rec)
        shutil.rmtree(WORK / "api-calls", ignore_errors=True)
        (WORK / "api-calls").mkdir(parents=True)
        rec.dump(WORK / "api-calls" / "spans-setup.npz")
    calls = api_workload.build(dp, seed)
    if rec is not None:
        rec.reset()
    run.ops_per_round = len(calls)
    run.block = api_workload.BLOCK_ROUNDS * len(calls)
    deadline = time.perf_counter() + seconds
    while True:
        total = 0
        for call in calls:
            ns, error = api_workload.run_call(dp, call)
            total += ns
            run.record(call.label, ns / 1e9, error, call.fault)
            log(call.label, ns / 1e9, error, call.fault)
        run.rounds.append(total / 1e9)
        if smoke or time.perf_counter() >= deadline:
            break
    if rec is not None:
        tracemalloc.stop()
        run.totals.add_recorder(rec)
        rec.dump(WORK / "api-calls" / "spans-rounds.npz")
    run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return run


# ---------------------------------------------------------------------------
# reporting


def environment() -> dict:
    from importlib import metadata

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or "unknown"

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": NPROC,
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "commit": commit,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False, log=None) -> Run:
    log = log or (lambda *a: None)
    if name == "api-calls":
        return run_api(seed, seconds, trace, smoke, log)
    return run_cli(name, seed, seconds, trace, smoke, log)


def result_line(run: Run, trace: bool) -> dict:
    return {
        "correct": not run.unexpected,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": run.per_layer() if trace else run.end_to_end(),
    }


def print_failures(run: Run) -> None:
    for label, why in run.known.items():
        print(f"known fault: {label}: {why}", file=sys.stderr)
    for line in run.unexpected[:20]:
        print(f"FAILED: {line}", file=sys.stderr)


def smoke(names, seed: int) -> int:
    bad = 0
    for name in names:
        def log(label, seconds, error, fault):
            status = "ok" if error is None else ("known fault" if fault else "FAILED")
            print(f"  {status:11s} {seconds * 1e3:10.3f} ms  {label}" + (f"  -- {error}" if error else ""))

        print(f"{name}:")
        run = run_workload(name, seed, 0.0, trace=False, smoke=True, log=log)
        print(f"  {run.attempted} operations, {run.failed} failed, {len(run.unexpected)} unexpectedly")
        bad += len(run.unexpected)
    return 1 if bad else 0


def run_all(seed: int, seconds: float) -> int:
    """Each workload untraced then traced, each in its own process, as the tables show."""
    bad = 0
    for name in WORKLOAD_NAMES:
        lines = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, cwd=ROOT,
            )
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            out = proc.stdout.strip().splitlines()
            lines[trace] = (json.loads(out[-1]), next(x for x in out if x.startswith("info:")), proc.stderr)
        (plain, info, stderr), (traced, _, _) = lines[0], lines[1]
        e2e, layers = plain["metrics"], traced["metrics"]
        print(f"\n== {name}  (seed {seed}; {info[6:]}; {plain['attempted']} attempted, "
              f"{plain['failed']} failed, {'correct' if plain['correct'] else 'INCORRECT'})")
        for k, m in e2e.items():
            print(f"  {k:40s} {m['value']:14.6g} {m['unit']}")
        print(f"  {'tracing overhead (traced - untraced wall_s)':40s} "
              f"{layers['trace.wall_s']['value'] - e2e['wall_s']['value']:14.6g} s")
        for k, m in layers.items():
            print(f"  {k:40s} {m['value']:14.6g} {m['unit']}")
        sys.stderr.write(stderr)
        bad += (not plain["correct"]) + (not traced["correct"])
    print("env:", json.dumps(environment()))
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="every operation once, with all checks")
    args = parser.parse_args(argv)
    args.seed %= 1 << 64  # numpy seed sequences take non-negative entropy only

    if not (SRC / "dpstates" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'dpstates'} is missing", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    if args.smoke:
        return smoke(WORKLOAD_NAMES if args.workload == "all" else (args.workload,), args.seed)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_failures(run)
    print(f"info: {run.ops_per_round} operations per round, {len(run.rounds)} rounds, "
          f"{len(run.latencies)} latency samples, {len(run.setups)} set-ups")
    print("env:", json.dumps(environment()))
    print(json.dumps(result_line(run, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
