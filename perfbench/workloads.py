"""The benchmark's four workloads, their output checks and their metrics.

Each workload drives a public surface of ``repro`` (``run_campaign``,
``Workbench`` / ``CompiledFunction.simulate``, or ``python -m repro serve``
through ``ServeClient``), checks every output against the reference values
in :data:`REFERENCE`, and reports the end-to-end metrics of
:data:`E2E_METRICS`.  With ``trace`` set it instead runs one unit of work
untraced and one traced, and reports the per-layer metrics of
:data:`tracing.LAYER_METRICS`.  README.md in this directory says why each
workload exists and which layers it stresses.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from tracing import LAYER_METRICS, Recorder, install_repro_spans, layer_values

#: (name, unit) of every end-to-end metric; every workload reports all of them.
E2E_METRICS = (
    ("setup_s", "s"),
    ("cells_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

WORKLOADS = ("construction-sweep", "tiny-cells", "serve-memo", "batch-population")

#: What each spec must compute, written out here rather than read from the
#: spec objects, so the check does not share code with what it checks.
REFERENCE: Dict[str, Callable[[Tuple[int, ...]], int]] = {
    "double": lambda x: 2 * x[0],
    "identity": lambda x: x[0],
    "min_one": lambda x: min(1, x[0]),
    "floor_3x_over_2": lambda x: 3 * x[0] // 2,
    "minimum": lambda x: min(x),
    "weighted_floor": lambda x: (2 * x[0] + 3 * x[1]) // 4,
    "interior_min_plus_one": lambda x: min(x) + 1 if min(x) > 0 else 0,
    "fig4a_style": lambda x: (
        min(x[0], x[1], 1) if min(x) < 2 else min(x[0], x[1], (x[0] + x[1] + 1) // 2 - 1)
    ),
    "min3_with_offset": lambda x: min(x[0] + 1, x[1] + 1, x[2] + 1, (sum(x) + 2) // 3 + 1),
}


def reference_output(spec: str, x: Sequence[int]) -> int:
    return REFERENCE[spec](tuple(int(v) for v in x))


#: The Lemma 6.2 general constructions: R = 38, 45, 132 (2-D) and 100 (3-D).
GENERAL_2D = ("weighted_floor", "interior_min_plus_one", "fig4a_style")
GENERAL_3D = ("min3_with_offset",)
#: Known constructions with one to three reactions.
TINY_SPECS = ("double", "min_one", "identity", "floor_3x_over_2")
SCALAR_ENGINES = ("python", "nrm")


@dataclass(frozen=True)
class Sizes:
    """How much work one unit of each workload does (tests shrink it)."""

    setup_samples: int = 5
    sweep_axis_2d: Tuple[int, ...] = (10, 20, 30, 40, 50)
    sweep_axis_3d: Tuple[int, ...] = (10, 30)
    sweep_trials: int = 4
    tiny_inputs: int = 200
    serve_round: int = 250
    serve_max_input: int = 30
    serve_trials: int = 4
    serve_job_inputs: int = 34
    batch_population: int = 3500
    batch_trials: int = 64
    batch_big_population: int = 250_000
    batch_big_trials: int = 512


SMOKE = Sizes(
    setup_samples=1,
    sweep_axis_2d=(2, 3),
    sweep_axis_3d=(2,),
    sweep_trials=1,
    tiny_inputs=3,
    serve_round=10,
    serve_max_input=4,
    serve_trials=1,
    serve_job_inputs=2,
    batch_population=40,
    batch_trials=4,
    batch_big_population=400,
    batch_big_trials=8,
)


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    trace: bool
    workdir: str
    src_dir: str
    sizes: Sizes = Sizes()
    expect: Callable[[str, Sequence[int]], int] = reference_output


@dataclass
class Result:
    attempted: int
    failed: int
    metrics: Dict[str, Tuple[float, str]]
    details: List[str]
    recorder: Optional[Recorder] = None

    @property
    def correct(self) -> bool:
        return self.failed == 0


class Checker:
    """Counts operations and the ones whose output was wrong."""

    def __init__(self, expect: Callable[[str, Sequence[int]], int]) -> None:
        self.expect = expect
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(what)
        return ok

    def row(self, row) -> bool:
        """A campaign row (``CellResult`` or its dict) that must be right."""
        get = row.get if isinstance(row, dict) else (lambda key: getattr(row, key))
        spec, x = get("spec"), tuple(get("input"))
        ok = (
            get("status") == "ok"
            and get("converged") is True
            and get("correct") is True
            and get("output_mode") == self.expect(spec, x)
        )
        return self.op(ok, f"{spec}{list(x)}: {get('status')} output {get('output_mode')}")


@dataclass
class Tally:
    """What the timed units did: throughput counts and latency samples."""

    cells: int = 0
    cell_s: float = 0.0
    events: int = 0
    event_s: float = 0.0
    latencies: List[float] = field(default_factory=list)
    phases: Dict[str, List[float]] = field(default_factory=lambda: defaultdict(lambda: [0, 0.0]))

    def phase(self, name: str, cells: int, seconds: float) -> None:
        self.phases[name][0] += cells
        self.phases[name][1] += seconds

    def rate(self, name: str) -> float:
        cells, seconds = self.phases[name]
        return cells / seconds if seconds > 0 else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (no interpolation between samples)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _jitter_axis(rng: random.Random, axis: Sequence[int]) -> Tuple[int, ...]:
    """Move neighbouring grid values towards each other by the same amount.

    The seed picks the inputs, while each axis keeps its sum, and so roughly
    its amount of work.
    """
    values = list(axis)
    for i in range(0, len(values) - 1, 2):
        shift = rng.randint(0, max(0, (values[i + 1] - values[i] - 1) // 2))
        values[i] += shift
        values[i + 1] -= shift
    return tuple(values)


def child_env(ctx: Context) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = ctx.src_dir
    return env


SETUP_CODE = """
import repro
from repro.core.characterization import build_crn_for
from repro.lab import resolve_spec
for name in {names!r}:
    spec = resolve_spec(name)
    build_crn_for(spec, name=spec.name, strategy="auto").compiled()
print("ready", flush=True)
"""


def _wait_line(proc: subprocess.Popen, timeout: float) -> str:
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    if not ready:
        raise TimeoutError(f"no output from {proc.args!r} within {timeout}s")
    return proc.stdout.readline()


def setup_probe(ctx: Context, names: Sequence[str]) -> List[float]:
    """Seconds from process start until the workload's CRNs are built.

    A fresh interpreter per sample imports ``repro`` and builds the CRNs of
    ``names``, as a user's process does before its first operation.
    """
    samples = []
    for _ in range(ctx.sizes.setup_samples):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", SETUP_CODE.format(names=tuple(names))],
            stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL,
            text=True,
            env=child_env(ctx),
            cwd=ctx.workdir,
        )
        try:
            line = _wait_line(proc, 120)
            samples.append(time.perf_counter() - start)
        finally:
            proc.communicate(timeout=60)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return samples


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _e2e(setup: Sequence[float], tally: Tally, rss_mb: float) -> Dict[str, Tuple[float, str]]:
    values = {
        "setup_s": statistics.median(setup),
        "cells_per_s": tally.cells / tally.cell_s,
        "p50_ms": percentile(tally.latencies, 0.50) * 1000.0,
        "peak_rss_mb": rss_mb,
    }
    return {name: (values[name], unit) for name, unit in E2E_METRICS}


def _layer(values: Dict[str, float]) -> Dict[str, Tuple[float, str]]:
    return {name: (values.get(name, 0.0), unit) for name, unit in LAYER_METRICS}


def _common_details(ctx: Context, checker: Checker, tally: Tally) -> List[str]:
    share = checker.failed / checker.attempted if checker.attempted else 0.0
    lines = [
        f"# {ctx.workload} seed={ctx.seed}: attempted={checker.attempted} "
        f"failed={checker.failed} failed_share={share:.6f}",
        f"# cells={tally.cells} events={tally.events} latency samples={len(tally.latencies)}",
    ]
    if tally.latencies:
        lines.append(
            f"# p90_ms={percentile(tally.latencies, 0.90) * 1000:.4f} "
            f"p99_ms={percentile(tally.latencies, 0.99) * 1000:.4f}"
        )
    if tally.event_s:
        lines.append(f"# sim_events_per_s={tally.events / tally.event_s:.1f} 1/s")
    lines += [f"# wrong output: {problem}" for problem in checker.problems]
    return lines


# ---------------------------------------------------------------------------
# In-process workloads: construction-sweep, tiny-cells, batch-population
# ---------------------------------------------------------------------------


def _check_cold(run, checker: Checker, tally: Tally) -> None:
    """Check a cold run's rows and count the events they simulated."""
    checker.op(run.executed == run.total_cells, f"{run.campaign.name}: not every cell ran")
    for row in run.results:
        checker.row(row)
    tally.events += sum(row.total_steps or 0 for row in run.results)


def _cell_latencies(tally: Tally, stamps: List[float], start: float) -> None:
    """Per-cell times: the gaps between successive progress callbacks."""
    previous = start
    for stamp in stamps:
        tally.latencies.append(stamp - previous)
        previous = stamp


def _timed_campaign(campaign, out_dir: str, cache_dir: str):
    import repro.lab.campaign as lab_campaign

    stamps: List[float] = []
    start = time.perf_counter()
    run = lab_campaign.run_campaign(
        campaign,
        out_dir,
        workers=1,
        cache_dir=cache_dir,
        progress=lambda _row, _source: stamps.append(time.perf_counter()),
    )
    return run, stamps, start, time.perf_counter() - start


class ConstructionSweep:
    """Serial cold-cache campaigns over the general constructions."""

    specs = GENERAL_2D + GENERAL_3D

    def __init__(self, ctx: Context) -> None:
        from repro.api.config import RunConfig
        from repro.lab import Campaign, SweepGrid

        rng = random.Random(ctx.seed)
        sizes = ctx.sizes
        axis2 = _jitter_axis(rng, sizes.sweep_axis_2d)
        axis3 = _jitter_axis(rng, sizes.sweep_axis_3d)
        config = RunConfig(trials=sizes.sweep_trials)
        master = rng.getrandbits(32)
        self.workdir = ctx.workdir
        self.campaigns = [
            Campaign(
                name="sweep-2d",
                specs=GENERAL_2D,
                inputs=SweepGrid((axis2, axis2)),
                engines=SCALAR_ENGINES,
                configs=(config,),
                seed=master,
            ),
            Campaign(
                name="sweep-3d",
                specs=GENERAL_3D,
                inputs=SweepGrid((axis3,) * 3),
                engines=SCALAR_ENGINES,
                configs=(config,),
                seed=master,
            ),
        ]
        self.warmup = [
            Campaign(
                name=f"warmup-{campaign.name}",
                specs=campaign.specs,
                inputs=campaign.inputs[:1],
                engines=SCALAR_ENGINES,
                configs=(RunConfig(trials=1),),
                seed=master + 1,
            )
            for campaign in self.campaigns
        ]

    def prepare(self) -> None:
        root = tempfile.mkdtemp(dir=self.workdir)
        for campaign in self.warmup:
            _timed_campaign(campaign, os.path.join(root, campaign.name), os.path.join(root, "cache"))
        shutil.rmtree(root)

    def unit(self, checker: Checker, tally: Tally) -> None:
        root = tempfile.mkdtemp(dir=self.workdir)
        cache = os.path.join(root, "cache")
        for campaign in self.campaigns:
            run, stamps, start, seconds = _timed_campaign(
                campaign, os.path.join(root, campaign.name), cache
            )
            _check_cold(run, checker, tally)
            _cell_latencies(tally, stamps, start)
            tally.cells += run.total_cells
            tally.cell_s += seconds
            tally.event_s += seconds
            tally.phase("cold", run.total_cells, seconds)
        shutil.rmtree(root)

    def details(self, tally: Tally) -> List[str]:
        return []


class TinyCells:
    """Cold, replay and resume campaigns over one-to-three-reaction CRNs."""

    specs = TINY_SPECS

    def __init__(self, ctx: Context) -> None:
        from repro.api.config import RunConfig
        from repro.lab import Campaign

        rng = random.Random(ctx.seed)
        n = ctx.sizes.tiny_inputs
        inputs = sorted(rng.sample(range(1, n + n // 4 + 2), n))
        master = rng.getrandbits(32)
        self.workdir = ctx.workdir
        self.campaign = Campaign(
            name="tiny-cells",
            specs=TINY_SPECS,
            inputs=[(v,) for v in inputs],
            engines=SCALAR_ENGINES,
            configs=(RunConfig(trials=1),),
            seed=master,
        )
        self.warmup = Campaign(
            name="warmup",
            specs=TINY_SPECS,
            inputs=[(inputs[0],)],
            engines=SCALAR_ENGINES,
            configs=(RunConfig(trials=1),),
            seed=master + 1,
        )

    def prepare(self) -> None:
        root = tempfile.mkdtemp(dir=self.workdir)
        for attempt in range(2):  # the second pass replays from the cache
            _timed_campaign(
                self.warmup, os.path.join(root, f"out{attempt}"), os.path.join(root, "cache")
            )
        shutil.rmtree(root)

    def unit(self, checker: Checker, tally: Tally) -> None:
        root = tempfile.mkdtemp(dir=self.workdir)
        cache = os.path.join(root, "cache")
        cold, _stamps, _start, cold_s = _timed_campaign(
            self.campaign, os.path.join(root, "cold"), cache
        )
        _check_cold(cold, checker, tally)
        tally.phase("cold", cold.total_cells, cold_s)
        baseline = {row.cell_id: row.deterministic_dict() for row in cold.results}

        replay_dir = os.path.join(root, "replay")
        replay, stamps, start, replay_s = _timed_campaign(self.campaign, replay_dir, cache)
        checker.op(replay.from_cache == replay.total_cells, "replay: not every cell hit the cache")
        for row in replay.results:
            checker.op(
                row.cached and row.deterministic_dict() == baseline.get(row.cell_id),
                f"replay row {row.cell_id} differs from its cold row",
            )
        _cell_latencies(tally, stamps, start)
        tally.phase("replay", replay.total_cells, replay_s)

        resume, _stamps, _start, resume_s = _timed_campaign(self.campaign, replay_dir, cache)
        checker.op(
            resume.already_done == resume.total_cells and resume.executed == 0,
            "resume: cells were not all found done",
        )
        for row in resume.results:
            checker.op(
                row.deterministic_dict() == baseline.get(row.cell_id),
                f"resume row {row.cell_id} differs from its cold row",
            )
        tally.phase("resume", resume.total_cells, resume_s)
        # The cold phase is bound by two fsyncs per cell and moves with the
        # host's disk, so the gated rate counts the replay and resume phases.
        tally.cells += replay.total_cells + resume.total_cells
        tally.cell_s += replay_s + resume_s
        tally.event_s += cold_s
        shutil.rmtree(root)

    def details(self, tally: Tally) -> List[str]:
        return [
            f"# cold cells_per_s={tally.rate('cold'):.3f} 1/s",
            f"# replay_cells_per_s={tally.rate('replay'):.3f} 1/s",
            f"# resume_cells_per_s={tally.rate('resume'):.3f} 1/s",
        ]


class BatchPopulation:
    """``CompiledFunction.simulate`` on the batch engines at large populations."""

    specs = ("weighted_floor", "minimum")

    def __init__(self, ctx: Context) -> None:
        rng = random.Random(ctx.seed)
        sizes = ctx.sizes
        pop, big = sizes.batch_population, sizes.batch_big_population
        spread = pop // 70
        x1 = pop // 2 - spread + rng.randint(-spread, spread)
        small_x = (x1, pop - x1)
        spread = big // 100
        y1 = big * 2 // 5 + rng.randint(-spread, spread)
        big_x = (y1, big - y1)
        self.calls = [
            ("weighted_floor", small_x, "vectorized", sizes.batch_trials, rng.getrandbits(32)),
            ("weighted_floor", small_x, "tau-vec", sizes.batch_trials, rng.getrandbits(32)),
            ("minimum", big_x, "tau-vec", sizes.batch_big_trials, rng.getrandbits(32)),
        ]
        self.expect = ctx.expect
        self.compiled: Dict[str, object] = {}
        self.per_call: Dict[Tuple[str, str], List[Tuple[int, float]]] = defaultdict(list)

    def prepare(self) -> None:
        import repro
        from repro.lab import resolve_spec

        workbench = repro.Workbench(repro.RunConfig())
        for name in self.specs:
            self.compiled[name] = workbench.compile(resolve_spec(name))
        for spec, _x, engine, _trials, seed in self.calls:
            dimension = self.compiled[spec].spec.dimension
            self.compiled[spec].simulate((3,) * dimension, engine=engine, trials=2, seed=seed)

    def unit(self, checker: Checker, tally: Tally) -> None:
        for spec, x, engine, trials, seed in self.calls:
            start = time.perf_counter()
            report = self.compiled[spec].simulate(x, engine=engine, trials=trials, seed=seed)
            seconds = time.perf_counter() - start
            checker.op(
                report.output_mode == self.expect(spec, x) and report.all_silent_or_converged,
                f"{engine} {spec}{list(x)}: output {report.output_mode}",
            )
            tally.cells += 1
            tally.cell_s += seconds
            tally.events += sum(report.steps)
            tally.event_s += seconds
            tally.latencies.append(seconds)
            self.per_call[(engine, spec)].append((sum(report.steps), seconds))

    def details(self, tally: Tally) -> List[str]:
        lines = []
        for spec, x, engine, trials, _seed in self.calls:
            runs = self.per_call[(engine, spec)]
            if runs:
                lines.append(
                    f"# {engine} {spec}{list(x)} trials={trials}: events={runs[0][0]} "
                    f"median_s={statistics.median(s for _e, s in runs):.4f} (n={len(runs)})"
                )
        return lines


def run_in_process(ctx: Context, workload) -> Result:
    setup = setup_probe(ctx, workload.specs)
    checker = Checker(ctx.expect)
    tally = Tally()
    if not ctx.trace:
        workload.prepare()
        start = time.perf_counter()
        while True:
            unit_start = time.perf_counter()
            workload.unit(checker, tally)
            now = time.perf_counter()
            # Start another unit only if one more should still end in time.
            if (now - start) + (now - unit_start) > ctx.seconds:
                break
        metrics = _e2e(setup, tally, self_peak_rss_mb())
        details = _common_details(ctx, checker, tally) + workload.details(tally)
        return Result(checker.attempted, checker.failed, metrics, details)

    setup_recorder = Recorder()
    patches = install_repro_spans(setup_recorder)
    try:
        workload.prepare()
    finally:
        patches.restore()
    start = time.perf_counter()
    workload.unit(checker, Tally())
    untraced = time.perf_counter() - start
    recorder = Recorder()
    patches = install_repro_spans(recorder)
    try:
        start = time.perf_counter()
        workload.unit(checker, tally)
        traced = time.perf_counter() - start
    finally:
        patches.restore()
    values = layer_values(recorder, setup_recorder)
    for phase in ("cold", "replay", "resume"):
        values[f"lab.phase.{phase}_s"] = tally.phases[phase][1]
    values["trace.overhead_ratio"] = traced / untraced
    details = _common_details(ctx, checker, tally) + [
        f"# traced unit {traced:.3f} s, untraced unit {untraced:.3f} s"
    ]
    return Result(checker.attempted, checker.failed, _layer(values), details, recorder)


# ---------------------------------------------------------------------------
# serve-memo: `python -m repro serve --workers 1` in its own process
# ---------------------------------------------------------------------------


@dataclass
class Server:
    proc: subprocess.Popen
    port: int


def _children(pid: int) -> List[int]:
    found: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children", encoding="ascii") as handle:
                found += [int(v) for v in handle.read().split()]
        except OSError:
            pass
    return found


def _peak_rss_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def boot_server(ctx: Context) -> Tuple[Server, float]:
    """Start a server with a fresh cache; seconds until ``/v1/health`` answers."""
    from repro.serve.client import ServeClient

    cache_dir = tempfile.mkdtemp(dir=ctx.workdir)
    start = time.perf_counter()
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--host", "127.0.0.1", "--port", "0",
            "--workers", "1", "--cache-dir", cache_dir,
        ],
        stdout=subprocess.PIPE,
        stdin=subprocess.DEVNULL,
        text=True,
        env=child_env(ctx),
        cwd=ctx.workdir,
    )
    server = None
    try:
        line = _wait_line(proc, 120)
        match = re.search(r"listening on \S+:(\d+)", line)
        if match is None:
            raise RuntimeError(f"unexpected server announcement {line!r}")
        server = Server(proc, int(match.group(1)))
        client = ServeClient(port=server.port, timeout=10)
        deadline = time.monotonic() + 60
        while True:
            try:
                if client.request("GET", "/v1/health")[0] == 200:
                    break
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise TimeoutError("server never answered /v1/health")
            time.sleep(0.002)
        return server, time.perf_counter() - start
    except BaseException:
        stop_server(server or Server(proc, 0))
        raise


def stop_server(server: Server) -> None:
    """SIGTERM the server, wait for it, and make sure its pool workers are gone."""
    workers = _children(server.proc.pid)
    if server.proc.poll() is None:
        server.proc.send_signal(signal.SIGTERM)
    try:
        server.proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        server.proc.kill()
        server.proc.communicate()
    deadline = time.monotonic() + 10
    for pid in workers:
        while os.path.exists(f"/proc/{pid}") and time.monotonic() < deadline:
            time.sleep(0.01)
        if os.path.exists(f"/proc/{pid}"):
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass


@dataclass
class Request:
    spec: str
    x: Tuple[int, ...]
    payload: dict
    body: bytes = b""


class ServeMemo:
    """Closed-loop ``/v1/simulate`` traffic (1 in 5 fresh) plus one ``/v1/jobs`` campaign."""

    specs = GENERAL_2D + GENERAL_3D

    def __init__(self, ctx: Context, client) -> None:
        self.ctx = ctx
        self.client = client
        self.rng = random.Random(ctx.seed)
        top = ctx.sizes.serve_max_input

        def point(spec: str) -> Tuple[int, ...]:
            size = 3 if spec in GENERAL_3D else 2
            return tuple(self.rng.randint(top // 2 + 1, top) for _ in range(size))

        # Fresh requests cycle through five inputs per construction (each with
        # a new seed), so every run sends the same mix of miss costs.
        self.shapes = [(spec, point(spec)) for spec in self.specs for _ in range(5)]
        self.rng.shuffle(self.shapes)
        self.job_inputs = [point(GENERAL_2D[0]) for _ in range(ctx.sizes.serve_job_inputs)]
        self.fresh_count = 0
        self.seen: List[Request] = []
        self.hits: List[float] = []
        self.misses: List[float] = []
        self.job_rates: List[float] = []

    def fresh(self, spec: Optional[str] = None) -> Request:
        if spec is None:
            spec, x = self.shapes[self.fresh_count % len(self.shapes)]
            self.fresh_count += 1
        else:
            x = next(x for name, x in self.shapes if name == spec)
        config = {
            "trials": self.ctx.sizes.serve_trials,
            "engine": "python",
            "seed": self.rng.getrandbits(31),
        }
        return Request(spec, x, {"spec": spec, "input": list(x), "config": config})

    def simulate(self, request: Request, fresh: bool, checker: Checker, tally: Optional[Tally]) -> None:
        start = time.perf_counter()
        status, headers, body = self.client.request("POST", "/v1/simulate", request.payload)
        seconds = time.perf_counter() - start
        cache = headers.get("x-repro-cache")
        if fresh:
            if status != 200:
                ok = checker.op(False, f"{request.spec}{list(request.x)}: HTTP {status}")
            elif cache != "miss":
                ok = checker.op(False, f"{request.spec}{list(request.x)}: fresh seed was a {cache}")
            else:
                row = json.loads(body)
                ok = checker.row(row)
            request.body = body
            self.seen.append(request)
        else:
            checker.op(
                status == 200 and cache == "hit" and body == request.body,
                f"{request.spec}{list(request.x)}: repeat was {status} {cache} or changed body",
            )
        if tally is None:
            return
        tally.latencies.append(seconds)
        tally.cells += 1
        tally.cell_s += seconds
        if fresh:
            self.misses.append(seconds)
            if ok:
                tally.events += row["total_steps"]
            tally.event_s += seconds
        else:
            self.hits.append(seconds)

    def prepare(self, checker: Checker) -> None:
        for spec in self.specs:  # spawns the pool worker and builds each CRN there
            self.simulate(self.fresh(spec), True, checker, None)

    def round(self, checker: Checker, tally: Optional[Tally]) -> None:
        for i in range(self.ctx.sizes.serve_round):
            if i % 5 == 0:
                self.simulate(self.fresh(), True, checker, tally)
            else:
                self.simulate(self.rng.choice(self.seen), False, checker, tally)

    def job(self, checker: Checker, tally: Tally) -> Tuple[float, float]:
        """One cold campaign through ``/v1/jobs``; returns (submit ms, drain s)."""
        start = time.perf_counter()
        submitted = self.client.submit_job(
            name="perfbench-job",
            specs=list(GENERAL_2D),
            inputs=[list(x) for x in self.job_inputs],
            engines=["python"],
            config={"trials": self.ctx.sizes.serve_trials},
            seed=self.rng.getrandbits(31),
        )
        submit_s = time.perf_counter() - start
        final = self.client.wait_for_job(submitted["id"], timeout=150, poll_interval=0.02)
        drain_start = time.perf_counter()
        rows = list(self.client.job_results(submitted["id"], deterministic=True))
        end = time.perf_counter()
        checker.op(
            final["state"] == "done" and len(rows) == submitted["total"],
            f"job ended {final['state']} with {len(rows)}/{submitted['total']} rows",
        )
        for row in rows:
            checker.row(row)
        tally.cells += len(rows)
        tally.cell_s += end - start
        self.job_rates.append(len(rows) / (end - start))
        return submit_s * 1000.0, end - drain_start

    def details(self, tally: Tally) -> List[str]:
        lines = []
        if self.hits:
            lines.append(
                f"# hit_p50_ms={percentile(self.hits, 0.5) * 1000:.4f} "
                f"hit_p99_ms={percentile(self.hits, 0.99) * 1000:.4f} (n={len(self.hits)})"
            )
        if self.misses:
            lines.append(
                f"# miss_p50_ms={percentile(self.misses, 0.5) * 1000:.4f} "
                f"miss_p90_ms={percentile(self.misses, 0.9) * 1000:.4f} (n={len(self.misses)})"
            )
        if self.job_rates:
            lines.append(f"# job_cells_per_s={self.job_rates[-1]:.3f} 1/s")
        return lines


def _scrape(client) -> Dict[str, float]:
    """Flat server counters from ``/v1/metrics`` (histogram sums) and ``/v1/stats``."""
    status, _headers, raw = client.request("GET", "/v1/metrics")
    if status != 200:
        raise RuntimeError(f"/v1/metrics answered {status}")
    series: Dict[str, float] = defaultdict(float)
    for line in raw.decode("utf-8").splitlines():
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        if key.startswith("repro_http_request_seconds_") and "/v1/simulate" in key:
            series["simulate_" + key.split("{")[0].rsplit("_", 1)[1]] += float(value)
        elif key in ("repro_result_cache_get_seconds_sum", "repro_result_cache_put_seconds_sum"):
            series[key] = float(value)
    stats = client.stats()
    series["hits"] = stats["cache"]["hits"]
    series["misses"] = stats["cache"]["misses"]
    engine = stats["engines"].get("python", {})
    series["requested"] = engine.get("requests", 0)
    series["executed"] = engine.get("executed", 0)
    return series


def run_serve(ctx: Context) -> Result:
    from repro.serve.client import ServeClient

    setup: List[float] = []
    server = None
    try:
        for _ in range(ctx.sizes.setup_samples):
            if server is not None:
                stop_server(server)
            server, seconds = boot_server(ctx)
            setup.append(seconds)
        workload = ServeMemo(ctx, ServeClient(port=server.port, timeout=150))
        checker = Checker(ctx.expect)
        tally = Tally()
        workload.prepare(checker)
        if not ctx.trace:
            start = time.perf_counter()
            while time.perf_counter() - start < ctx.seconds or not tally.latencies:
                workload.round(checker, tally)
            workload.job(checker, tally)
            rss = _peak_rss_mb(server.proc.pid) + sum(
                _peak_rss_mb(pid) for pid in _children(server.proc.pid)
            )
            metrics = _e2e(setup, tally, rss)
            details = _common_details(ctx, checker, tally) + workload.details(tally)
            return Result(checker.attempted, checker.failed, metrics, details)

        start = time.perf_counter()
        workload.round(checker, None)
        workload.job(checker, Tally())
        untraced = time.perf_counter() - start
        before = _scrape(workload.client)
        start = time.perf_counter()
        workload.round(checker, tally)
        round_s = time.perf_counter() - start
        after = _scrape(workload.client)
        start = time.perf_counter()
        submit_ms, drain_s = workload.job(checker, tally)
        traced = round_s + time.perf_counter() - start
    finally:
        if server is not None:
            stop_server(server)

    delta = {key: after.get(key, 0.0) - before.get(key, 0.0) for key in after}
    requests = delta["simulate_count"]
    lookups = delta["hits"] + delta["misses"]
    client_ms = statistics.fmean(tally.latencies) * 1000.0
    values = {
        "serve.simulate.requests": requests,
        "serve.simulate.server_s": delta["simulate_sum"],
        "serve.transport_ms": client_ms - delta["simulate_sum"] / requests * 1000.0,
        "serve.cache.get_s": delta["repro_result_cache_get_seconds_sum"],
        "serve.cache.put_s": delta["repro_result_cache_put_seconds_sum"],
        "serve.cache.hit_ratio": delta["hits"] / lookups if lookups else 0.0,
        "serve.engine.requested": delta["requested"],
        "serve.engine.executed": delta["executed"],
        "serve.job.submit_ms": submit_ms,
        "serve.job.drain_s": drain_s,
        "trace.overhead_ratio": traced / untraced,
    }
    details = _common_details(ctx, checker, tally) + [
        f"# traced unit {traced:.3f} s, untraced unit {untraced:.3f} s",
        f"# fresh requests in the traced round: {len(workload.misses)}",
    ]
    return Result(checker.attempted, checker.failed, _layer(values), details)


def run_workload(ctx: Context) -> Result:
    if ctx.workload == "serve-memo":
        return run_serve(ctx)
    workload = {
        "construction-sweep": ConstructionSweep,
        "tiny-cells": TinyCells,
        "batch-population": BatchPopulation,
    }[ctx.workload](ctx)
    return run_in_process(ctx, workload)
