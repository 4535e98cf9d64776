"""Outside-in benchmark of semnav: four closed-loop workloads, one client.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload plan-warm --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one table
    python3 perfbench/run.py --self-test           # smoke runs + check rejection

With --trace 0 the last stdout line is a JSON object whose metrics are the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced run. The lines before it say the same for a human, plus the
environment, per-mode latencies and failures. Exit status is 1 when any op
failed or an output check rejected it, 2 when semnav cannot be found in
this checkout. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("plan-warm", "plan-graph", "cli-cold", "build")
SETUP_REPEATS = 3
# Median seconds of SpeedProbe.sample() on the reference machine (2-vCPU
# Xeon at 2.1 GHz, Python 3.11.7); timings are scaled to that speed.
REF_PROBE_S = 0.02
PROBE_EVERY_S = 0.25
PROBE_GRID = 300
MAP_SEED = 7
QUERY_SEED = 1

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
MODES = ("targeted", "multi-target", "discovery")


def import_semnav():
    """semnav from this checkout's src/, never from an installed copy."""
    if not (SRC / "semnav" / "__init__.py").is_file():
        print(f"perfbench: no semnav sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import semnav

    if Path(semnav.__file__).resolve().parent != SRC / "semnav":
        print(f"perfbench: semnav imported from {semnav.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


class SpeedProbe:
    """Times a fixed piece of work to tell how fast the machine runs now.

    The speed of the shared 2-vCPU reference machine drifts by 20-40% over
    tens of seconds as other tenants come and go. The work here has the
    shape of semnav's hot loops: heap-driven searches that read numpy arrays
    cell by cell, plus some vector arithmetic. So it slows down when they
    do. It calls no semnav code, so a change to semnav cannot move it.
    """

    def __init__(self):
        rng = numpy.random.default_rng(0)
        self.factors = 1.0 + rng.integers(0, 60, size=PROBE_GRID * PROBE_GRID) / 128.0
        self.table = numpy.arange(float(1 << 20))  # 8 MB, beyond the caches

    def sample(self) -> float:
        """Seconds the fixed work takes right now."""
        gc_on = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            self._grid_search(3000)
            heap, x, total = [], 12345, 0.0
            mask = self.table.size - 1
            for i in range(4000):
                x = (x * 1103515245 + 12345) & 0x7FFFFFFF
                total += self.table[x & mask]
                heapq.heappush(heap, (x, i))
            while heap:
                heapq.heappop(heap)
            a = numpy.arange(20000.0)
            for _ in range(40):
                a = numpy.sqrt(a * a + 1.0)
            return time.perf_counter() - t0
        finally:
            if gc_on:
                gc.enable()

    def _grid_search(self, settle: int) -> None:
        """Dijkstra from a corner of an 8-connected grid, cut after `settle` cells."""
        w, f = PROBE_GRID, self.factors
        n = w * w
        dist = numpy.full(n, numpy.inf)
        closed = numpy.zeros(n, dtype=bool)
        moves = [(-w, 0, 1.0), (-1, -1, 1.0), (1, 1, 1.0), (w, 0, 1.0)]
        moves += [(dr * w + dc, dc, math.sqrt(2.0)) for dr in (-1, 1) for dc in (-1, 1)]
        dist[0] = 0.0
        heap = [(0.0, 0)]
        while heap and settle:
            d, u = heapq.heappop(heap)
            if closed[u]:
                continue
            closed[u] = True
            settle -= 1
            for off, dc, step in moves:
                v = u + off
                if 0 <= u % w + dc < w and 0 <= v < n and not closed[v]:
                    nd = d + step * 0.5 * (f[u] + f[v])
                    if nd < dist[v]:
                        dist[v] = nd
                        heapq.heappush(heap, (nd, v))


@dataclass(slots=True)
class Op:
    item: int  # index into the deck
    latency: float  # seconds, the timed span only
    info: object  # the check's OpInfo; None when the op failed
    error: str | None = None
    scale: float = 1.0  # REF_PROBE_S / mean of the probe samples around the op

    @property
    def scaled(self) -> float:
        return self.latency * self.scale


def timed_op(wl, state, item: int, tracer=None, op_id=-1) -> Op:
    """Run one op, time it, then check its output outside the timed span."""
    from checks import CheckFailed

    if tracer is not None:
        tracer.op = op_id
    t0 = time.perf_counter()
    try:
        output = wl.run_op(state, wl.deck[item])
    except Exception as exc:  # an op that raises is counted and the run goes on
        return Op(item, time.perf_counter() - t0, None, f"raised {type(exc).__name__}: {exc}")
    latency = time.perf_counter() - t0
    try:
        info = wl.check(state, wl.deck[item], output)
    except CheckFailed as exc:
        return Op(item, latency, None, f"check failed: {exc}")
    except Exception as exc:  # malformed output can break a check too
        return Op(item, latency, None, f"check raised {type(exc).__name__}: {exc}")
    if tracer is None:
        info.route = None  # only the traced analysis needs it; untraced runs hold many ops
    return Op(item, latency, info)


def scale_between(before: float, after: float) -> float:
    return REF_PROBE_S / ((before + after) / 2)


def set_up(wl, probe: SpeedProbe, tracer=None):
    """State plus one warm-up op on the deck's first item, timed together.

    Returns (state, scaled seconds, raw seconds, warm-up Op).
    """
    before = probe.sample()
    t0 = time.perf_counter()
    state = wl.setup()
    seconds = time.perf_counter() - t0
    warm = timed_op(wl, state, 0, tracer)
    raw = seconds + warm.latency
    return state, raw * scale_between(before, probe.sample()), raw, warm


def serve(wl, state, seed, seconds, probe: SpeedProbe, tracer=None, passes=None):
    """Whole passes over the deck, each in an order drawn from the seed,
    until `passes` are done or the first pass that ends after `seconds`.

    The probe samples between ops once PROBE_EVERY_S has passed since its
    last sample; each op is scaled by the samples on either side of it.
    """
    ops: list[Op] = []
    start = time.perf_counter()
    before, since, last = probe.sample(), 0, time.perf_counter()

    def rescale():
        nonlocal before, since, last
        after = probe.sample()
        for op in ops[since:]:
            op.scale = scale_between(before, after)
        before, since, last = after, len(ops), time.perf_counter()

    done = 0
    while True:
        order = list(range(len(wl.deck)))
        random.Random(seed * 1_000_003 + done).shuffle(order)
        for i in order:
            ops.append(timed_op(wl, state, i, tracer, len(ops)))
            if time.perf_counter() - last >= PROBE_EVERY_S:
                rescale()
        done += 1
        if done == passes or (passes is None and time.perf_counter() - start >= seconds):
            if since < len(ops):
                rescale()
            return ops, done


def tail(ops):
    """Tail latency over the deck's items, each taken at its median.

    Returns (seconds, percentile, items beyond): the highest percentile,
    capped at p99, with >= 10 items beyond it; the slowest item when the
    deck has fewer than 20. Per-item medians keep the figure the same
    whether a run made two passes or three.
    """
    by_item: dict[int, list[float]] = {}
    for o in ops:
        if o.info is not None:
            by_item.setdefault(o.item, []).append(o.scaled)
    values = sorted(statistics.median(v) for v in by_item.values())
    n = len(values)
    if n < 20:
        return values[-1], 100.0, 0
    index = min(n - 11, math.ceil(0.99 * n) - 1)
    return values[index], 100.0 * (index + 1) / n, n - 1 - index


def median_ms(ops, mode=None) -> float:
    values = [o.scaled for o in ops if o.info is not None and mode in (None, o.info.mode)]
    return statistics.median(values) * 1000.0 if values else 0.0


def reach_rate(ops) -> float:
    judged = [o.info.reached for o in ops if o.info is not None and o.info.reached is not None]
    return sum(judged) / len(judged) if judged else 0.0


def environment() -> dict:
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            models = [ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    lines = 0
    for path in sorted((SRC / "semnav").rglob("*.py")):
        lines += sum(1 for ln in path.read_text(encoding="utf-8").splitlines() if ln.strip())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "semnav_nonblank_lines": lines,
    }


def say(text: str) -> None:
    print(text, flush=True)


def line(name, value, unit, note="") -> str:
    return f"  {name:<44} {value:>14.6g} {unit:<6} {note}".rstrip()


def end_to_end(setups, ops) -> tuple[dict, dict]:
    """setups holds (scaled, raw) seconds per set-up; ops the measured Ops."""
    good = [o for o in ops if o.info is not None]
    if not good:
        raise RuntimeError("no op succeeded; nothing to measure")
    value, pct, beyond = tail(ops)
    metrics = {
        "setup_s": statistics.median(scaled for scaled, _ in setups),
        "ops_per_s": len(good) / sum(o.scaled for o in ops),
        "latency_p50_ms": statistics.median(o.scaled for o in good) * 1000.0,
        "latency_tail_ms": value * 1000.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setups)}; raw " + " ".join(f"{r:.4f}" for _, r in setups),
        "ops_per_s": f"raw {len(good) / sum(o.latency for o in ops):.6g}",
        "latency_p50_ms": f"n={len(good)}; raw "
        f"{statistics.median(o.latency for o in good) * 1000.0:.6g}; "
        f"scale x{statistics.median(o.scale for o in good):.4f}",
        "latency_tail_ms": f"p{pct:.2f} of per-item medians, {beyond} items beyond",
    }
    return metrics, notes


@dataclass
class Outcome:
    metrics: dict
    notes: dict
    measured: list  # the untraced ops
    attempted: int
    failed: list  # the Ops that failed, warm-ups and traced ops included


def run_workload(args) -> Outcome:
    import tracing
    import workloads

    wl = workloads.make(args.workload, tiny=args.tiny)
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    traced_ops = traced_warm = []
    try:
        work.mkdir(parents=True)
        wl.prepare(work, args.map_seed, args.query_seed)
        probe = SpeedProbe()
        setups, warmups = [], []
        for _ in range(SETUP_REPEATS):
            state, scaled, raw, warm = set_up(wl, probe)
            setups.append((scaled, raw))
            warmups.append(warm)
        ops, passes = serve(wl, state, args.seed, args.seconds / 2 if args.trace else args.seconds,
                            probe)
        say(f"served {len(ops)} ops in {passes} passes over a deck of {len(wl.deck)}")
        if args.trace:
            traced_probe = SpeedProbe()
            tracer = tracing.Tracer().install()
            try:
                state, _, _, warm = set_up(wl, traced_probe, tracer)
                traced_warm = [warm]
                traced_ops, _ = serve(wl, state, args.seed, 0, traced_probe, tracer, passes=1)
            finally:
                tracer.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    every = warmups + ops + traced_warm + traced_ops
    failed = [o for o in every if o.info is None]
    if not args.trace:
        metrics, notes = end_to_end(setups, ops)
        return Outcome(metrics, notes, ops, len(every), failed)
    metrics = tracing.layer_metrics(tracer, traced_ops, ops, say)
    for mode in MODES:
        metrics[f"planner.plan.{mode.replace('-', '_')}_p50_ms"] = median_ms(ops, mode)
    metrics["planner.plan.goal_reach_rate"] = reach_rate(ops)
    return Outcome(metrics, {}, ops, len(every), failed)


def print_extras(out: Outcome) -> None:
    """Figures that exist only on some workloads, and the failures."""
    say("also:")
    say(line("failed_ratio", len(out.failed) / out.attempted, "ratio",
             f"{len(out.failed)}/{out.attempted}"))
    if any(o.info is not None and o.info.mode for o in out.measured):
        say(line("goal_reach_rate", reach_rate(out.measured), "ratio"))
        for mode in MODES:
            say(line(f"{mode.replace('-', '_')}_p50_ms", median_ms(out.measured, mode), "ms"))
    for o in out.failed[:10]:
        say(f"op failed: {o.error}")


def run_all(args) -> int:
    """Each workload in its own process; prints every metric with its unit."""
    rows, status = [], 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--map-seed", str(args.map_seed),
               "--query-seed", str(args.query_seed)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            rows.append(f"{name:<11} no result, exit {proc.returncode}")
            continue
        for metric, entry in result["metrics"].items():
            rows.append(f"{name:<11}" + line(metric, entry["value"], entry["unit"]))
        rows.append(f"{name:<11}" + line("failed", result["failed"], "ops",
                                          f"of {result['attempted']}"))
    say("\nsummary (workload, metric, value, unit):")
    for row in rows:
        say(row)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=1, help="order of service within each pass")
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--map-seed", type=int, default=MAP_SEED)
    parser.add_argument("--query-seed", type=int, default=QUERY_SEED)
    parser.add_argument("--tiny", action="store_true", help="small maps, for smoke runs")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    import_semnav()
    sys.path.insert(0, str(HERE))
    if args.self_test:
        import selftest

        return selftest.main()
    if args.workload == "all":
        return run_all(args)

    import tracing

    say(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}"
        f" map-seed {args.map_seed} query-seed {args.query_seed}")
    say("env " + json.dumps(environment(), sort_keys=True))
    try:
        out = run_workload(args)
    except Exception as exc:  # set-up failed or nothing succeeded: no result to print
        print(f"perfbench: {args.workload}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    units = tracing.PER_LAYER if args.trace else END_TO_END
    say("per-layer metrics:" if args.trace else "end-to-end metrics:")
    for name, unit in units.items():
        say(line(name, out.metrics[name], unit, out.notes.get(name, "")))
    print_extras(out)
    result = {
        "correct": not out.failed,
        "attempted": out.attempted,
        "failed": len(out.failed),
        "metrics": {name: {"value": out.metrics[name], "unit": u} for name, u in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if not out.failed else 1


if __name__ == "__main__":
    sys.exit(main())
