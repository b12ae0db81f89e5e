#!/usr/bin/env python3
"""The repo benchmark: request-to-bytes serving at the 100-qubit headline.

Drives the public ``repro.service`` API from one process and one client
in a closed loop, on one of three workloads::

    python3 perfbench/run.py --workload cold-headline --seed 1 --seconds 12 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` splits the
measuring time between an untraced and a traced pass and prints the
per-layer metrics of the traced one (and writes its spans to
``perfbench/_out/``).  Every delivered schedule is checked after the
timed passes (see ``checks.py``); a failed check makes the run exit 1.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: A run never measures past this many seconds, whatever it was asked,
#: so it ends well inside the three-minute limit.
HARD_LIMIT_S = 120.0

#: ROADMAP "Baseline measured at this re-anchor" (100 q / 500 g generic,
#: width 10, ms): the numbers the traced generic ledger is printed against.
ROADMAP_BASELINE_MS = {
    "cold request (service.compile)": 194.0,
    "route": 63.0,
    "store-write (store.put)": 78.0,
    "warm disk hit (store.get)": 11.0,
    "warm memory hit + schedule_json()": 46.0,
}


def _bootstrap() -> None:
    """Import the program from this checkout's ``src`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: program source not found under {SRC}\n")
        sys.exit(3)
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent.parent != SRC:
        sys.stderr.write(f"perfbench: imported repro from {repro.__file__}, not {SRC}\n")
        sys.exit(3)


_bootstrap()

from repro.obs.metrics import MetricsRegistry  # noqa: E402
from repro.service import CompileService, ScheduleStore  # noqa: E402
from repro.service.service import DEFAULT_MEMORY_ENTRIES  # noqa: E402

from ledger import Tracer, dump, family_ledger, summarize  # noqa: E402
from workloads import (  # noqa: E402
    Deliveries,
    Item,
    PassResult,
    Sizes,
    cold_items,
    compile_pass,
    mixed_universe,
    stream_pass,
    tail_percentile,
    warm_universe,
    warmup_items,
    zipf_draws,
)

#: End-to-end metrics reported with ``--trace 0`` (name -> unit).
E2E_UNITS = {
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "throughput_rps": "req/s",
    "schedule_depth_mean": "stages",
    "response_bytes_mean": "bytes",
    "store_disk_bytes": "bytes",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def _layer_unit(name: str) -> str:
    for suffix, unit in (
        ("_ms_mean", "ms"),
        ("_us_mean", "us"),
        ("_ratio", "ratio"),
        ("_bytes_mean", "bytes"),
    ):
        if name.endswith(suffix):
            return unit
    return "count"


def new_service(root: Path, sizes: Sizes, **store_sizing: Any) -> CompileService:
    """A single-process service on ``root``: defaults, or a store sized here."""
    if not store_sizing:
        return CompileService(root, max_workers=sizes.max_workers)
    registry = MetricsRegistry()
    store = ScheduleStore(root, registry=registry, **store_sizing)
    return CompileService(store, max_workers=sizes.max_workers, registry=registry)


def _deliver(service: CompileService, items: list[Item]) -> None:
    for item in items:
        service.compile(item.request).schedule_json().encode()


@dataclass
class Workload:
    """How one workload sets up, which loop it drives and its tail percentile."""

    name: str
    loop: str  # "compile" or "stream"
    tail: float
    store_sizing: str
    prepare: Callable[[Path, str], CompileService]
    draws: Callable[[int], Any]
    #: Service for the traced pass, given the measured pass's store root
    #: (None = keep serving from the measured service).
    restart: Callable[[Path], CompileService] | None = None


def build_workload(name: str, seed: int, sizes: Sizes) -> Workload:
    if name == "cold-headline":

        def prepare(root: Path, tag: str) -> CompileService:
            # no memory tier: all-miss traffic can never hit it, and the
            # parsed entries it would retain lengthen every gen-2 collection
            service = new_service(root, sizes, max_entries=sizes.cold_max_entries)
            _deliver(service, warmup_items(sizes, tag))
            return service

        return Workload(
            name,
            "compile",
            0.90,
            f"max_entries={sizes.cold_max_entries}, no memory tier",
            prepare,
            lambda pass_no: cold_items(seed, f"pass-{pass_no}", sizes),
        )
    if name == "warm-zipf":
        universe, warmups = warm_universe(sizes), warmup_items(sizes)

        def restart(root: Path) -> CompileService:
            service = new_service(root, sizes)
            _deliver(service, warmups)
            return service

        def prepare(root: Path, tag: str) -> CompileService:
            loader = new_service(root, sizes)
            for _ in loader.stream([item.request for item in universe + warmups]):
                pass
            del loader
            gc.collect()
            return restart(root)

        return Workload(
            name,
            "compile",
            0.95,
            f"defaults (memory_entries={DEFAULT_MEMORY_ENTRIES}, no max_entries); "
            f"universe {sizes.warm_universe}",
            prepare,
            lambda pass_no: zipf_draws(universe, sizes.zipf_s, "warm-draws", seed, pass_no),
            restart,
        )
    if name == "mixed-stream":
        universe = mixed_universe(sizes)
        # warm-up keys, then a fixed Zipf prefix over the universe, so the
        # timed stream starts with the store in its steady state
        preload = warmup_items(sizes, mixed=True) + list(
            islice(zipf_draws(universe, sizes.zipf_s, "mixed-preload"), sizes.mixed_preload)
        )

        def prepare(root: Path, tag: str) -> CompileService:
            service = new_service(
                root,
                sizes,
                max_entries=sizes.mixed_max_entries,
                memory_entries=sizes.mixed_memory_entries,
            )
            for _ in service.stream([item.request for item in preload]):
                pass
            return service

        return Workload(
            name,
            "stream",
            0.95,
            f"max_entries={sizes.mixed_max_entries}, "
            f"memory_entries={sizes.mixed_memory_entries}; universe {len(universe)}",
            prepare,
            lambda pass_no: zipf_draws(universe, sizes.zipf_s, "mixed-draws", seed, pass_no),
            lambda root: prepare(root.with_name("store-traced"), "traced"),
        )
    raise SystemExit(f"unknown workload {name!r}; choose from {WORKLOAD_NAMES}")


#: Why each workload exists is in BENCHMARK.json and README.md.
WORKLOAD_NAMES = ("cold-headline", "warm-zipf", "mixed-stream")


@dataclass
class Outcome:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, dict[str, Any]]
    lines: list[str]


def _snapshot(service: CompileService) -> dict[str, int]:
    service_stats, store_stats = service.stats, service.store.stats
    return {
        "memory_hits": store_stats.memory_hits,
        "disk_hits": store_stats.disk_hits,
        "misses": store_stats.misses,
        "writes": store_stats.writes,
        "evictions": store_stats.evictions,
        "farm_dispatches": service_stats.farm_dispatches,
        "coalesced": service_stats.coalesced,
    }


def _delta(before: dict[str, int], after: dict[str, int]) -> dict[str, int]:
    return {key: after[key] - before[key] for key in before}


def _run_pass(
    workload: Workload, service, draws, deliveries, seconds, deadline, min_requests, tracer=None
):
    runner = compile_pass if workload.loop == "compile" else stream_pass
    before = _snapshot(service)
    result: PassResult = runner(
        service,
        draws,
        deliveries,
        seconds=seconds,
        min_requests=min_requests,
        deadline=deadline,
        tracer=tracer,
    )
    return result, _delta(before, _snapshot(service))


def run(name: str, seed: int, seconds: float, trace: bool, work: Path, sizes: Sizes) -> Outcome:
    deadline = perf_counter() + HARD_LIMIT_S
    workload = build_workload(name, seed, sizes)
    deliveries = Deliveries(work / "delivered")
    errors: list[str] = []
    lines = [
        f"workload {name}  seed {seed}  loop: closed, 1 client, {workload.loop}()  "
        f"store: {workload.store_sizing}  max_workers={sizes.max_workers}"
    ]

    setup_times = []
    service = None
    root = work / "store"
    for rep in range(sizes.setup_repeats):
        if service is not None:
            del service
            gc.collect()
            shutil.rmtree(root)
        start = perf_counter()
        service = workload.prepare(root, str(rep))
        setup_times.append(perf_counter() - start)

    pass_seconds = seconds / 2 if trace else seconds
    # enough samples that the tail percentile has ten beyond it; the
    # traced run reports no tail, so its passes only need a few requests
    min_requests = 3 if trace else math.ceil(10 / (1.0 - workload.tail)) + 1
    measured, counts = _run_pass(
        workload, service, workload.draws(0), deliveries, pass_seconds, deadline, min_requests
    )
    passes = [measured]
    pass_counts = [counts]
    disk_bytes = service.store.disk_bytes()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if trace:
        if workload.restart is not None:
            del service
            gc.collect()
            service = workload.restart(root)
        tracer = Tracer()
        deliveries_before = len(deliveries.delivered)
        compiled_before = deliveries.sources["compiled"]
        tracer.install()
        try:
            traced, traced_counts = _run_pass(
                workload,
                service,
                workload.draws(1),
                deliveries,
                pass_seconds,
                deadline,
                min_requests,
                tracer,
            )
        finally:
            tracer.uninstall()
        passes.append(traced)
        pass_counts.append(traced_counts)
        traced_requests = len(deliveries.delivered) - deliveries_before
        compiled = deliveries.sources["compiled"] - compiled_before

    if name == "warm-zipf":
        # check (d): a warm universe is served without any routing
        errors.extend(
            f"warm-zipf made {c['farm_dispatches']} farm dispatches"
            for c in pass_counts
            if c["farm_dispatches"]
        )
    depth = deliveries.check()
    errors.extend(deliveries.errors)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes) + sum(
        1 for digest in deliveries.delivered if digest not in depth
    )
    metrics: dict[str, float]
    if not trace:
        latencies = measured.latencies
        metrics = {
            "latency_p50_ms": 1e3 * statistics.median(latencies),
            "latency_tail_ms": 1e3 * tail_percentile(latencies, workload.tail),
            "throughput_rps": len(latencies) / measured.timed_s,
            # per distinct schedule, so the Zipf draw count does not weigh in
            "schedule_depth_mean": statistics.fmean(depth.values()) if depth else 0.0,
            "response_bytes_mean": statistics.fmean(
                deliveries.size_of[d] for d in depth
            ) if depth else 0.0,
            "store_disk_bytes": float(disk_bytes),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setup_times),
        }
        units = E2E_UNITS
        lines.append(
            f"samples {len(latencies)}  tail = p{round(100 * workload.tail)}  "
            f"timed {measured.timed_s:.2f} s  setup runs {[round(t, 3) for t in setup_times]}"
        )
    else:
        # deliveries that shared a compile: compiled ones beyond the farm jobs
        coalesced = max(0, compiled - traced_counts["farm_dispatches"])
        metrics = summarize(tracer.spans, requests=traced_requests, coalesced=coalesced)
        metrics["store.evictions"] = float(traced_counts["evictions"])
        metrics["trace.overhead_ratio"] = (
            (traced.timed_s / len(traced.latencies)) / (measured.timed_s / len(measured.latencies))
            if traced.latencies and measured.latencies
            else 0.0
        )
        errors.extend(_cross_check(name, tracer, metrics, traced_counts, coalesced))
        units = {key: _layer_unit(key) for key in metrics}
        lines.extend(_trace_report(name, seed, tracer, metrics, traced_requests))

    for key in units:
        lines.append(f"  {key:<42} {metrics[key]:>14.4f} {units[key]}")
    lines.append(
        f"  {'failed_ratio':<42} {failed / attempted if attempted else 0.0:>14.4f} ratio "
        f"({failed}/{attempted})"
    )
    for error in errors[:20]:
        lines.append(f"CHECK FAILED: {error}")
    return Outcome(
        correct=not errors,
        attempted=attempted,
        failed=failed,
        metrics={key: {"value": metrics[key], "unit": units[key]} for key in units},
        lines=lines,
    )


def _cross_check(name, tracer, metrics, counts, coalesced) -> list[str]:
    """Traced counts must equal the program's own counters."""
    outcomes = {"memory": 0, "disk": 0, "miss": 0}
    puts = 0
    for span in tracer.spans:
        if span.name == "store.get":
            outcomes[span.attrs["outcome"]] += 1
        elif span.name == "store.put":
            puts += 1
    pairs = [
        ("store.get memory hits", outcomes["memory"], counts["memory_hits"]),
        ("store.get disk hits", outcomes["disk"], counts["disk_hits"]),
        ("store.get misses", outcomes["miss"], counts["misses"]),
        ("store.put calls", puts, counts["writes"]),
        ("farm jobs", int(metrics["farm.jobs"]), counts["farm_dispatches"]),
        ("coalesced deliveries", coalesced, counts["coalesced"]),
    ]
    errors = [
        f"traced {label} = {traced}, program counter = {counted}"
        for label, traced, counted in pairs
        if traced != counted
    ]
    if name == "warm-zipf":
        routes = [s for s in tracer.spans if s.name.startswith("route.")]
        if metrics["farm.dispatch_calls"] or routes:
            errors.append(
                f"warm-zipf traced {int(metrics['farm.dispatch_calls'])} dispatches, "
                f"{len(routes)} route spans"
            )
    return errors


def _trace_report(name, seed, tracer, metrics, requests) -> list[str]:
    lines = [f"traced requests {requests}"]
    absent = sorted(key for key, value in metrics.items() if key.endswith("_mean") and value == 0.0)
    if absent:
        lines.append("absent on this workload (no samples, reported as 0): " + ", ".join(absent))
    generic = family_ledger(tracer.spans, "generic")
    if generic["requests"]:
        spans = generic["span_ms_mean"]
        cold = "route.generic" in spans  # warm traffic has no cold rows
        ours = {
            "cold request (service.compile)": spans.get("service") if cold else None,
            "route": spans.get("route.generic"),
            "store-write (store.put)": spans.get("store.put") if cold else None,
            "warm disk hit (store.get)": spans.get("store.get[disk]"),
            "warm memory hit + schedule_json()": (
                spans["store.get[memory]"] + spans["serialization.response_encode"]
                if "store.get[memory]" in spans
                else None
            ),
        }
        lines.append(f"generic family vs ROADMAP baseline ({generic['requests']} traced requests):")
        for row, baseline in ROADMAP_BASELINE_MS.items():
            value = ours[row]
            shown = f"{value:9.2f}" if value is not None else "      n/a"
            lines.append(f"  {row:<36} ROADMAP {baseline:7.2f} ms   here {shown} ms")
    out = HERE / "_out"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{name}-seed{seed}.json"
    path.write_text(
        json.dumps(
            {
                "workload": name,
                "seed": seed,
                "metrics": metrics,
                "generic_ledger": generic,
                "spans": dump(tracer.spans),
            }
        )
    )
    lines.append(f"spans written to {path.relative_to(HERE.parent)}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    scratch = HERE / "_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        outcome = run(args.workload, args.seed, args.seconds, bool(args.trace), work, Sizes())
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run is using it
    for line in outcome.lines:
        print(line)
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": outcome.metrics,
            }
        ),
        flush=True,
    )
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
