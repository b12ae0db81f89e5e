"""Request generators and closed-loop passes for the three workloads.

Every input is derived from the run's ``--seed`` with ``random.Random``
streams named after their use, so one seed always yields the same
requests, and the service only ever sees the generated requests.

One client drives the service in a closed loop: it sends the next
request only after the previous one's bytes are in hand.  On the
``compile()`` path the clock runs from the hand-over to ``compile()``
until ``response.schedule_json().encode()`` returns.  On the ``stream()``
path it runs from the moment ``stream()`` pulls the request out of the
benchmark's generator until the matching response's bytes are encoded.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from collections import Counter, defaultdict, deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Iterable, Iterator

from repro.core.farm import WorkloadSpec
from repro.exceptions import QPilotError
from repro.service import CompileRequest, CompileService

from checks import FAMILIES, CheckError, check_payload


@dataclass(frozen=True)
class Sizes:
    """Workload shapes; the defaults are the benchmark, tests shrink them."""

    headline_qubits: int = 100
    headline_width: int = 10
    generic_gate_multiple: int = 5
    qaoa_edge_probability: float = 0.1
    qsim_probability: float = 0.1
    qsim_strings: int = 25
    mixed_qubits: int = 50
    mixed_gate_multiple: int = 10
    mixed_qaoa_edge_probability: float = 0.3
    mixed_qsim_probability: float = 0.3
    mixed_qsim_strings: int = 20
    mixed_widths: tuple[int, ...] = (8, 16, 32)
    mixed_seeds: int = 4
    mixed_preload: int = 64
    warm_universe: int = 24
    zipf_s: float = 1.1
    cold_max_entries: int = 48
    mixed_max_entries: int = 24
    mixed_memory_entries: int = 12
    warmups: int = 3
    setup_repeats: int = 3
    max_workers: int = 2


@dataclass(frozen=True)
class Item:
    """One generated request and what the checks need to know about it."""

    family: str
    spec: WorkloadSpec
    width: int
    request: CompileRequest
    digest: str


def headline_spec(family: str, seed: int, sizes: Sizes) -> WorkloadSpec:
    n = sizes.headline_qubits
    if family == "generic":
        return WorkloadSpec.random_circuit(n, sizes.generic_gate_multiple, seed=seed)
    if family == "qaoa":
        return WorkloadSpec.qaoa_random_graph(n, sizes.qaoa_edge_probability, seed=seed)
    return WorkloadSpec.qsim(
        n, sizes.qsim_probability, num_strings=sizes.qsim_strings, seed=seed
    )


def mixed_spec(family: str, seed: int, sizes: Sizes) -> WorkloadSpec:
    """Fig. 14-style workloads (random 10x gates, p=0.3 qsim and QAOA)."""
    n = sizes.mixed_qubits
    if family == "generic":
        return WorkloadSpec.random_circuit(n, sizes.mixed_gate_multiple, seed=seed)
    if family == "qaoa":
        return WorkloadSpec.qaoa_random_graph(n, sizes.mixed_qaoa_edge_probability, seed=seed)
    return WorkloadSpec.qsim(
        n, sizes.mixed_qsim_probability, num_strings=sizes.mixed_qsim_strings, seed=seed
    )


def make_item(family: str, spec: WorkloadSpec, width: int) -> Item:
    request = CompileRequest.for_width(spec, width)
    return Item(family, spec, width, request, request.digest())


class SeedSource:
    """Distinct workload seeds from one named random stream."""

    def __init__(self, *parts: Any):
        self._rng = random.Random(":".join(str(p) for p in parts))
        self._used: set[int] = set()

    def next(self) -> int:
        while True:
            seed = self._rng.randrange(1, 2**31)
            if seed not in self._used:
                self._used.add(seed)
                return seed


def cold_items(seed: int, stream: str, sizes: Sizes) -> Iterator[Item]:
    """Endless distinct headline requests, cycling the three families."""
    seeds = SeedSource("cold", seed, stream)
    for index in itertools.count():
        family = FAMILIES[index % len(FAMILIES)]
        spec = headline_spec(family, seeds.next(), sizes)
        yield make_item(family, spec, sizes.headline_width)


def zipf_weights(count: int, s: float) -> list[float]:
    """Zipf(s) weights of ranks ``0 .. count-1``: rank r gets 1/(r+1)^s."""
    return [1.0 / (rank + 1) ** s for rank in range(count)]


def balanced_families(weights: list[float], order: tuple[str, ...] = FAMILIES) -> list[str]:
    """Give each rank the family whose draw share is smallest so far.

    Ties go to the family earliest in ``order``, so rank 0 (about 30 % of
    all draws at s=1.1) goes to ``order[0]``.  The three families end up
    with near-equal shares of the draws (each within a point of a third
    at 24 or 36 ranks and s=1.1).  The request times of the three
    families form three separate modes, so equal shares keep the median
    inside the middle mode instead of on the edge between two of them,
    where it would jump from seed to seed.
    """
    shares = dict.fromkeys(order, 0.0)
    families = []
    for weight in weights:
        family = min(order, key=lambda f: (shares[f], order.index(f)))
        shares[family] += weight
        families.append(family)
    return families


def warm_universe(sizes: Sizes) -> list[Item]:
    """Headline universe in Zipf rank order.

    The universe is a fixed catalogue; the run seed drives only the draws
    from it.  A universe drawn per seed would put different workloads on
    the hot head of each run, and the hottest keys' payload sizes set the
    run's median.
    """
    seeds = SeedSource("warm-universe")
    # rank 0 goes to qsim, whose hits take the middle time of the three
    # families: the median then falls inside that one key's block of draws
    families = balanced_families(
        zipf_weights(sizes.warm_universe, sizes.zipf_s), ("qsim", "qaoa", "generic")
    )
    return [
        make_item(family, headline_spec(family, seeds.next(), sizes), sizes.headline_width)
        for family in families
    ]


def mixed_universe(sizes: Sizes) -> list[Item]:
    """Fig. 14-style universe in Zipf rank order, a fixed catalogue.

    Families take ranks as :func:`balanced_families` gives them; a
    family's k-th rank is its workload number ``k div len(widths)`` at
    width ``widths[k mod len(widths)]``, so each workload appears at every
    width on neighbouring ranks.
    """
    seeds = SeedSource("mixed-universe")
    widths = sizes.mixed_widths
    count = len(FAMILIES) * sizes.mixed_seeds * len(widths)
    specs: dict[tuple[str, int], WorkloadSpec] = {}
    taken = dict.fromkeys(FAMILIES, 0)
    universe = []
    for family in balanced_families(zipf_weights(count, sizes.zipf_s)):
        k = taken[family]
        taken[family] += 1
        key = (family, k // len(widths))
        if key not in specs:
            specs[key] = mixed_spec(family, seeds.next(), sizes)
        universe.append(make_item(family, specs[key], widths[k % len(widths)]))
    return universe


def warmup_items(sizes: Sizes, tag: str = "", *, mixed: bool = False) -> list[Item]:
    """Untimed warm-up requests, one per family.

    They do not depend on the run seed, so set-up does the same work on
    every seed; ``tag`` gives each repeated set-up its own keys.
    """
    seeds = SeedSource("warmup", tag, mixed)
    spec = mixed_spec if mixed else headline_spec
    width = sizes.mixed_widths[len(sizes.mixed_widths) // 2] if mixed else sizes.headline_width
    return [
        make_item(family, spec(family, seeds.next(), sizes), width)
        for family in FAMILIES[: sizes.warmups]
    ]


def zipf_draws(universe: list[Item], s: float, *parts: Any) -> Iterator[Item]:
    """Endless seeded Zipf(s) draws: P(rank r) is proportional to 1/(r+1)^s."""
    rng = random.Random(":".join(str(p) for p in parts))
    cumulative = list(itertools.accumulate(zipf_weights(len(universe), s)))
    while True:
        yield from rng.choices(universe, cum_weights=cumulative, k=64)


# -- delivered bytes ------------------------------------------------------
class Deliveries:
    """What the client received; the checks run on it after timing stops.

    Within the loop only a sha256 per delivery is taken and the first
    payload of each digest is spilled to ``spill_dir``, so the retained
    payloads add nothing to resident memory.
    """

    def __init__(self, spill_dir: Path):
        self.spill_dir = spill_dir
        spill_dir.mkdir(parents=True, exist_ok=True)
        self.first_sha: dict[str, bytes] = {}
        self.items: dict[str, Item] = {}
        self.delivered: list[str] = []
        self.size_of: dict[str, int] = {}
        self.sources: Counter = Counter()
        self.errors: list[str] = []

    def record(self, item: Item, data: bytes, source: str) -> None:
        sha = hashlib.sha256(data).digest()
        first = self.first_sha.get(item.digest)
        if first is None:
            self.first_sha[item.digest] = sha
            self.items[item.digest] = item
            self.size_of[item.digest] = len(data)
            (self.spill_dir / item.digest).write_bytes(data)
        elif sha != first:
            # check (a): every delivery of a digest carries the same bytes
            self.errors.append(f"digest {item.digest[:12]} delivered two different payloads")
        self.delivered.append(item.digest)
        self.sources[source] += 1

    def check(self) -> dict[str, int]:
        """Run checks (b) and (c) on every digest; return Rydberg stages per digest.

        Failures are appended to ``errors``; their digests are absent
        from the returned map.
        """
        built: dict[str, Any] = {}
        depth: dict[str, int] = {}
        for digest, item in self.items.items():
            key = item.spec.fingerprint()
            if key not in built:
                built[key] = item.spec.build()
            try:
                counts = check_payload(
                    (self.spill_dir / digest).read_bytes(),
                    family=item.family,
                    num_qubits=item.spec.num_qubits,
                    width=item.width,
                    built=built[key],
                )
            except CheckError as exc:
                self.errors.append(f"{item.family} {digest[:12]}: {exc}")
                continue
            depth[digest] = counts["rydberg_stages"]
        return depth


@dataclass
class PassResult:
    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    timed_s: float = 0.0


def compile_pass(
    service: CompileService,
    items: Iterable[Item],
    deliveries: Deliveries,
    *,
    seconds: float,
    min_requests: int,
    deadline: float,
    tracer=None,
) -> PassResult:
    """Closed loop over ``compile()``: one request in flight at a time."""
    result = PassResult()
    for item in items:
        root = tracer.root(family=item.family) if tracer is not None else nullcontext()
        result.attempted += 1
        start = perf_counter()
        try:
            with root:
                response = service.compile(item.request)
                data = response.schedule_json().encode()
        except QPilotError:
            result.failed += 1
            result.timed_s += perf_counter() - start
            continue
        elapsed = perf_counter() - start
        result.latencies.append(elapsed)
        result.timed_s += elapsed
        deliveries.record(item, data, response.source)
        if (
            result.timed_s >= seconds and len(result.latencies) >= min_requests
        ) or perf_counter() >= deadline:
            break
    return result


def stream_pass(
    service: CompileService,
    items: Iterable[Item],
    deliveries: Deliveries,
    *,
    seconds: float,
    min_requests: int,
    deadline: float,
    tracer=None,
) -> PassResult:
    """Closed loop over ``stream()``: the service pulls from our generator."""
    result = PassResult()
    pulled_at: dict[str, deque] = defaultdict(deque)
    by_digest: dict[str, Item] = {}
    bookkeeping = 0.0  # client-side check bookkeeping, excluded from timed wall
    start = perf_counter()

    def requests() -> Iterator[CompileRequest]:
        for item in items:
            now = perf_counter()
            timed = now - start - bookkeeping
            if (timed >= seconds and result.attempted >= min_requests) or now >= deadline:
                return
            result.attempted += 1
            pulled_at[item.digest].append(now)
            by_digest[item.digest] = item
            yield item.request

    responses = service.stream(requests())
    while True:
        root = tracer.root(family="stream") if tracer is not None else nullcontext()
        with root:
            try:
                response = next(responses)
            except StopIteration:
                break
            data = response.schedule_json().encode()
        done = perf_counter()
        result.latencies.append(done - pulled_at[response.digest].popleft())
        deliveries.record(by_digest[response.digest], data, response.source)
        bookkeeping += perf_counter() - done
    result.timed_s = perf_counter() - start - bookkeeping
    result.failed = result.attempted - len(result.latencies)
    return result


def tail_percentile(latencies: list[float], percentile: float) -> float:
    """Nearest-rank percentile (``percentile`` in (0, 1))."""
    ordered = sorted(latencies)
    return ordered[max(0, math.ceil(percentile * len(ordered)) - 1)]
