"""Schedule-store tests: addressing, durability, eviction, byte-stability.

The load-bearing suites here are the durability ones — corrupted,
truncated, wrong-schema or payload-tampered entries must read as cache
*misses* (and be repaired by the next compile), never crash and never be
served — and the byte-stability one: a schedule served from disk must be
byte-identical to the canonical encoding of a fresh compile of the same
job, which is what makes the cache semantically transparent (the
golden-schedule guarantee extended through the store).
"""

from __future__ import annotations

import gzip
import json
import os
import re

import pytest

from repro.core import CompileFarm, FarmJob, QPilotCompiler, WorkloadSpec
from repro.core.farm import compile_farm_job_with_schedule
from repro.exceptions import QPilotError
from repro.hardware.fpqa import FPQAConfig
from repro.service import CompileRequest, CompileService, ScheduleStore
from repro.service.store import _STORE_SCHEMA_VERSION
from repro.utils.faults import FaultPlan
from repro.utils.serialization import canonical_bytes, canonical_json, schedule_to_dict

SPEC = WorkloadSpec.random_circuit(8, 3, seed=11)


def fresh_bytes(job: FarmJob) -> bytes:
    """Canonical bytes of a direct (farm-free, store-free) compile of ``job``."""
    fresh = QPilotCompiler(job.config).compile_circuit(job.workload.build())
    return canonical_bytes(schedule_to_dict(fresh.schedule, canonical=True))


def read_entry(path) -> bytes:
    """An entry file's bytes, gunzipped if the store compressed it."""
    raw = path.read_bytes()
    return gzip.decompress(raw) if raw[:2] == b"\x1f\x8b" else raw


def write_entry(path, data: bytes, *, compress: bool) -> None:
    path.write_bytes(gzip.compress(data, mtime=0) if compress else data)


@pytest.fixture
def job() -> FarmJob:
    return FarmJob(workload=SPEC, config=FPQAConfig.with_width(8, 4))


@pytest.fixture
def compiled(job):
    return compile_farm_job_with_schedule(job)


class TestStoreBasics:
    def test_put_get_round_trip(self, tmp_path, job, compiled):
        store = ScheduleStore(tmp_path / "store")
        digest = job.digest()
        assert store.get(digest) is None
        store.put(digest, compiled)
        entry = store.get(digest)
        assert entry is not None
        assert entry.digest == digest
        assert entry.router == compiled.router
        assert entry.metrics == compiled.metrics
        assert entry.payload == compiled.payload
        assert entry.sha256 == compiled.sha256
        assert store.stats.hits == 1 and store.stats.misses == 1
        assert store.stats.writes == 1
        assert store.stats.hit_rate == 0.5

    def test_entries_are_sharded_by_digest_prefix(self, tmp_path, job, compiled):
        store = ScheduleStore(tmp_path)
        digest = job.digest()
        store.put(digest, compiled)
        path = store.path_for(digest)
        assert path.exists()
        assert path.parent.name == digest[:2]
        assert path.name == f"{digest}.json"
        assert digest in store
        assert store.digests() == [digest]
        assert len(store) == 1

    def test_loaded_schedule_validates(self, tmp_path, job, compiled):
        store = ScheduleStore(tmp_path)
        store.put(job.digest(), compiled)
        schedule = store.get(job.digest()).load_schedule()
        schedule.validate()
        assert schedule.num_data_qubits == SPEC.num_qubits

    def test_clear_empties_the_store(self, tmp_path, job, compiled):
        store = ScheduleStore(tmp_path)
        store.put(job.digest(), compiled)
        assert store.clear() == 1
        assert len(store) == 0
        assert store.get(job.digest()) is None

    def test_rejects_nonpositive_max_entries(self, tmp_path):
        with pytest.raises(QPilotError):
            ScheduleStore(tmp_path, max_entries=0)


class TestStoreDurability:
    """Bad entries are misses (then repaired), never crashes."""

    def _stored(self, tmp_path, job, compiled) -> tuple[ScheduleStore, str]:
        store = ScheduleStore(tmp_path)
        digest = job.digest()
        store.put(digest, compiled)
        return store, digest

    @pytest.mark.parametrize(
        "corruption",
        [
            pytest.param(lambda text: "", id="empty-file"),
            pytest.param(lambda text: text[: len(text) // 2], id="truncated"),
            pytest.param(lambda text: "not json at all {{{", id="garbled"),
            pytest.param(lambda text: "null", id="wrong-type"),
            pytest.param(lambda text: "[1, 2, 3]", id="not-an-object"),
            pytest.param(
                lambda text: json.dumps({"schema_version": 999}), id="wrong-schema"
            ),
            pytest.param(
                lambda text: text.replace('"metrics"', '"wrong_field"'),
                id="missing-metrics",
            ),
        ],
    )
    def test_corrupted_entry_is_a_miss_and_is_removed(
        self, tmp_path, job, compiled, corruption
    ):
        store, digest = self._stored(tmp_path, job, compiled)
        path = store.path_for(digest)
        path.write_text(corruption(path.read_text()))
        assert store.get(digest) is None
        assert store.stats.corrupt == 1
        assert store.stats.misses == 1
        assert not path.exists(), "corrupt entry must be unlinked for repair"
        # the next put repairs the entry and it reads back fine
        store.put(digest, compiled)
        assert store.get(digest) is not None

    def test_digest_mismatch_is_corruption(self, tmp_path, job, compiled):
        """An entry filed under the wrong digest must not be served."""
        store, digest = self._stored(tmp_path, job, compiled)
        text = store.path_for(digest).read_text()
        fake = "0" * 40
        fake_path = store.path_for(fake)
        fake_path.parent.mkdir(parents=True, exist_ok=True)
        fake_path.write_text(text)
        assert store.get(fake) is None
        assert store.stats.corrupt == 1

    def test_missing_entry_counts_one_miss(self, tmp_path):
        store = ScheduleStore(tmp_path)
        assert store.get("f" * 40) is None
        assert store.stats.misses == 1
        assert store.stats.corrupt == 0

    def test_writes_are_atomic_no_tmp_litter(self, tmp_path, job, compiled):
        store = ScheduleStore(tmp_path)
        store.put(job.digest(), compiled)
        leftovers = [p for p in tmp_path.rglob("*") if p.is_file() and p.suffix != ".json"]
        assert leftovers == []


class TestStoreByteStability:
    """Cached schedule == fresh compile, byte for byte (golden guarantee)."""

    def test_cached_schedule_json_matches_fresh_compile(self, tmp_path, job, compiled):
        store = ScheduleStore(tmp_path)
        store.put(job.digest(), compiled)
        cached = store.get(job.digest())
        assert cached.payload == fresh_bytes(job)
        assert cached.schedule_json() == fresh_bytes(job).decode()

    @pytest.mark.parametrize("executor", ("reference", "thread", "process"))
    def test_store_round_trip_is_byte_stable_across_executors(self, tmp_path, executor, job):
        """put -> get -> re-render is byte-identical no matter which farm
        backend produced the entry (the executor oracle through the store)."""
        store = ScheduleStore(tmp_path / executor)
        result = CompileFarm(executor).run([job], with_schedules=True)[0]
        store.put(job.digest(), result)
        first = store.get(job.digest())
        # a second store at the same root reads the same bytes cold
        reopened = ScheduleStore(tmp_path / executor)
        second = reopened.get(job.digest())
        assert first.schedule_json() == second.schedule_json()
        assert first.schedule_json() == ScheduleStore(tmp_path / executor).get(
            job.digest()
        ).schedule_json()
        assert first.payload == result.payload == fresh_bytes(job)

    def test_entry_file_is_canonical_json(self, tmp_path, job, compiled):
        """The entry file is a compact canonical header line, then the
        worker's payload bytes verbatim."""
        store = ScheduleStore(tmp_path)
        store.put(job.digest(), compiled)
        header_line, newline, payload = store.path_for(job.digest()).read_bytes().partition(
            b"\n"
        )
        assert newline and payload == compiled.payload
        header = json.loads(header_line)
        assert header_line == canonical_json(header, indent=None).encode()
        assert header["schema_version"] == _STORE_SCHEMA_VERSION
        assert header["payload_bytes"] == len(payload)
        assert header["payload_sha256"] == compiled.sha256
        assert payload == canonical_bytes(json.loads(payload))


class TestStoreEviction:
    def _result_for(self, width: int):
        job = FarmJob(workload=SPEC, config=FPQAConfig.with_width(8, width))
        return job.digest(), compile_farm_job_with_schedule(job)

    def test_lru_eviction_over_limit(self, tmp_path):
        store = ScheduleStore(tmp_path, max_entries=2)
        (d1, r1), (d2, r2), (d3, r3) = (self._result_for(w) for w in (2, 4, 8))
        store.put(d1, r1)
        os.utime(store.path_for(d1), (1, 1))  # make d1 stale
        store.put(d2, r2)
        os.utime(store.path_for(d2), (2, 2))
        store.put(d3, r3)
        assert len(store) == 2
        assert store.stats.evictions == 1
        assert d1 not in store  # least recently used went first
        assert d2 in store and d3 in store

    def test_hit_refreshes_lru_position(self, tmp_path):
        store = ScheduleStore(tmp_path, max_entries=2)
        (d1, r1), (d2, r2), (d3, r3) = (self._result_for(w) for w in (2, 4, 8))
        store.put(d1, r1)
        os.utime(store.path_for(d1), (1, 1))
        store.put(d2, r2)
        os.utime(store.path_for(d2), (2, 2))
        assert store.get(d1) is not None  # touch: d1 becomes most recent
        store.put(d3, r3)
        assert d1 in store
        assert d2 not in store

    def test_unbounded_store_never_evicts(self, tmp_path):
        store = ScheduleStore(tmp_path)
        for width in (2, 4, 8):
            digest, result = self._result_for(width)
            store.put(digest, result)
        assert len(store) == 3
        assert store.stats.evictions == 0

    def test_equal_mtime_eviction_is_scan_order_independent(self, tmp_path):
        """Regression: ties on mtime (coarse filesystem clocks) used to be
        broken by directory-scan order, so which entry survived depended
        on readdir order.  The (mtime, name) key makes it deterministic:
        among equal-mtime entries the lexicographically smallest names go
        first, whatever order the scan produced them in."""
        seed_store = ScheduleStore(tmp_path)  # unbounded: seed all three
        entries = [self._result_for(w) for w in (2, 4, 8)]
        for digest, result in entries:
            seed_store.put(digest, result)
        # all three written within one mtime quantum: force the tie
        for digest, _ in entries:
            os.utime(seed_store.path_for(digest), (100, 100))
        store = ScheduleStore(tmp_path, max_entries=2)
        # hand the eviction scan the worst-case order — reverse-by-name;
        # a stable mtime-only sort would preserve it and evict the
        # *largest* names first
        store._entry_paths = lambda: iter(
            sorted(store.root.glob("??/*.json"), key=lambda p: p.name, reverse=True)
        )
        trigger_digest, trigger_result = self._result_for(16)
        store.put(trigger_digest, trigger_result)
        survivors = {p.stem for p in store.root.glob("??/*.json")}
        tied = sorted(digest for digest, _ in entries)
        assert trigger_digest in survivors
        # deterministic rule: the max-name entry of the tie survives
        assert survivors == {trigger_digest, tied[-1]}


class TestMemoryTier:
    """The in-process LRU front tier: zero disk I/O on a memory hit."""

    def _no_disk_reads(self, monkeypatch):
        def forbid(name):
            def boom(*args, **kwargs):  # pragma: no cover - fails the test if hit
                raise AssertionError(f"memory-tier hit touched the disk ({name})")

            return boom

        from pathlib import Path

        monkeypatch.setattr(Path, "read_text", forbid("read_text"))
        monkeypatch.setattr(Path, "read_bytes", forbid("read_bytes"))
        monkeypatch.setattr(os, "utime", forbid("utime"))

    def test_memory_hit_is_disk_free_and_byte_identical(
        self, tmp_path, job, compiled, monkeypatch
    ):
        store = ScheduleStore(tmp_path, memory_entries=4)
        digest = job.digest()
        store.put(digest, compiled)  # write-through populates the tier
        self._no_disk_reads(monkeypatch)
        entry = store.get(digest)
        assert entry is not None
        assert store.stats.memory_hits == 1 and store.stats.disk_hits == 0
        assert store.stats.memory_hit_rate == 1.0
        assert entry.payload is compiled.payload  # the worker's bytes, not a copy
        assert entry.payload == fresh_bytes(job)

    def test_disk_read_populates_the_memory_tier(self, tmp_path, job, compiled, monkeypatch):
        writer = ScheduleStore(tmp_path)
        digest = job.digest()
        writer.put(digest, compiled)
        reader = ScheduleStore(tmp_path, memory_entries=4)
        first = reader.get(digest)  # cold: disk tier
        assert reader.stats.disk_hits == 1 and reader.stats.memory_hits == 0
        self._no_disk_reads(monkeypatch)
        second = reader.get(digest)  # warm: memory tier, zero disk I/O
        assert reader.stats.memory_hits == 1
        assert second.schedule_json() == first.schedule_json()

    def test_memory_tier_is_lru_bounded(self, tmp_path):
        store = ScheduleStore(tmp_path, memory_entries=2)
        entries = []
        for width in (2, 4, 8):
            job = FarmJob(workload=SPEC, config=FPQAConfig.with_width(8, width))
            entries.append(job.digest())
            store.put(job.digest(), compile_farm_job_with_schedule(job))
        assert len(store._memory) == 2
        assert store.stats.memory_evictions == 1
        # the evicted digest falls back to the disk tier, not a miss
        assert store.get(entries[0]) is not None
        assert store.stats.disk_hits == 1 and store.stats.memory_hits == 0

    def test_memory_entry_survives_disk_eviction(self, tmp_path, job, compiled):
        """The documented trade-off: an entry hot in memory is served even
        after its disk file is gone (the digest is the content)."""
        store = ScheduleStore(tmp_path, memory_entries=4)
        digest = job.digest()
        store.put(digest, compiled)
        store.path_for(digest).unlink()
        assert store.get(digest) is not None
        assert store.stats.memory_hits == 1

    def test_rejects_nonpositive_memory_entries(self, tmp_path):
        with pytest.raises(QPilotError):
            ScheduleStore(tmp_path, memory_entries=0)


class TestCompression:
    """gzip disk entries: sniffed reads, mixed roots, corrupt = miss."""

    def test_compressed_entry_round_trips_byte_identical(self, tmp_path, job, compiled):
        store = ScheduleStore(tmp_path, compress=True)
        digest = job.digest()
        store.put(digest, compiled)
        raw = store.path_for(digest).read_bytes()
        assert raw[:2] == b"\x1f\x8b", "entry file must actually be gzip"
        entry = ScheduleStore(tmp_path, compress=True).get(digest)
        assert entry.payload == fresh_bytes(job)

    def test_mixed_codecs_coexist_in_one_root(self, tmp_path):
        """A raw store reads gzip entries and vice versa (magic sniffing)."""
        raw_job = FarmJob(workload=SPEC, config=FPQAConfig.with_width(8, 2))
        gz_job = FarmJob(workload=SPEC, config=FPQAConfig.with_width(8, 4))
        ScheduleStore(tmp_path).put(
            raw_job.digest(), compile_farm_job_with_schedule(raw_job)
        )
        ScheduleStore(tmp_path, compress=True).put(
            gz_job.digest(), compile_farm_job_with_schedule(gz_job)
        )
        for compress in (False, True):
            reader = ScheduleStore(tmp_path, compress=compress)
            assert reader.get(raw_job.digest()) is not None
            assert reader.get(gz_job.digest()) is not None

    def test_truncated_gzip_entry_is_a_miss_and_is_removed(self, tmp_path, job, compiled):
        store = ScheduleStore(tmp_path, compress=True)
        digest = job.digest()
        store.put(digest, compiled)
        path = store.path_for(digest)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])  # valid magic, garbled body
        reader = ScheduleStore(tmp_path, compress=True)
        assert reader.get(digest) is None
        assert reader.stats.corrupt == 1
        assert not path.exists()

    def test_compressed_bytes_are_deterministic(self, tmp_path, job, compiled):
        """Concurrent writers of one digest must still converge bit-for-bit."""
        a = ScheduleStore(tmp_path / "a", compress=True)
        b = ScheduleStore(tmp_path / "b", compress=True)
        a.put(job.digest(), compiled)
        b.put(job.digest(), compiled)
        assert (
            a.path_for(job.digest()).read_bytes() == b.path_for(job.digest()).read_bytes()
        )


def _oracle_payload(job: FarmJob) -> bytes:
    """The reference executor's payload for ``job`` (the differential oracle)."""
    return CompileFarm("reference").run([job], with_schedules=True)[0].payload


CODECS = pytest.mark.parametrize("compress", (False, True), ids=("raw", "gzip"))


class TestOldSchema:
    """The store is a cache: entries of an older schema are misses, not migrations."""

    def _write_v2(self, store: ScheduleStore, digest: str, compiled, compress: bool) -> None:
        """A schema-2 entry: one pretty canonical JSON document, schedule inline."""
        data = {
            "schema_version": 2,
            "codec": "gzip" if compress else "raw",
            "digest": digest,
            "router": compiled.router,
            "metrics": compiled.metrics.to_dict(),
            "schedule": json.loads(compiled.payload),
        }
        path = store.path_for(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        write_entry(path, (canonical_json(data) + "\n").encode(), compress=compress)

    @CODECS
    def test_schema_2_entry_is_a_miss_then_recompiled(
        self, tmp_path, job, compiled, compress
    ):
        store = ScheduleStore(tmp_path, compress=compress)
        digest = job.digest()
        self._write_v2(store, digest, compiled, compress)
        assert store.get(digest) is None
        assert store.stats.misses == 1 and store.stats.hits == 0
        assert not store.path_for(digest).exists()
        # a service that meets the old entry recompiles and rewrites it
        self._write_v2(store, digest, compiled, compress)
        service = CompileService(store, executor="reference")
        response = service.compile(CompileRequest(workload=job.workload, config=job.config))
        assert response.source == "compiled"
        assert response.payload == _oracle_payload(job)
        header = json.loads(read_entry(store.path_for(digest)).partition(b"\n")[0])
        assert header["schema_version"] == _STORE_SCHEMA_VERSION
        assert ScheduleStore(tmp_path).get(digest).payload == response.payload


def _flip_float_digit(payload: bytes) -> bytes:
    """Change one fractional digit of the first float: still valid JSON."""
    match = re.search(rb"\d\.(\d)", payload)
    assert match is not None
    at = match.start(1)
    flipped = b"1" if payload[at : at + 1] != b"1" else b"2"
    return payload[:at] + flipped + payload[at + 1 :]


def _with_header(header: dict, payload: bytes) -> bytes:
    return canonical_json(header, indent=None).encode() + b"\n" + payload


class TestPayloadIntegrity:
    """A payload that does not match its header's length and sha256 is
    never served: the read is a miss, counted corrupt, and the file is
    unlinked so the next compile repairs it with the oracle bytes."""

    MUTATIONS = {
        # same length, still parseable: only the sha256 catches it
        "flipped-float-digit": lambda header, payload: _with_header(
            header, _flip_float_digit(payload)
        ),
        "truncated-payload": lambda header, payload: _with_header(
            header, payload[: len(payload) // 2]
        ),
        # header claims one byte more than the payload holds
        "length-mismatch": lambda header, payload: _with_header(
            {**header, "payload_bytes": header["payload_bytes"] + 1}, payload
        ),
    }

    @CODECS
    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_tampered_payload_is_a_corrupt_miss_then_recompiled(
        self, tmp_path, job, compress, mutation
    ):
        request = CompileRequest(workload=job.workload, config=job.config)
        service = CompileService(tmp_path, executor="reference", memory_entries=None)
        store = service.store
        oracle = _oracle_payload(job)
        assert service.compile(request).payload == oracle
        path = store.path_for(job.digest())
        header_line, _, payload = read_entry(path).partition(b"\n")
        tampered = self.MUTATIONS[mutation](json.loads(header_line), payload)
        if mutation == "flipped-float-digit":
            assert json.loads(tampered.partition(b"\n")[2]) != json.loads(payload)
        write_entry(path, tampered, compress=compress)

        assert store.get(job.digest()) is None
        assert service.metrics_dict()["store_corrupt_total"] == 1
        assert store.stats.hits == 0  # the tampered bytes were never served
        assert not path.exists()
        response = service.compile(request)
        assert response.source == "compiled"
        assert response.payload == oracle
        assert ScheduleStore(tmp_path).get(job.digest()).payload == oracle


class TestCountConsistency:
    """Regression: the corrupt-entry path must only decrement the cached
    entry count for a file it actually removed."""

    def test_concurrent_repair_does_not_drive_count_negative(
        self, tmp_path, job, compiled, monkeypatch
    ):
        from pathlib import Path

        store = ScheduleStore(tmp_path)
        digest = job.digest()
        store.put(digest, compiled)
        # a concurrent daemon repairs (unlinks) the corrupt entry first...
        store.path_for(digest).unlink()
        assert len(store) == 0  # materialise the cached count at the truth
        # ...but this store still observes the stale corrupt bytes
        monkeypatch.setattr(Path, "read_bytes", lambda self: b"stale corrupt {{{")
        monkeypatch.setattr(Path, "read_text", lambda self, **kw: "stale corrupt {{{")
        assert store.get(digest) is None
        assert len(store) == 0, "decremented for a file another daemon removed"
        assert store.get(digest) is None  # and it must not keep drifting
        assert len(store) == 0
        assert store.stats.corrupt == 2

    def test_clear_resets_fault_write_attempts(self, tmp_path, job, compiled):
        """Regression: clear() kept per-digest write-attempt counters, so a
        long-lived daemon leaked them (and bounded fault rules stayed
        spent across what should be a fresh epoch)."""
        plan = FaultPlan.single("fail-store-write", match="no-such-digest")
        store = ScheduleStore(tmp_path, faults=plan)
        digest = job.digest()
        store.put(digest, compiled)
        assert store._write_attempts  # populated by the put
        store.clear()
        assert store._write_attempts == {}

    def test_puts_without_a_fault_plan_track_no_attempts(self, tmp_path, compiled):
        """Regression: every put recorded a write attempt even with no fault
        plan attached, so a long-lived service grew one ledger entry per
        digest it had ever written."""
        store = ScheduleStore(tmp_path)
        for index in range(50):
            store.put(f"{index:040x}", compiled)
        assert len(store) == 50
        assert store._write_attempts == {}
