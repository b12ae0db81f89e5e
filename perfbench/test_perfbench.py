"""Tests of the benchmark itself: the checker, the ledger and the metric set.

Run from the repository root with ``python3 -m pytest perfbench -q``.
Workloads are shrunk to a dozen qubits so the whole file takes seconds.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import ledger
import run
from checks import CheckError, check_payload, decode, expected_pairs
from workloads import Deliveries, Sizes, headline_spec, make_item

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = Sizes(
    headline_qubits=12,
    headline_width=4,
    generic_gate_multiple=3,
    qaoa_edge_probability=0.4,
    qsim_probability=0.4,
    qsim_strings=6,
    mixed_qubits=10,
    mixed_gate_multiple=3,
    mixed_qsim_strings=5,
    mixed_widths=(4, 8),
    mixed_seeds=2,
    warm_universe=6,
    cold_max_entries=8,
    mixed_max_entries=6,
    mixed_memory_entries=3,
    setup_repeats=1,
)


def canonical(schedule: dict) -> bytes:
    return json.dumps(schedule, indent=2, sort_keys=True).encode()


@pytest.fixture(scope="module")
def payloads(tmp_path_factory):
    """One delivered payload per family, with the inputs the checker needs."""
    service = run.new_service(tmp_path_factory.mktemp("store"), TINY)
    out = {}
    for family in ("generic", "qaoa", "qsim"):
        item = make_item(family, headline_spec(family, 7, TINY), TINY.headline_width)
        data = service.compile(item.request).schedule_json().encode()
        out[family] = (item, data, item.spec.build())
    return out


def _check(item, data, built):
    return check_payload(
        data, family=item.family, num_qubits=item.spec.num_qubits, width=item.width, built=built
    )


def _rydberg_gates(schedule):
    return [
        (stage, gate)
        for stage in schedule["stages"]
        if stage["kind"] == "RydbergStage"
        for gate in stage["gates"]
    ]


@pytest.mark.parametrize("family", ["generic", "qaoa", "qsim"])
def test_delivered_payloads_pass(payloads, family):
    item, data, built = payloads[family]
    assert _check(item, data, built)["rydberg_stages"] > 0


@pytest.mark.parametrize("family", ["generic", "qaoa", "qsim"])
def test_dropped_rydberg_gate_is_rejected(payloads, family):
    item, data, built = payloads[family]
    schedule = decode(data)
    stage, gate = _rydberg_gates(schedule)[0]
    stage["gates"].remove(gate)
    with pytest.raises(CheckError):
        _check(item, canonical(schedule), built)


@pytest.mark.parametrize("family", ["generic", "qaoa"])
def test_dropped_gate_with_patched_metrics_is_rejected(payloads, family):
    # the metrics block is rewritten to agree, so only the coupling check can object
    item, data, built = payloads[family]
    schedule = decode(data)
    stages = _rydberg_gates(schedule)
    stage, gate = next(
        (stage, gate) for stage, gate in stages if len(stage["gates"]) > 1
    )
    stage["gates"].remove(gate)
    schedule["metrics"]["2q_gates"] -= 1
    with pytest.raises(CheckError, match="couplings differ"):
        _check(item, canonical(schedule), built)


@pytest.mark.parametrize("family", ["generic", "qaoa", "qsim"])
def test_repointed_operand_is_rejected(payloads, family):
    item, data, built = payloads[family]
    schedule = decode(data)
    n = item.spec.num_qubits
    if family == "qsim":
        supports = [set(s.support) for s in built if len(s.support) >= 2]

        def allowed(a, b):
            return any(a in s and b in s for s in supports)
    else:
        want = expected_pairs(family, built)

        def allowed(a, b):
            return (min(a, b), max(a, b)) in want

    # re-point the data-qubit operand of the first Rydberg gate whose
    # partner can be paired with a qubit the input never couples it to
    copies_of: dict[int, int] = {}
    repointed = False
    for stage in schedule["stages"]:
        if stage["kind"] == "AncillaCreationStage":
            for (kind, index), slot in stage["copies"]:
                copies_of[slot] = index if kind == "slm" else copies_of[index]
        elif stage["kind"] == "RydbergStage":
            for gate in stage["gates"]:
                (kind_a, a), (kind_b, b) = gate["operands"]
                if kind_a != "slm" and kind_b != "slm":
                    continue
                operand, partner = (0, b) if kind_a == "slm" else (1, a)
                if gate["operands"][1 - operand][0] == "aod":
                    partner = copies_of[partner]
                target = next(
                    (q for q in range(n) if q != partner and not allowed(partner, q)), None
                )
                if target is not None:
                    gate["operands"][operand][1] = target
                    repointed = True
                    break
        if repointed:
            break
    assert repointed
    with pytest.raises(CheckError):
        _check(item, canonical(schedule), built)


@pytest.mark.parametrize("family", ["generic", "qaoa", "qsim"])
def test_flipped_payload_byte_is_rejected(payloads, family, tmp_path):
    item, data, built = payloads[family]
    flipped = bytearray(data)
    flipped[len(flipped) // 2] ^= 0x01
    deliveries = Deliveries(tmp_path / "delivered")
    deliveries.record(item, data, "compiled")
    deliveries.record(item, bytes(flipped), "cache")
    assert deliveries.errors and "two different payloads" in deliveries.errors[0]
    broken = bytes([data[0] ^ 0x01]) + data[1:]
    with pytest.raises(CheckError):
        _check(item, broken, built)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_untraced_run_installs_no_wrapper(workload, tmp_path, monkeypatch):
    originals = ledger.current_targets()

    def refuse(self):
        raise AssertionError("the untraced run installed tracing wrappers")

    monkeypatch.setattr(ledger.Tracer, "install", refuse)
    outcome = run.run(workload, 3, 0.05, False, tmp_path, TINY)
    assert outcome.correct, outcome.lines
    assert outcome.failed == 0
    assert set(outcome.metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in outcome.metrics.values())
    assert all(a is b for a, b in zip(ledger.current_targets(), originals))


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_run_reports_every_layer_and_restores_names(workload, tmp_path):
    originals = ledger.current_targets()
    outcome = run.run(workload, 4, 0.1, True, tmp_path, TINY)
    # correct also means the traced counts equal the program's counters
    assert outcome.correct, outcome.lines
    assert set(outcome.metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert all(a is b for a, b in zip(ledger.current_targets(), originals))
    values = {name: metric["value"] for name, metric in outcome.metrics.items()}
    if workload == "warm-zipf":
        assert values["farm.dispatch_calls"] == 0
        assert values["route.generic_ms_mean"] == 0
        assert values["store.disk_hit_ratio"] > 0
    else:
        assert values["farm.jobs"] > 0 and values["store.put_calls"] > 0


def test_ledger_self_time_and_overhead():
    spans = [
        ledger.Span(1, "request", None, 1, 0.0, 10.0),
        ledger.Span(2, "service", 1, 1, 1.0, 9.0),
        ledger.Span(3, "farm.dispatch", 2, 1, 2.0, 4.0, attrs={"call": 9, "jobs": 2}),
        ledger.Span(4, "farm.dispatch", 2, 1, 5.0, 8.0, attrs={"call": 9, "jobs": 2}),
        # two pool-thread jobs of call 9, overlapping each other
        ledger.Span(5, "farm.job", None, 2, 1.5, 3.5, call=9),
        ledger.Span(6, "farm.job", None, 3, 3.0, 6.0, call=9),
    ]
    selfs = ledger.self_times(spans)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(3.0)
    metrics = ledger.summarize(spans, requests=1, coalesced=0)
    assert metrics["farm.dispatch_calls"] == 1
    assert metrics["farm.jobs"] == 2
    assert metrics["farm.dispatch_ms_mean"] == pytest.approx(5000.0)
    # jobs cover 1.5-6.0; inside the segments that is 2-4 and 5-6: 3 s of 5
    assert metrics["farm.overhead_ms_mean"] == pytest.approx(2000.0)
    assert metrics["service.unattributed_ratio"] == pytest.approx(0.2)
