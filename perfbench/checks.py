"""Correctness checks on delivered schedule bytes, independent of the routers.

Every check here reads only the delivered bytes and the input workload
(``WorkloadSpec.build()``).  No router, stage planner, schedule class or
serialisation helper of the program is used, so a bug in any of them
cannot hide itself from these checks.

* (a) every delivery of one digest within a run carries identical bytes
  (cold compile, disk hit and memory hit alike);
* (b) each payload decodes to a JSON object that names the requested
  data-qubit count and array width (``config.slm_cols``), and whose
  ``metrics`` block agrees with a recount of its own stages;
* (c) the two-qubit couplings the schedule performs implement the input.
  Each operand of a two-qubit ``RydbergStage`` gate is resolved to a data
  qubit: an ``slm`` operand is that qubit, an ``aod`` operand is the data
  qubit its live ancilla copies (following ``AncillaCreationStage``
  copies, which may copy other live ancillas).  Then

  - generic circuits: the multiset of coupled data pairs equals the
    multiset of the input's two-qubit gate pairs, except that two
    identical gates adjacent on both their wires may both be missing
    (they multiply to the identity, and the program's clean-up pass drops
    such pairs).  :func:`cancellable_pairs` finds them with its own
    peephole over the input, so a missing coupling passes only when the
    input really allows it to cancel;
  - QAOA: the multiset of coupled pairs equals the edge multiset (once
    per layer);
  - quantum simulation: the set of touched data qubits equals the union
    of the supports of the multi-qubit Pauli strings, and every coupled
    pair lies inside the support of at least one such string.  This is
    weaker than the other two families: the router's CNOT ladders are not
    pinned gate for gate, only their footprint.

A payload byte flipped inside a float or a label keeps the JSON valid and
passes (b) and (c); check (a) catches it whenever the same digest is
delivered more than once in the run.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Any, Iterable

FAMILIES = ("generic", "qaoa", "qsim")


class CheckError(Exception):
    """A delivered schedule failed a correctness check."""


def decode(payload: bytes) -> dict[str, Any]:
    """Parse delivered bytes into the schedule object (check (b), part 1)."""
    try:
        data = json.loads(payload)
    except (UnicodeDecodeError, ValueError) as exc:
        raise CheckError(f"payload does not decode: {exc}") from None
    if not isinstance(data, dict):
        raise CheckError("payload is not a JSON object")
    return data


def recount(schedule: dict[str, Any]) -> dict[str, int]:
    """Stage and gate counts recomputed from the stages themselves."""
    counts = {"rydberg_stages": 0, "2q_gates": 0, "1q_gates": 0, "depth": 0}
    for stage in schedule["stages"]:
        kind = stage["kind"]
        if kind == "RydbergStage":
            gates = stage["gates"]
            counts["2q_gates"] += len(gates)
            if gates:
                counts["rydberg_stages"] += 1
                counts["depth"] += 1
        elif kind in ("AncillaCreationStage", "AncillaRecycleStage"):
            counts["2q_gates"] += len(stage["copies"])
            if stage["copies"]:
                counts["depth"] += 1
        elif kind == "OneQubitStage":
            counts["1q_gates"] += len(stage["gates"])
    return counts


def coupled_pairs(schedule: dict[str, Any]) -> Counter:
    """Multiset of data-qubit pairs the schedule's Rydberg gates couple."""
    num_data = schedule["num_data_qubits"]
    copies_of: dict[int, int] = {}  # live ancilla slot -> data qubit it copies

    def data_qubit(operand: list) -> int:
        kind, index = operand
        if kind == "slm":
            if not 0 <= index < num_data:
                raise CheckError(f"data qubit {index} out of range")
            return index
        if kind == "aod":
            if index not in copies_of:
                raise CheckError(f"Rydberg gate uses dead ancilla slot {index}")
            return copies_of[index]
        raise CheckError(f"unknown operand kind {kind!r}")

    pairs: Counter = Counter()
    for stage in schedule["stages"]:
        kind = stage["kind"]
        if kind == "AncillaCreationStage":
            for source, slot in stage["copies"]:
                copies_of[slot] = data_qubit(source)
        elif kind == "AncillaRecycleStage":
            for _, slot in stage["copies"]:
                if copies_of.pop(slot, None) is None:
                    raise CheckError(f"recycle of dead ancilla slot {slot}")
        elif kind == "RydbergStage":
            for gate in stage["gates"]:
                if len(gate["operands"]) != 2:
                    raise CheckError(f"Rydberg gate with {len(gate['operands'])} operands")
                a, b = (data_qubit(op) for op in gate["operands"])
                if a == b:
                    raise CheckError(f"Rydberg gate couples data qubit {a} with itself")
                pairs[(min(a, b), max(a, b))] += 1
    return pairs


#: Gates equal to their own inverse, and (first, second) inverse pairs,
#: among parameter-free gates.
_SELF_INVERSE = frozenset({"h", "x", "y", "z", "cx", "cz", "swap"})
_INVERSE_PAIRS = frozenset({("s", "sdg"), ("sdg", "s"), ("t", "tdg"), ("tdg", "t")})


def cancellable_pairs(built: Any) -> Counter:
    """Two-qubit gate pairs of a circuit that may cancel, counted per gate.

    Scans the gates keeping, per wire, a stack of the live gates on it.  A
    parameter-free gate that is the inverse of the gate on top of every
    one of its wires (same qubits, in order) cancels with it; both are
    popped, which can expose an earlier pair.  Each cancelled two-qubit
    gate adds one to its pair's count.
    """
    gates = list(built.gates)
    stacks: dict[int, list[int]] = {}
    counts: Counter = Counter()
    for index, gate in enumerate(gates):
        tops = {stacks[q][-1] if stacks.get(q) else None for q in gate.qubits}
        top = tops.pop() if len(tops) == 1 else None
        if top is not None and not gate.params:
            prev = gates[top]
            if prev.qubits == gate.qubits and not prev.params and (
                (prev.name == gate.name and gate.name in _SELF_INVERSE)
                or (prev.name, gate.name) in _INVERSE_PAIRS
            ):
                for q in gate.qubits:
                    stacks[q].pop()
                if len(gate.qubits) == 2:
                    counts[(min(gate.qubits), max(gate.qubits))] += 2
                continue
        for q in gate.qubits:
            stacks.setdefault(q, []).append(index)
    return counts


def expected_pairs(family: str, built: Any, layers: int = 1) -> Counter:
    """Pair multiset a generic or QAOA input demands."""
    if family == "generic":
        return Counter(
            (min(gate.qubits), max(gate.qubits)) for gate in built.gates if len(gate.qubits) == 2
        )
    if family == "qaoa":
        counts: Counter = Counter()
        for a, b in built:
            counts[(min(a, b), max(a, b))] += layers
        return counts
    raise ValueError(f"no pair multiset for family {family!r}")


def _check_qsim(pairs: Counter, strings: Iterable[Any]) -> None:
    supports = [frozenset(s.support) for s in strings if len(s.support) >= 2]
    wanted = frozenset().union(*supports) if supports else frozenset()
    touched = {q for pair in pairs for q in pair}
    if touched != wanted:
        raise CheckError(
            f"qsim touches {len(touched)} data qubits, the input's multi-qubit strings "
            f"cover {len(wanted)} (symmetric difference {sorted(touched ^ wanted)[:8]})"
        )
    for a, b in pairs:
        if not any(a in s and b in s for s in supports):
            raise CheckError(f"qsim couples ({a}, {b}), which share no Pauli string")


def check_payload(
    payload: bytes, *, family: str, num_qubits: int, width: int, built: Any
) -> dict[str, int]:
    """Run checks (b) and (c) on one payload; return its recounted metrics."""
    schedule = decode(payload)
    try:
        if schedule["num_data_qubits"] != num_qubits:
            raise CheckError(
                f"payload names {schedule['num_data_qubits']} data qubits, "
                f"request asked for {num_qubits}"
            )
        if schedule["config"]["slm_cols"] != width:
            raise CheckError(
                f"payload names array width {schedule['config']['slm_cols']}, "
                f"request asked for {width}"
            )
        counts = recount(schedule)
        declared = schedule["metrics"]
        for key, value in counts.items():
            if declared.get(key) != value:
                raise CheckError(
                    f"metrics block says {key}={declared.get(key)!r}, stages give {value}"
                )
        pairs = coupled_pairs(schedule)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckError(f"malformed schedule: {type(exc).__name__}: {exc}") from None
    if family == "qsim":
        _check_qsim(pairs, built)
        return counts
    want = expected_pairs(family, built)
    extra = pairs - want
    missing = want - pairs
    if family == "generic" and missing:
        allowed = cancellable_pairs(built)
        missing = Counter(
            {
                pair: count
                for pair, count in missing.items()
                if count % 2 or count > allowed[pair]
            }
        )
    if extra or missing:
        raise CheckError(
            f"{family} couplings differ from the input: {sum(missing.values())} missing, "
            f"{sum(extra.values())} extra"
        )
    return counts
