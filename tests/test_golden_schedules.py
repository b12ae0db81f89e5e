"""Golden-schedule regression tests.

Each golden file under ``tests/golden/`` is the canonical serialisation of
one small known-good schedule (one per router).  The tests assert byte
stability in both directions:

* compiling the fixed input again must reproduce the golden bytes, so a
  refactor cannot silently reorder stages or change the emitted gates;
* deserialising the golden file and re-serialising it must also reproduce
  the bytes, so the JSON round-trip is lossless.

If a router change is *intentional*, refresh the files with
``PYTHONPATH=src python tests/golden/regenerate.py`` and review the diff
(the procedure is documented in ROADMAP.md).
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.sim import verify_schedule_equivalence
from repro.utils.serialization import (
    canonical_bytes,
    canonical_json,
    schedule_from_json,
    schedule_to_dict,
    schedule_to_json,
)

_REGEN_PATH = Path(__file__).resolve().parent / "golden" / "regenerate.py"
_spec = importlib.util.spec_from_file_location("golden_regenerate", _REGEN_PATH)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

CASES = sorted(golden.GOLDEN_CASES)


@pytest.mark.parametrize("name", CASES)
def test_schedule_matches_golden_bytes(name):
    path = golden.golden_path(name)
    assert path.exists(), (
        f"golden file {path} missing — run PYTHONPATH=src python tests/golden/regenerate.py"
    )
    assert golden.render(name) == path.read_text(), (
        f"{name}: schedule drifted from tests/golden/{name}.json; if the change is "
        "intentional, regenerate the golden files and review the diff"
    )


@pytest.mark.parametrize("name", CASES)
def test_golden_round_trip_is_byte_stable(name):
    text = golden.golden_path(name).read_text()
    restored = schedule_from_json(text)
    assert schedule_to_json(restored, canonical=True) + "\n" == text


@pytest.mark.parametrize("name", CASES)
def test_canonical_serialisation_is_deterministic(name):
    schedule = golden.GOLDEN_CASES[name]()
    first = schedule_to_json(schedule, canonical=True)
    second = schedule_to_json(golden.GOLDEN_CASES[name](), canonical=True)
    assert first == second


@pytest.mark.parametrize("name", CASES)
def test_compact_payload_renders_to_golden_bytes(name):
    """The compact worker payload and the pretty golden form are one
    document: parsing the payload and re-rendering it gives the golden file."""
    payload = canonical_bytes(schedule_to_dict(golden.GOLDEN_CASES[name](), canonical=True))
    assert canonical_json(json.loads(payload)) + "\n" == golden.golden_path(name).read_text()


def test_golden_qaoa_schedule_still_verifies():
    """The pinned QAOA schedule stays semantically equivalent to its circuit."""
    from repro.circuit import qaoa_cost_layer
    from repro.workloads import ring_graph_edges

    schedule = golden.build_qaoa_schedule()
    reference = qaoa_cost_layer(6, ring_graph_edges(6), gamma=0.7)
    assert verify_schedule_equivalence(reference, schedule, seed=17)
