"""The benchmark's own test: its inputs are a function of the seed alone.

Run from the root of a checkout::

    PYTHONPATH=src python -m pytest perfbench/test_inputs.py -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import inputs  # noqa: E402


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_gives_identical_request_lists(workload):
    assert inputs.request_list_bytes(workload, 7) == inputs.request_list_bytes(workload, 7)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_different_seed_gives_different_digests(workload):
    assert inputs.request_digests(workload, 7) != inputs.request_digests(workload, 8)


def test_sweep_store_requests_are_distinct_digests():
    # Every timed sweep-store request must miss the daemon's L1 cache.
    digests = inputs.request_digests("sweep-store", 7)
    assert len(set(digests)) == len(digests)


def test_sourced_values_match_the_program_defaults():
    from repro.service.protocol import (
        DEFAULT_OPTIMIZE_CAP,
        DEFAULT_SWEEP_CAP,
        DEFAULT_TOP_K,
    )

    assert inputs.TOP_K == DEFAULT_TOP_K
    assert inputs.OPTIMIZE_CAP == DEFAULT_OPTIMIZE_CAP
    assert inputs.HTTP_CAPS == (inputs.ENCODER_CAP, DEFAULT_SWEEP_CAP)


def test_sweep_store_mix_has_the_declared_repeat_share():
    requests = inputs.inputs("sweep-store", 7)["requests"]
    repeats = sum(r["kind"] == "repeat" for r in requests)
    assert len(requests) == inputs.STORE_REQUESTS
    assert repeats == round(inputs.STORE_REQUESTS * inputs.STORE_REPEAT_SHARE)
