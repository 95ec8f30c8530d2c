"""Golden content digests: the store, registry, wire and calibration keys.

Every persisted or wire-visible identity in the system is a SHA-256 over
canonical JSON (sorted keys, no spaces).  These literal hex values pin the
byte-exact form of each key, so a refactor of how the digests are computed
cannot silently orphan existing sweep stores, registry entries, ETags or
feedback records.
"""

from __future__ import annotations

from dataclasses import replace

from repro.calibrate.feedback import record_digest
from repro.engine.store import structural_sweep_digest, sweep_digest
from repro.hardware.params import DEFAULT_PARAMS, params_digest
from repro.hardware.spec import V100
from repro.ir.dims import bert_large_dims
from repro.registry.entry import schedule_digest
from repro.service.protocol import (
    OptimizeRequest,
    canonical_json_bytes,
    optimize_request_digest,
    parse_sweep_request,
    sweep_request_digest,
    sweep_request_wire,
)
from repro.transformer.graph_builder import build_mha_graph

ENV = bert_large_dims()
CAP = 400
SEED = 0x5EED

GOLDEN = {
    "sweep": "17a1e622d202a752a92d8801686e633c1556d9bbe3022d696672fb458bcb25e1",
    "structural": "37dbaef80b3b188e29e9a2bf0f951d1ae6fd525870a9d673ada39ba594d858c7",
    "optimize": "a2ba568b0ac4f45de49e8d13b6f6cc1679963fb5d495bd66c11b0599cfe62e43",
    "schedule": "d6432d69a5b867c1ca08a95d608e0b72a669aa71bd2a7e9002deccd47d554c45",
    "params": "1ee0fb4fb17f8e9cbffc648d1ee51431a6d6a71b66ec53681e60463d6d8d0f5b",
    "params_fitted": "395c5c8ddab9703d22b33e178f1a5c805c06f9a187c79e91a6a84099dbccea52",
    "record": "2ccde248ee99ebef11f4a34e04ca09a12e5e69ea309cdf94ec2aef43f7aa3162",
}


def _graph():
    return build_mha_graph(qkv_fusion="unfused", include_backward=False)


def test_canonical_json_bytes_form():
    assert canonical_json_bytes({"b": [1, 2.5], "a": "é"}) == (
        b'{"a":"\\u00e9","b":[1,2.5]}'
    )


def test_sweep_digests_are_pinned():
    op = _graph().op("softmax")
    assert sweep_digest(op, ENV, V100, cap=CAP, seed=SEED) == GOLDEN["sweep"]
    assert (
        structural_sweep_digest(op, ENV, V100, cap=CAP, seed=SEED)
        == GOLDEN["structural"]
    )


def test_wire_digests_are_pinned():
    op = _graph().op("softmax")
    wire = sweep_request_wire(op, ENV, V100, cap=CAP, seed=SEED)
    assert sweep_request_digest(parse_sweep_request(wire)) == GOLDEN["sweep"]
    req = OptimizeRequest(
        model="mha",
        qkv_fusion="qkv",
        include_backward=True,
        fused=True,
        env=ENV,
        gpu=V100,
        cap=CAP,
        seed=SEED,
    )
    assert optimize_request_digest(req) == GOLDEN["optimize"]


def test_registry_digest_is_pinned():
    digest = schedule_digest(_graph(), ENV, V100, cap=CAP, seed=SEED)
    assert digest == GOLDEN["schedule"]


def test_calibration_digests_are_pinned():
    assert params_digest(DEFAULT_PARAMS) == GOLDEN["params"]
    fitted = replace(DEFAULT_PARAMS, coalesced_eff=0.5)
    assert params_digest(fitted) == GOLDEN["params_fitted"]
    record = {
        "label": "softmax",
        "side": "ours",
        "measured_us": 12.5,
        "cost_model_version": "1",
        "provenance": {"source": "golden"},
    }
    assert record_digest(record) == GOLDEN["record"]
    # The stamped digest field is excluded from the record's own digest.
    assert record_digest(dict(record, digest="stale")) == GOLDEN["record"]
