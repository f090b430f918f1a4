"""Wire-payload contracts: every protocol dataclass must survive pickling.

The wire codec pickles any value it has no compiled codec for (and a
payload can nest inside one); any payload that cannot round-trip would
split the two transports' behaviour.
"""

import pickle

import pytest

from repro.rmi import protocol
from repro.rmi.classdesc import describe_class
from repro.rmi.stub import RemoteRef
from repro.runtime.locks import LockGrant
from repro.bench.workloads import Counter

SAMPLES = [
    protocol.InvokeRequest(name="c", method="m", args_blob=b"blob"),
    protocol.LookupRequest(name="c"),
    protocol.BindRequest(name="c", ref=RemoteRef("a", "c"), replace=True),
    protocol.UnbindRequest(name="c"),
    protocol.ListRequest(),
    protocol.FindRequest(name="c", hops=("a", "b"), origin_hint="o",
                         verify=False),
    protocol.MoveRequest(name="c", target="b", lock_token="t"),
    protocol.ObjectTransfer(
        name="c", class_name="Counter", state_blob=b"s",
        class_desc=describe_class(Counter), class_hash="h", origin="a",
        transfer_id="x", shared=False,
    ),
    protocol.ClassRequest(class_name="Counter", if_hash="h"),
    protocol.ClassPush(class_name="Counter", source_hash="h",
                       desc=describe_class(Counter)),
    protocol.InstantiateRequest(class_name="Counter", name="c",
                                args_blob=b"a", shared=True),
    protocol.LockRequestPayload(name="c", target="b", requester="a",
                                wait_ms=10.0),
    protocol.UnlockPayload(name="c", token="t"),
    protocol.AgentHopPayload(
        name="c", class_name="Counter", state_blob=b"s",
        class_desc=None, class_hash="h", origin="a", tour_id="t",
        itinerary=("b", "c"), shared=False,
    ),
    protocol.AgentLaunch(name="c", itinerary=("b",), lock_token=""),
    protocol.LoadQuery(),
    protocol.RegistrySnapshot(bindings={"c": RemoteRef("a", "c")},
                              forwarding={"c": "b"}, class_names=("X",)),
]


@pytest.mark.parametrize(
    "payload", SAMPLES, ids=[type(s).__name__ for s in SAMPLES]
)
def test_payload_pickles_round_trip(payload):
    clone = pickle.loads(pickle.dumps(payload))
    assert clone == payload


def test_lock_grant_pickles():
    grant = LockGrant(token="t", kind="stay", name="c", location="a",
                      requester="b")
    assert pickle.loads(pickle.dumps(grant)) == grant


def test_class_descriptor_pickles():
    desc = describe_class(Counter)
    clone = pickle.loads(pickle.dumps(desc))
    assert clone == desc
    assert clone.source_hash == desc.source_hash


def test_payloads_are_immutable():
    import dataclasses

    request = protocol.FindRequest(name="c")
    with pytest.raises(dataclasses.FrozenInstanceError):
        request.name = "other"
