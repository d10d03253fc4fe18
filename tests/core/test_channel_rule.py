"""The channel rule (docs/PROTOCOL.md) lives in ``LinkEnd.post`` alone.

Two guards: a truth table — for every ``kind × payload × inline ×
last_leg`` the one function picks the mailbox, re-tagged kind and flags
the seven pre-fold send sites picked — and a structural check that no
other module builds a ``Message``, stamps a ``seq`` or names a mailbox.
"""

from __future__ import annotations

import ast
import itertools
import re
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.links import LinkEnd
from repro.core.transfer import FLAG_INLINE, KIND_FACTS, Mode, MsgKind

SRC = Path(repro.__file__).parent
CORE = SRC / "core"
PUTS = (MsgKind.PUT_DATA, MsgKind.PUT_FWD)


class _Mailbox:
    """Records what ``post`` hands it instead of transmitting."""

    def __init__(self, channel: str):
        self.channel = channel

    def next_seq(self) -> int:
        return 7

    def send(self, msg, payload=None, relay=False):
        return (self.channel, "send", msg, payload, relay)

    def send_inline(self, msg, data, relay=False):
        return (self.channel, "send_inline", msg, data, relay)


def _link() -> LinkEnd:
    return LinkEnd(side="right", edge=(0, 1), driver=None,
                   data_mailbox=_Mailbox("data"),
                   bypass_mailbox=_Mailbox("bypass"),
                   rx_data=None, rx_bypass=None, incoming_spad_block=4)


def _old_sites(kind, has_payload, inline, last_leg):
    """What the pre-fold code chose: ``service._send_onward`` verbatim
    (the runtime's first-hop sites, both barrier senders and the
    link-state flood are its special cases, pinned literally below)."""
    if kind in PUTS:
        kind = MsgKind.PUT_DATA if last_leg else MsgKind.PUT_FWD
    control = not has_payload or kind in (
        MsgKind.GET_REQ, MsgKind.AMO_REQ, MsgKind.AMO_RESP,
        MsgKind.BARRIER_MSG)
    channel = "data" if not inline and (control or last_leg) else "bypass"
    return channel, kind, FLAG_INLINE if inline else 0


@pytest.mark.parametrize(
    "kind,has_payload,inline,last_leg",
    [combo for combo in itertools.product(MsgKind, (False, True),
                                          (False, True), (False, True))
     # inline bytes *are* the payload; header-only kinds carry neither.
     if not (combo[1] and combo[2])
     and (KIND_FACTS[combo[0]].payload or not (combo[1] or combo[2]))])
def test_post_reproduces_the_old_send_sites(kind, has_payload, inline,
                                            last_leg):
    payload = object() if has_payload else None
    data = np.zeros(8, np.uint8) if inline else None
    channel, how, msg, carried, relayed = _link().post(
        kind, 2, 5, last_leg=last_leg, mode=Mode.MEMCPY, offset=64, size=8,
        aux=9, payload=payload, inline=data, relay=True)
    assert (channel, msg.kind, msg.flags) == _old_sites(
        kind, has_payload, inline, last_leg)
    assert how == ("send_inline" if inline else "send")
    assert carried is (data if inline else payload)
    assert relayed is True
    assert (msg.mode, msg.src_pe, msg.dest_pe, msg.offset, msg.size,
            msg.aux, msg.seq) == (Mode.MEMCPY, 2, 5, 64, 8, 9, 7)


@pytest.mark.parametrize("call,expected", [
    # runtime._put_chunk: neighbor / transit / inline
    ((MsgKind.PUT_DATA, True, False, True), ("data", MsgKind.PUT_DATA, 0)),
    ((MsgKind.PUT_DATA, True, False, False), ("bypass", MsgKind.PUT_FWD, 0)),
    ((MsgKind.PUT_DATA, False, True, True),
     ("bypass", MsgKind.PUT_DATA, FLAG_INLINE)),
    ((MsgKind.PUT_DATA, False, True, False),
     ("bypass", MsgKind.PUT_FWD, FLAG_INLINE)),
    # runtime._get_chunk / _amo_request: data window on every hop
    ((MsgKind.GET_REQ, False, False, False), ("data", MsgKind.GET_REQ, 0)),
    ((MsgKind.AMO_REQ, True, False, False), ("data", MsgKind.AMO_REQ, 0)),
    ((MsgKind.AMO_REQ, False, True, False),
     ("bypass", MsgKind.AMO_REQ, FLAG_INLINE)),
    # the responder's chunks and the AMO reply
    ((MsgKind.GET_RESP, True, False, False), ("bypass", MsgKind.GET_RESP, 0)),
    ((MsgKind.GET_RESP, True, False, True), ("data", MsgKind.GET_RESP, 0)),
    ((MsgKind.AMO_RESP, True, False, False), ("data", MsgKind.AMO_RESP, 0)),
    # barrier senders and the link-state flood
    ((MsgKind.BARRIER_MSG, False, False, False),
     ("data", MsgKind.BARRIER_MSG, 0)),
    ((MsgKind.LINK_DOWN, False, False, False),
     ("data", MsgKind.LINK_DOWN, 0)),
])
def test_first_hop_sites_literally(call, expected):
    kind, has_payload, inline, last_leg = call
    channel, _how, msg, _carried, relayed = _link().post(
        kind, 0, 3, last_leg=last_leg,
        payload=object() if has_payload else None,
        inline=np.zeros(8, np.uint8) if inline else None)
    assert (channel, msg.kind, msg.flags, relayed) == (*expected, False)


def test_every_kind_has_one_row_and_one_consumer():
    from repro.core.service import ShmemService

    assert set(KIND_FACTS) == set(MsgKind)
    for kind, facts in KIND_FACTS.items():
        if facts.deliver is not None:
            assert facts.payload, kind
            assert callable(getattr(ShmemService, facts.deliver))
        assert not (facts.data_only and not facts.payload), kind


# ------------------------------------------------------------- structure

def _sources():
    return {path: path.read_text() for path in SRC.rglob("*.py")}


def test_message_is_built_in_three_places():
    """``transfer.py`` (the codec), ``LinkEnd.post`` and the service's one
    AMO_RESP carrier; ``seq`` is stamped by ``post`` alone."""
    built = {path.relative_to(SRC).as_posix(): len(
        re.findall(r"(?<![\w.])Message\(", text))
        for path, text in _sources().items()}
    assert {name: n for name, n in built.items() if n} == {
        "core/transfer.py": 1, "core/links.py": 1, "core/service.py": 1}
    stamped = [path.relative_to(SRC).as_posix()
               for path, text in _sources().items() if "next_seq()" in text]
    assert stamped == ["core/links.py"]


def test_only_links_and_the_receive_side_name_a_mailbox():
    named = {}
    for path, text in _sources().items():
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if any(isinstance(sub, ast.Attribute)
                   and sub.attr in ("data_mailbox", "bypass_mailbox")
                   for sub in ast.walk(node)):
                named.setdefault(path.relative_to(SRC).as_posix(),
                                 set()).add(node.name)
    assert set(named) == {"core/links.py", "core/service.py"}
    assert named["core/service.py"] == {"_receive", "_ack", "_ordered_ack"}


def test_service_detaches_in_one_place():
    service = (CORE / "service.py").read_text()
    assert service.count("env.process(") == 1   # the ordered ack
    assert service.count("_Detached(") == 2     # its class, _detach
    assert service.count("bind_process(") == 1
    gone = ("_handle_data", "_handle_bypass", "_send_onward", "_spawn_task",
            "_spawn_responder", "_forward_inline", "_send_degraded_msg",
            "_send_notify", "_staging", "neighbor_pe")
    for path, text in _sources().items():
        for name in gone:
            assert name not in text, f"{name} still in {path}"
