"""The paper's contribution: OpenSHMEM over the switchless PCIe NTB ring."""

from .api import PE, LocalBuffer
from .barrier import (
    CentralizedBarrier,
    DisseminationBarrier,
    RingBarrier,
)
from .errors import (
    BadPeError,
    NotInitializedError,
    PeerUnreachableError,
    ProtocolError,
    RaceError,
    ShmemError,
    StuckRunError,
    SymmetricHeapError,
    TransferError,
)
from .fastpath import FastpathConfig
from .heap import HeapConfig, SymAddr, SymmetricHeap
from .locks import clear_lock, set_lock, test_lock
from .program import SpmdReport, make_cluster, run_spmd
from .runtime import AmoOp, ShmemConfig, ShmemRuntime
from .service import ShmemService
from .transfer import Message, Mode, MsgKind
from .waits import remote_wait

#: Deferred (PEP 562): the race sanitizer and the collective algorithms
#: are sizeable modules that the default runtime bring-up never touches —
#: loading them lazily keeps short CLI runs (the smoke bench) lean.
_LAZY_SUBMODULE = {
    "RaceReport": "sanitizer",
    "ShmemSan": "sanitizer",
    "render_race_table": "sanitizer",
    "REDUCE_OPS": "collectives",
    "alltoall": "collectives",
    "broadcast": "collectives",
    "collect": "collectives",
    "fcollect": "collectives",
    "reduce": "collectives",
}


def __getattr__(name: str):
    submodule = _LAZY_SUBMODULE.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{submodule}", __name__), name)
    globals()[name] = value
    return value

__all__ = [
    "PE",
    "LocalBuffer",
    "CentralizedBarrier",
    "DisseminationBarrier",
    "RingBarrier",
    "REDUCE_OPS",
    "alltoall",
    "broadcast",
    "collect",
    "fcollect",
    "reduce",
    "BadPeError",
    "NotInitializedError",
    "PeerUnreachableError",
    "ProtocolError",
    "RaceError",
    "ShmemError",
    "StuckRunError",
    "SymmetricHeapError",
    "TransferError",
    "HeapConfig",
    "SymAddr",
    "SymmetricHeap",
    "clear_lock",
    "set_lock",
    "test_lock",
    "SpmdReport",
    "make_cluster",
    "run_spmd",
    "AmoOp",
    "FastpathConfig",
    "ShmemConfig",
    "ShmemRuntime",
    "RaceReport",
    "ShmemSan",
    "render_race_table",
    "ShmemService",
    "Message",
    "Mode",
    "MsgKind",
    "remote_wait",
]
