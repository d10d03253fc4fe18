"""repro — OpenSHMEM over a switchless PCIe NTB ring, reproduced in simulation.

A faithful, laptop-scale reproduction of Lim, Park & Cha, *"Developing an
OpenSHMEM Model over a Switchless PCIe Non-Transparent Bridge Interface"*
(IPDPSW 2019).  The real prototype needs PLX PEX87xx NTB adapters; this
package substitutes a register-accurate NTB/PCIe/host model running on a
deterministic discrete-event simulator (virtual microseconds), with the
OpenSHMEM runtime implemented exactly as the paper describes.

Quick start::

    import numpy as np
    from repro import run_spmd

    def main(pe):
        sym = yield from pe.malloc_array(16, np.int64)
        right = (pe.my_pe() + 1) % pe.num_pes()
        yield from pe.put_array(sym, np.full(16, pe.my_pe()), right)
        yield from pe.barrier_all()
        return pe.read_symmetric_array(sym, 16, np.int64).tolist()

    report = run_spmd(main, n_pes=3)
    print(report.results, f"{report.elapsed_us:.0f} virtual us")

Layers (bottom-up): :mod:`repro.sim` (event kernel), :mod:`repro.memory`,
:mod:`repro.pcie`, :mod:`repro.ntb`, :mod:`repro.host`, :mod:`repro.fabric`
(the substrates), :mod:`repro.core` (the paper's contribution) and
:mod:`repro.bench` (the Fig. 8/9/10 harnesses).
"""

def _warm_bytecode_cache() -> None:
    """Ahead-of-time compile the package when implicit caching is off.

    Some execution environments set ``PYTHONDONTWRITEBYTECODE=1``, which
    makes every fresh interpreter re-parse all ~130 modules of this
    package (~90 ms, dominating short CLI runs like the smoke bench).
    ``compileall`` writes the cache *explicitly* — it is exempt from the
    flag by design — and an up-to-date tree rescans in ~8 ms, so running
    it unconditionally here is cheap, incremental and edit-safe.
    """
    import sys

    if not sys.dont_write_bytecode:
        return  # normal interpreter: caching already implicit
    from pathlib import Path

    package_dir = Path(__file__).resolve().parent
    if not (package_dir / "__init__.py").is_file():  # pragma: no cover
        return  # zipimport or frozen: nothing to precompile
    try:
        import compileall

        compileall.compile_dir(str(package_dir), quiet=2)
    except Exception:  # pragma: no cover - read-only checkout etc.
        pass


_warm_bytecode_cache()

from .core import (
    PE,
    AmoOp,
    FastpathConfig,
    HeapConfig,
    LocalBuffer,
    Mode,
    RaceError,
    ShmemConfig,
    ShmemError,
    SpmdReport,
    SymAddr,
    run_spmd,
)
from .fabric import Cluster, ClusterConfig, Direction, RoutingPolicy
from .host import CostModel, HostConfig
from .ntb import DmaConfig, NtbPortConfig
from .pcie import LinkConfig

#: Deferred (PEP 562), mirroring repro.core: sanitizer machinery loads
#: on first use only.
_LAZY_CORE_NAMES = frozenset({"RaceReport", "ShmemSan", "render_race_table"})


def __getattr__(name: str):
    if name in _LAZY_CORE_NAMES:
        from . import core

        value = getattr(core, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__version__ = "1.0.0"

__all__ = [
    "PE",
    "AmoOp",
    "HeapConfig",
    "LocalBuffer",
    "Mode",
    "RaceError",
    "RaceReport",
    "FastpathConfig",
    "ShmemConfig",
    "ShmemError",
    "ShmemSan",
    "SpmdReport",
    "SymAddr",
    "render_race_table",
    "run_spmd",
    "Cluster",
    "ClusterConfig",
    "Direction",
    "RoutingPolicy",
    "CostModel",
    "HostConfig",
    "DmaConfig",
    "NtbPortConfig",
    "LinkConfig",
    "__version__",
]
