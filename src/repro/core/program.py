"""SPMD program runner: the ``mpiexec`` of the reproduction.

``run_spmd(main, n_pes=3)`` stands up a cluster, initializes one
:class:`~repro.core.runtime.ShmemRuntime` per host, rendezvouses, runs the
user's generator ``main(pe)`` on every PE, and returns a report with
per-PE results and virtual-time statistics.

The pre-``shmem_init`` rendezvous uses a simulation-level latch: on real
systems the job launcher provides that out-of-band synchronization; inside
OpenSHMEM everything from the ScratchPad handshake onward is simulated
faithfully.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

from ..fabric import Cluster, ClusterConfig
from ..obsv.hist import render_histograms
from ..sim import (AllOf, CountdownLatch, Environment, Process,
                   SimulationError)
from .api import PE
from .errors import ShmemError
from .runtime import ShmemConfig, ShmemRuntime

if TYPE_CHECKING:  # sanitizer loads lazily (see repro.core.__getattr__)
    from .sanitizer import RaceReport, ShmemSan  # noqa: F401

__all__ = ["SpmdReport", "run_spmd", "make_cluster", "launch"]

PeMain = Callable[[PE], Generator]


@dataclass
class SpmdReport:
    """Everything a caller (tests, benches, examples) needs afterwards."""

    results: list[Any]
    elapsed_us: float
    cluster: Cluster
    runtimes: list[ShmemRuntime]
    pes: list[PE]
    #: ShmemSan race reports ("report" mode; empty when clean or off).
    races: list[RaceReport] = field(default_factory=list)
    #: the detector itself (None when sanitization was off).
    sanitizer: Optional[ShmemSan] = None
    #: the span scope (:class:`repro.obsv.spans.ShmemScope`) when
    #: ``ShmemConfig(trace_spans=True)``; None otherwise.
    scope: Optional[Any] = None

    @property
    def env(self) -> Environment:
        return self.cluster.env

    @property
    def metrics(self):
        """The cluster's always-on :class:`~repro.obsv.MetricsRegistry`."""
        return self.cluster.metrics

    def runtime(self, pe: int) -> ShmemRuntime:
        return self.runtimes[pe]

    def stats(self) -> dict[str, Any]:
        """Aggregate operation counters across PEs, plus every
        MetricsRegistry value (``metrics.snapshot()``)."""
        out: dict[str, Any] = {
            "elapsed_us": self.elapsed_us,
            "puts": sum(rt.put_count for rt in self.runtimes),
            "gets": sum(rt.get_count for rt in self.runtimes),
            "amos": sum(rt.amo_count for rt in self.runtimes),
        }
        out.update(self.metrics.snapshot())
        return out

    def render_profile(self) -> str:
        """Human-readable per-PE operation profile (virtual time).

        One line per (PE, op) with call count, mean and max latency plus
        moved bytes — the quick answer to "where did the time go?" —
        then the cluster-wide latency histograms, one row per
        ``{op}_us.{detail}...`` key (docs/METRICS.md).
        """
        lines = [
            f"{'PE':>3} {'op':<9} {'calls':>7} {'mean_us':>10} "
            f"{'max_us':>10} {'bytes':>12}"
        ]
        counters = list(self.metrics.counters())
        for runtime in self.runtimes:
            for op in ("put", "get", "amo", "barrier"):
                hist = self.metrics.hist.get(f"{runtime.name}.{op}_us")
                if hist is None:
                    continue
                # bytes ride on the per-mode op counters (peN.put.DMA ...)
                prefix = f"{runtime.name}.{op}."
                nbytes = sum(counter.bytes for key, counter in counters
                             if key.startswith(prefix))
                lines.append(
                    f"{runtime.my_pe_id:>3} {op:<9} {hist.count:>7} "
                    f"{hist.mean:>10.1f} {hist.maximum:>10.1f} "
                    f"{nbytes:>12}"
                )
        if len(lines) == 1:
            lines.append("  (no instrumented operations recorded)")
        else:
            lines += ["", render_histograms(self.metrics.op_latencies())]
        return "\n".join(lines)


def make_cluster(n_pes: int,
                 cluster_config: Optional[ClusterConfig] = None) -> Cluster:
    """Build (or validate) the cluster for an SPMD run."""
    if cluster_config is None:
        cluster_config = ClusterConfig(n_hosts=n_pes)
    elif cluster_config.n_hosts != n_pes:
        raise ShmemError(
            f"cluster has {cluster_config.n_hosts} hosts but n_pes={n_pes}"
        )
    return Cluster(cluster_config)


def launch(cluster: Cluster, main: PeMain,
           shmem_config: Optional[ShmemConfig] = None,
           finalize: bool = True
           ) -> tuple[list[ShmemRuntime], list[PE], list[Any], list[Process]]:
    """Start ``main(pe)`` on every host of ``cluster`` without running it:
    one runtime, one :class:`PE` and one ``peN.main`` process per host,
    with the launcher's two rendezvous (after ``shmem_init``, before
    ``shmem_finalize``).  Returns ``(runtimes, pes, results, processes)``;
    the caller drives ``cluster.env`` (``run_spmd`` to completion,
    ShmemCheck step by step) and ``results[pe]`` fills in as PEs return.
    """
    env = cluster.env
    n_pes = cluster.n_hosts
    runtimes = [
        ShmemRuntime(cluster, pe_id, shmem_config) for pe_id in range(n_pes)
    ]
    pes = [PE(rt) for rt in runtimes]
    results: list[Any] = [None] * n_pes
    init_latch = CountdownLatch(env, n_pes)
    exit_latch = CountdownLatch(env, n_pes)

    def pe_process(pe_id: int) -> Generator:
        runtime = runtimes[pe_id]
        yield from runtime.initialize()
        init_latch.count_down()
        yield init_latch.wait()  # launcher rendezvous, local  # lint: skip
        results[pe_id] = yield from main(pes[pe_id])
        exit_latch.count_down()
        yield exit_latch.wait()  # local rendezvous  # lint: skip
        if finalize:
            yield from runtime.finalize()

    processes = [
        env.process(pe_process(pe_id), name=f"pe{pe_id}.main")
        for pe_id in range(n_pes)
    ]
    return runtimes, pes, results, processes


def run_spmd(main: PeMain, n_pes: int = 3,
             cluster_config: Optional[ClusterConfig] = None,
             shmem_config: Optional[ShmemConfig] = None,
             cluster: Optional[Cluster] = None,
             finalize: bool = True,
             check_heap_consistency: bool = True) -> SpmdReport:
    """Run ``main(pe)`` as an SPMD program on every PE.

    Parameters
    ----------
    main:
        Generator function taking a :class:`PE`; its return value lands in
        ``report.results[pe]``.
    n_pes:
        Number of PEs (== hosts; the paper runs one PE per host).
    cluster_config / cluster:
        Customize or reuse the hardware; ``cluster`` wins if given.
    shmem_config:
        Runtime knobs (chunk sizes, routing, barrier strategy, mode).
    finalize:
        Run ``shmem_finalize`` on every PE after the rendezvous at exit.
    check_heap_consistency:
        Assert the cross-PE same-offset invariant after the run.
    """
    if cluster is None:
        cluster = make_cluster(n_pes, cluster_config)
    elif cluster.n_hosts != n_pes:
        raise ShmemError(
            f"cluster has {cluster.n_hosts} hosts but n_pes={n_pes}"
        )
    # REPRO_SANITIZE=strict|report turns ShmemSan on for runs that did not
    # choose explicitly (the CI smoke path: sanitize the stock examples
    # without editing them).  An explicit ShmemConfig(sanitize=...) wins.
    env_mode = os.environ.get("REPRO_SANITIZE", "").strip().lower()
    if env_mode and env_mode not in ("strict", "report", "off", "0", ""):
        raise ValueError(
            f"REPRO_SANITIZE={env_mode!r}: expected 'strict', 'report' or "
            "'off' — refusing to run unsanitized on a typo"
        )
    if env_mode in ("strict", "report"):
        if shmem_config is None:
            shmem_config = ShmemConfig(sanitize=env_mode)
        elif shmem_config.sanitize is None:
            shmem_config = dataclasses.replace(shmem_config,
                                               sanitize=env_mode)
    env = cluster.env
    runtimes, pes, results, processes = launch(
        cluster, main, shmem_config, finalize)
    try:
        env.run(until=AllOf(env, processes))
    except SimulationError as exc:
        # The queue drained with PEs still parked: name what each one is
        # blocked on (waits are event-driven, so nothing spins instead).
        stuck = [f"{rt.name} blocked on {', '.join(map(repr, rt.blocked))}"
                 for rt, proc in zip(runtimes, processes)
                 if proc.is_alive and rt.blocked]
        if env.peek() != float("inf") or not stuck:
            raise
        raise ShmemError(
            "deadlock: no event left to run with " + ", ".join(stuck)
        ) from exc

    if check_heap_consistency and not finalize:
        _check_same_offsets(runtimes)

    sanitizer = getattr(cluster, "shmemsan", None)
    if sanitizer is not None:
        # Static invariants of the NTB hardware models hold at quiescence
        # (LUT/window overlap, stale DMA descriptors, orphaned doorbells).
        from ..analysis.invariants import check_cluster

        check_cluster(cluster, strict=(sanitizer.mode == "strict"))

    return SpmdReport(
        results=results,
        elapsed_us=env.now,
        cluster=cluster,
        runtimes=runtimes,
        pes=pes,
        races=list(sanitizer.reports) if sanitizer is not None else [],
        sanitizer=sanitizer,
        scope=getattr(cluster, "scope", None),
    )


def _check_same_offsets(runtimes: list[ShmemRuntime]) -> None:
    """The Fig. 3 invariant: identical allocation logs on every PE."""
    reference = runtimes[0].heap.fingerprint()
    for runtime in runtimes[1:]:
        if runtime.heap.fingerprint() != reference:
            raise ShmemError(
                "symmetric heap divergence: PEs issued different "
                "allocation sequences (program is not SPMD-consistent); "
                f"{runtimes[0].name}={reference} vs "
                f"{runtime.name}={runtime.heap.fingerprint()}"
            )
