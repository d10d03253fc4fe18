"""ShmemSan: true positives, false-positive freedom, determinism.

The acceptance bar from the sanitizer design:

* a deliberately racy program (put then remote read with no ``quiet``/
  ``barrier``) raises :class:`RaceError` in strict mode, naming both PEs
  and the symmetric address range;
* every synchronization idiom the runtime offers — barriers, collectives,
  ``put_signal``/``wait_until``, locks, atomics, non-blocking + ``quiet``
  — runs sanitizer-clean (no false positives);
* reports are deterministic across runs (the simulator is, and the
  detector adds no virtual time).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import RaceError, ShmemConfig, run_spmd
from repro.core.sanitizer import AccessKind, RaceReport, ShmemSan, \
    render_race_table

STRICT = ShmemConfig(sanitize="strict")
REPORT = ShmemConfig(sanitize="report")


# --------------------------------------------------------------- true positives
def test_put_then_unsynchronized_remote_get_raises():
    """The canonical §II-B footgun: put, then the target reads, no sync."""

    def main(pe):
        sym = yield from pe.malloc_array(16, np.int64)
        if pe.my_pe() == 0:
            yield from pe.put_array(sym, np.arange(16, dtype=np.int64), 1)
        elif pe.my_pe() == 1:
            yield from pe.get_array(sym, 16, np.int64, 1)
        yield from pe.barrier_all()

    with pytest.raises(RaceError) as excinfo:
        run_spmd(main, n_pes=3, shmem_config=STRICT)
    report = excinfo.value.report
    assert {report.first_pe, report.second_pe} == {0, 1}
    assert report.owner_pe == 1
    assert report.start == 0 and report.end >= 16 * 8
    assert "PE 0" in str(excinfo.value) and "PE 1" in str(excinfo.value)


def test_put_then_unsynchronized_local_read_raises():
    def main(pe):
        sym = yield from pe.malloc_array(4, np.int64)
        if pe.my_pe() == 0:
            yield from pe.put_array(sym, np.ones(4, dtype=np.int64), 1)
            yield from pe.quiet()
        elif pe.my_pe() == 1:
            pe.read_symmetric_array(sym, 4, np.int64)
        yield from pe.barrier_all()

    # quiet() fences the *origin* only; the reader still needs a
    # happens-before edge, so this is a race.
    with pytest.raises(RaceError):
        run_spmd(main, n_pes=2, shmem_config=STRICT)


def test_conflicting_puts_from_two_pes_race():
    def main(pe):
        sym = yield from pe.malloc_array(8, np.int64)
        if pe.my_pe() in (0, 1):
            payload = np.full(8, pe.my_pe(), dtype=np.int64)
            yield from pe.put_array(sym, payload, 2)
        yield from pe.barrier_all()

    with pytest.raises(RaceError) as excinfo:
        run_spmd(main, n_pes=3, shmem_config=STRICT)
    report = excinfo.value.report
    assert report.owner_pe == 2
    assert {report.first_pe, report.second_pe} == {0, 1}
    assert report.first_kind == AccessKind.WRITE


def test_local_write_vs_remote_put_race():
    def main(pe):
        sym = yield from pe.malloc_array(2, np.int64)
        if pe.my_pe() == 1:
            pe.write_symmetric(sym, np.zeros(2, dtype=np.int64))
        yield from pe.barrier_all()
        if pe.my_pe() == 0:
            yield from pe.put_array(sym, np.ones(2, dtype=np.int64), 1)
        elif pe.my_pe() == 1:
            # Overlaps PE 0's in-flight put: race.
            pe.write_symmetric(sym, np.full(2, 7, dtype=np.int64))
        yield from pe.barrier_all()

    with pytest.raises(RaceError):
        run_spmd(main, n_pes=2, shmem_config=STRICT)


def test_report_mode_accumulates_instead_of_raising():
    def main(pe):
        sym = yield from pe.malloc_array(16, np.int64)
        if pe.my_pe() == 0:
            yield from pe.put_array(sym, np.arange(16, dtype=np.int64), 1)
        elif pe.my_pe() == 1:
            yield from pe.get_array(sym, 16, np.int64, 1)
        yield from pe.barrier_all()
        return "done"

    report = run_spmd(main, n_pes=3, shmem_config=REPORT)
    assert report.results == ["done"] * 3          # run completed
    assert len(report.races) == 1                  # coalesced to one range
    race = report.races[0]
    assert race.owner_pe == 1
    assert race.end - race.start == 16 * 8
    assert "data race" in race.describe()


# ------------------------------------------------------------- false positives
def test_barrier_synchronized_exchange_is_clean():
    def main(pe):
        sym = yield from pe.malloc_array(16, np.int64)
        right = (pe.my_pe() + 1) % pe.num_pes()
        payload = np.full(16, pe.my_pe(), dtype=np.int64)
        yield from pe.put_array(sym, payload, right)
        yield from pe.barrier_all()
        got = pe.read_symmetric_array(sym, 16, np.int64)
        left = (pe.my_pe() - 1) % pe.num_pes()
        assert got.tolist() == [left] * 16
        yield from pe.barrier_all()
        return int(got[0])

    report = run_spmd(main, n_pes=3, shmem_config=STRICT)
    assert report.races == []
    assert report.sanitizer is not None
    assert report.sanitizer.checked_ops > 0


def test_halo_exchange_pattern_is_clean():
    """Neighbor halo exchange with per-iteration barriers (the
    examples/halo_exchange.py structure, reduced)."""
    interior, halo = 32, 4

    def main(pe):
        n = pe.num_pes()
        field_addr = yield from pe.malloc_array(interior + 2 * halo,
                                                np.float64)
        values = np.full(interior, float(pe.my_pe()), dtype=np.float64)
        pe.write_symmetric(
            field_addr + halo * 8, values.view(np.uint8)
        )
        yield from pe.barrier_all()
        for _step in range(3):
            left, right = (pe.my_pe() - 1) % n, (pe.my_pe() + 1) % n
            # Read only the interior I own — the halo slots are being
            # written by neighbors concurrently within the step.
            mine = pe.read_symmetric_array(
                field_addr + halo * 8, interior, np.float64
            )
            # Send my boundary cells into the neighbors' halo slots.
            yield from pe.put_array(
                field_addr + (interior + halo) * 8, mine[:halo], left
            )
            yield from pe.put_array(
                field_addr, mine[-halo:], right
            )
            yield from pe.barrier_all()
        return pe.my_pe()

    report = run_spmd(main, n_pes=3, shmem_config=STRICT)
    assert report.races == []


def test_put_signal_wait_until_is_clean():
    def main(pe):
        data = yield from pe.malloc_array(64, np.int64)
        flag = yield from pe.malloc_array(1, np.int64)
        if pe.my_pe() == 0:
            payload = np.arange(64, dtype=np.int64)
            yield from pe.put_signal(data, payload, 1, flag, 1)
        elif pe.my_pe() == 1:
            yield from pe.wait_until(flag, "==", 1)
            got = pe.read_symmetric_array(data, 64, np.int64)
            assert got.tolist() == list(range(64))
        yield from pe.barrier_all()

    report = run_spmd(main, n_pes=2, shmem_config=STRICT)
    assert report.races == []


def test_all_collectives_are_clean():
    def main(pe):
        n = pe.num_pes()
        src = yield from pe.malloc_array(n, np.int64)
        dest = yield from pe.malloc_array(n * n, np.int64)
        pe.write_symmetric(
            src, np.full(n, pe.my_pe(), dtype=np.int64).view(np.uint8)
        )
        yield from pe.barrier_all()
        for algorithm in ("linear", "ring"):
            yield from pe.broadcast(dest, src, n * 8, 0, algorithm)
        yield from pe.reduce(dest, src, n, np.int64, "sum")
        yield from pe.fcollect(dest, src, 8)
        yield from pe.alltoall(dest, src, 8)
        sizes = yield from pe.collect(dest, src, 8)
        assert len(sizes) == n
        yield from pe.barrier_all()
        return pe.my_pe()

    report = run_spmd(main, n_pes=3, shmem_config=STRICT)
    assert report.races == []


def test_lock_protected_updates_are_clean():
    def main(pe):
        lock = yield from pe.malloc_array(1, np.int64)
        shared = yield from pe.malloc_array(1, np.int64)
        yield from pe.barrier_all()
        yield from pe.set_lock(lock)
        value = yield from pe.g(shared, 0)
        yield from pe.p(shared, value + 1, 0)
        yield from pe.quiet()
        yield from pe.clear_lock(lock)
        yield from pe.barrier_all()
        final = yield from pe.g(shared, 0)
        return final

    report = run_spmd(main, n_pes=3, shmem_config=STRICT)
    assert report.races == []
    assert all(result == 3 for result in report.results)


def test_amo_counter_is_clean():
    def main(pe):
        counter = yield from pe.malloc_array(1, np.int64)
        yield from pe.barrier_all()
        old = yield from pe.atomic_fetch_add(counter, 1, 0)
        yield from pe.barrier_all()
        total = yield from pe.atomic_fetch(counter, 0)
        return (old, total)

    report = run_spmd(main, n_pes=3, shmem_config=STRICT)
    assert report.races == []
    assert all(total == 3 for _old, total in report.results)


def test_nbi_with_quiet_and_barrier_is_clean():
    def main(pe):
        sym = yield from pe.malloc_array(32, np.int64)
        right = (pe.my_pe() + 1) % pe.num_pes()
        buffer = pe.local_alloc(32 * 8)
        buffer.write(np.full(32, pe.my_pe(), dtype=np.int64).view(np.uint8))
        pe.put_nbi(sym, buffer, 32 * 8, right)
        yield from pe.quiet()
        yield from pe.barrier_all()
        got = pe.read_symmetric_array(sym, 32, np.int64)
        yield from pe.barrier_all()
        return int(got[0])

    report = run_spmd(main, n_pes=3, shmem_config=STRICT)
    assert report.races == []


def test_centralized_barrier_is_clean():
    config = ShmemConfig(sanitize="strict", barrier="centralized")

    def main(pe):
        sym = yield from pe.malloc_array(4, np.int64)
        right = (pe.my_pe() + 1) % pe.num_pes()
        yield from pe.put_array(
            sym, np.full(4, pe.my_pe(), dtype=np.int64), right
        )
        yield from pe.barrier_all()
        got = pe.read_symmetric_array(sym, 4, np.int64)
        yield from pe.barrier_all()
        return int(got[0])

    report = run_spmd(main, n_pes=3, shmem_config=config)
    assert report.races == []


def test_dissemination_barrier_is_clean():
    config = ShmemConfig(sanitize="strict", barrier="dissemination")

    def main(pe):
        sym = yield from pe.malloc_array(4, np.int64)
        right = (pe.my_pe() + 1) % pe.num_pes()
        yield from pe.put_array(
            sym, np.full(4, pe.my_pe(), dtype=np.int64), right
        )
        yield from pe.barrier_all()
        got = pe.read_symmetric_array(sym, 4, np.int64)
        yield from pe.barrier_all()
        return int(got[0])

    report = run_spmd(main, n_pes=4, shmem_config=config)
    assert report.races == []


# ----------------------------------------------------------------- determinism
def _racy_program(pe):
    sym = yield from pe.malloc_array(16, np.int64)
    if pe.my_pe() == 0:
        yield from pe.put_array(sym, np.arange(16, dtype=np.int64), 1)
    elif pe.my_pe() == 1:
        yield from pe.get_array(sym, 16, np.int64, 1)
    yield from pe.barrier_all()


def test_reports_are_deterministic_across_runs():
    first = run_spmd(_racy_program, n_pes=3, shmem_config=REPORT)
    second = run_spmd(_racy_program, n_pes=3, shmem_config=REPORT)
    assert first.races == second.races
    assert first.races  # and there is something to compare


def test_sanitizer_adds_no_virtual_time():
    def main(pe):
        sym = yield from pe.malloc_array(16, np.int64)
        right = (pe.my_pe() + 1) % pe.num_pes()
        yield from pe.put_array(
            sym, np.full(16, pe.my_pe(), dtype=np.int64), right
        )
        yield from pe.barrier_all()
        return pe.my_pe()

    plain = run_spmd(main, n_pes=3)
    sanitized = run_spmd(main, n_pes=3, shmem_config=STRICT)
    assert plain.elapsed_us == sanitized.elapsed_us


# ------------------------------------------------------------- configuration
def test_sanitize_config_validation():
    with pytest.raises(ValueError):
        ShmemConfig(sanitize="aggressive")
    with pytest.raises(ValueError):
        ShmemConfig(sanitize="strict", sanitize_granularity=0)
    with pytest.raises(ValueError):
        ShmemSan(2, mode="bogus")
    with pytest.raises(ValueError):
        ShmemSan(2, granularity=0)


@pytest.mark.parametrize("granularity", [1, 8, 64])
def test_granularity_knob_still_detects(granularity):
    config = ShmemConfig(sanitize="strict",
                         sanitize_granularity=granularity)
    with pytest.raises(RaceError):
        run_spmd(_racy_program, n_pes=3, shmem_config=config)


def test_env_var_enables_sanitizer(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "report")

    def main(pe):
        yield from pe.barrier_all()
        return True

    report = run_spmd(main, n_pes=2)
    assert report.sanitizer is not None
    assert report.sanitizer.mode == "report"


def test_env_var_does_not_override_explicit_config(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "report")

    def main(pe):
        yield from pe.barrier_all()
        return True

    report = run_spmd(main, n_pes=2, shmem_config=STRICT)
    assert report.sanitizer is not None
    assert report.sanitizer.mode == "strict"


def test_env_var_typo_rejected(monkeypatch):
    """A misspelled mode must not silently run unsanitized."""
    monkeypatch.setenv("REPRO_SANITIZE", "Strict ")  # trimmed + lowered: ok
    run_spmd(lambda pe: iter(()), n_pes=2)
    monkeypatch.setenv("REPRO_SANITIZE", "bogus")
    with pytest.raises(ValueError, match="REPRO_SANITIZE"):
        run_spmd(lambda pe: iter(()), n_pes=2)
    monkeypatch.setenv("REPRO_SANITIZE", "off")  # explicit off is fine
    report = run_spmd(lambda pe: iter(()), n_pes=2)
    assert report.sanitizer is None


def test_off_by_default():
    def main(pe):
        yield from pe.barrier_all()
        return True

    report = run_spmd(main, n_pes=2)
    assert report.sanitizer is None
    assert report.races == []


# ---------------------------------------------------------------- rendering
def test_render_race_table():
    empty = render_race_table([])
    assert "no races" in empty
    report = RaceReport(
        owner_pe=1, start=0, end=128,
        first_pe=0, first_kind="write", first_op="put", first_time=10.0,
        second_pe=1, second_kind="read", second_op="get", second_time=20.0,
    )
    table = render_race_table([report])
    assert "[0x0,0x80)" in table
    assert "pe0" in table and "pe1" in table


def test_race_trace_rows_emitted():
    report = run_spmd(_racy_program, n_pes=3, shmem_config=REPORT)
    assert report.sanitizer.race_count == len(report.races) == 1
    assert report.races == report.sanitizer.reports
    assert report.races[0].owner_pe == 1
