"""The user-facing OpenSHMEM API (Table I plus the standard extensions).

PE programs are generator coroutines over a :class:`PE` handle::

    def main(pe):
        sym = yield from pe.malloc(1 << 20)
        yield from pe.put_array(sym, np.arange(128), (pe.my_pe() + 1) % pe.num_pes())
        yield from pe.barrier_all()

Blocking semantics map onto ``yield from``; data is plain NumPy.  Naming
follows the OpenSHMEM specification with the ``shmem_`` prefix dropped
(``pe.put`` = ``shmem_putmem``, ``pe.p``/``pe.g`` = single-element put/get,
``pe.atomic_fetch_add`` = ``shmem_atomic_fetch_add``, ...).  Typed variants
take NumPy dtypes instead of generating one function per C type, mirroring
mpi4py's buffer-protocol approach.
"""

from __future__ import annotations

from typing import Generator, Optional, Union

import numpy as np

from ..host import UserBuffer
from .errors import ShmemError, TransferError
from .heap import SymAddr
from .runtime import AmoOp, ShmemRuntime
from .transfer import Mode
from .waits import remote_wait

__all__ = ["PE", "LocalBuffer"]

ArrayLike = Union[bytes, bytearray, np.ndarray]

_WAIT_OPS = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


class LocalBuffer:
    """A private (non-symmetric) buffer in this PE's user memory.

    Use for zero-copy-style workflows: fill it once, then issue many puts
    from it without restaging.
    """

    def __init__(self, pe: "PE", buffer: UserBuffer):
        self._pe = pe
        self._buffer = buffer

    @property
    def virt(self) -> int:
        return self._buffer.virt

    @property
    def nbytes(self) -> int:
        return self._buffer.nbytes

    def write(self, data: ArrayLike, offset: int = 0) -> None:
        """Fill with application data (untimed: in C the bytes would
        already be in user memory)."""
        arr = _as_u8(data)
        if offset + arr.size > self.nbytes:
            raise TransferError("write overruns local buffer")
        self._pe.rt.host.write_user(self.virt + offset, arr)

    def read(self, nbytes: Optional[int] = None, offset: int = 0) -> np.ndarray:
        n = self.nbytes - offset if nbytes is None else nbytes
        return self._pe.rt.host.read_user(self.virt + offset, n)

    def read_array(self, dtype, count: Optional[int] = None,
                   offset: int = 0) -> np.ndarray:
        dt = np.dtype(dtype)
        n = (self.nbytes - offset) // dt.itemsize if count is None else count
        raw = self.read(n * dt.itemsize, offset)
        return raw.view(dt)


def _as_u8(data: ArrayLike) -> np.ndarray:
    if isinstance(data, np.ndarray):
        return np.ascontiguousarray(data).view(np.uint8).reshape(-1)
    return np.frombuffer(bytes(data), dtype=np.uint8)


class PE:
    """One processing element's handle onto the OpenSHMEM runtime."""

    def __init__(self, runtime: ShmemRuntime):
        self.rt = runtime
        self._scratch: Optional[UserBuffer] = None
        self._statics: dict[str, SymAddr] = {}

    # -- Table I: identity --------------------------------------------------
    def my_pe(self) -> int:
        """``shmem_my_pe()``"""
        return self.rt.my_pe_id

    def num_pes(self) -> int:
        """``shmem_n_pes()``"""
        return self.rt.n_pes

    # -- Table I: symmetric memory -------------------------------------------
    def malloc(self, nbytes: int) -> Generator:
        """``shmem_malloc`` — allocate from the symmetric heap.

        Must be called by all PEs with the same size sequence (SPMD); the
        returned offsets are identical everywhere (Fig. 3)."""
        addr = yield from self.rt.malloc(nbytes)
        return addr

    def free(self, addr: SymAddr) -> Generator:
        """``shmem_free``"""
        yield from self.rt.free(addr)

    def malloc_array(self, count: int, dtype) -> Generator:
        """Allocate a symmetric array of ``count`` elements of ``dtype``."""
        dt = np.dtype(dtype)
        addr = yield from self.malloc(count * dt.itemsize)
        return addr

    def local_alloc(self, nbytes: int) -> LocalBuffer:
        """Private user buffer (put sources / get destinations)."""
        return LocalBuffer(self, self.rt.host.mmap(nbytes))

    def static_symmetric(self, name: str, nbytes: int) -> Generator:
        """Named static symmetric object (§III-B.2: symmetric data "can be
        allocated both statically and dynamically").

        The C equivalent is a global/static variable, symmetric by virtue
        of identical program images; here, the first SPMD-consistent call
        allocates, later calls return the same address.  Re-declaring a
        name with a different size is an error (the images would differ).
        """
        existing = self._statics.get(name)
        if existing is not None:
            if nbytes > existing.nbytes:
                raise ShmemError(
                    f"static symmetric {name!r} redeclared larger "
                    f"({nbytes} > {existing.nbytes})"
                )
            return existing
        addr = yield from self.malloc(nbytes)
        self._statics[name] = addr
        return addr

    def static_array(self, name: str, count: int, dtype) -> Generator:
        """Typed convenience over :meth:`static_symmetric`."""
        dt = np.dtype(dtype)
        addr = yield from self.static_symmetric(name, count * dt.itemsize)
        return addr

    # -- Table I: put / get -----------------------------------------------------
    def put(self, dest: SymAddr, data: ArrayLike, pe: int,
            mode: Optional[Mode] = None) -> Generator:
        """``shmem_putmem`` — one-sided put, locally blocking.

        ``data`` is staged into this PE's user memory (untimed, as the
        bytes would already live there in C) and then moved by the runtime
        with DMA or memcpy per ``mode``."""
        arr = _as_u8(data)
        virt = self._stage(arr)
        yield from self.rt.put(dest, virt, arr.size, pe, mode)

    def put_from(self, dest: SymAddr, src: LocalBuffer, nbytes: int, pe: int,
                 mode: Optional[Mode] = None, src_offset: int = 0,
                 ) -> Generator:
        """Put straight from a :class:`LocalBuffer` (no restaging)."""
        if src_offset + nbytes > src.nbytes:
            raise TransferError("put_from overruns source buffer")
        yield from self.rt.put(dest, src.virt + src_offset, nbytes, pe, mode)

    def put_array(self, dest: SymAddr, array: np.ndarray, pe: int,
                  mode: Optional[Mode] = None) -> Generator:
        """``shmem_<TYPE>_put`` — typed put of a NumPy array."""
        yield from self.put(dest, np.ascontiguousarray(array), pe, mode)

    def get(self, src: SymAddr, nbytes: int, pe: int,
            mode: Optional[Mode] = None) -> Generator:
        """``shmem_getmem`` — one-sided get; returns a uint8 array."""
        virt = self._stage_space(nbytes)
        yield from self.rt.get(src, nbytes, pe, virt, mode)
        return self.rt.host.read_user(virt, nbytes)

    def get_into(self, dest: LocalBuffer, src: SymAddr, nbytes: int, pe: int,
                 mode: Optional[Mode] = None, dest_offset: int = 0,
                 ) -> Generator:
        """Get straight into a :class:`LocalBuffer`."""
        if dest_offset + nbytes > dest.nbytes:
            raise TransferError("get_into overruns destination buffer")
        yield from self.rt.get(src, nbytes, pe, dest.virt + dest_offset, mode)

    def get_array(self, src: SymAddr, count: int, dtype, pe: int,
                  mode: Optional[Mode] = None) -> Generator:
        """``shmem_<TYPE>_get`` — typed get of ``count`` elements."""
        dt = np.dtype(dtype)
        raw = yield from self.get(src, count * dt.itemsize, pe, mode)
        return raw.view(dt)

    def p(self, dest: SymAddr, value, pe: int, dtype="int64") -> Generator:
        """``shmem_<TYPE>_p`` — single-element put."""
        yield from self.put(dest, np.array([value], dtype=dtype), pe)

    def g(self, src: SymAddr, pe: int, dtype="int64") -> Generator:
        """``shmem_<TYPE>_g`` — single-element get."""
        arr = yield from self.get_array(src, 1, dtype, pe)
        return arr[0].item()

    # -- non-blocking variants ----------------------------------------------------
    def put_nbi(self, dest: SymAddr, src: LocalBuffer, nbytes: int,
                pe: int, mode: Optional[Mode] = None, src_offset: int = 0):
        """``shmem_put_nbi`` — returns a handle immediately.

        The source must be a :class:`LocalBuffer` (NBI semantics forbid
        reusing the buffer before ``quiet``, so transparent staging of an
        ndarray would be misleading).  Complete with ``yield handle`` or
        ``yield from pe.quiet()``.
        """
        if src_offset + nbytes > src.nbytes:
            raise TransferError("put_nbi overruns source buffer")
        return self.rt.put_nbi(dest, src.virt + src_offset, nbytes, pe, mode)

    def get_nbi(self, dest: LocalBuffer, src: SymAddr, nbytes: int,
                pe: int, mode: Optional[Mode] = None, dest_offset: int = 0):
        """``shmem_get_nbi`` — returns a handle immediately; ``dest``
        holds the data only after ``quiet`` (or yielding the handle)."""
        if dest_offset + nbytes > dest.nbytes:
            raise TransferError("get_nbi overruns destination buffer")
        return self.rt.get_nbi(src, nbytes, pe,
                               dest.virt + dest_offset, mode)

    def put_signal(self, dest: SymAddr, data: ArrayLike, pe: int,
                   signal: SymAddr, signal_value: int,
                   mode: Optional[Mode] = None) -> Generator:
        """``shmem_put_signal`` — data put followed by an ordered 8-byte
        signal write; pair with ``wait_until(signal, '==', value)``.
        ``mode`` applies to the data; the signal word always goes by
        memcpy."""
        arr = _as_u8(data)
        virt = self._stage(arr)
        yield from self.rt.put_signal(dest, virt, arr.size, pe,
                                      signal, signal_value, mode)

    # -- local symmetric access -----------------------------------------------
    def read_symmetric(self, addr: SymAddr, nbytes: int) -> np.ndarray:
        """Direct (local, untimed) read of our own symmetric heap —
        standard OpenSHMEM: local symmetric objects are plain memory."""
        rt = self.rt
        if rt.san is not None:
            rt.san.record_read(rt.my_pe_id, rt.my_pe_id, addr.offset,
                               nbytes, "local_read", rt.env.now)
        return rt.heap.read(addr, nbytes)

    def read_symmetric_array(self, addr: SymAddr, count: int,
                             dtype) -> np.ndarray:
        dt = np.dtype(dtype)
        return self.read_symmetric(addr, count * dt.itemsize).view(dt)

    def write_symmetric(self, addr: SymAddr, data: ArrayLike) -> None:
        """Direct (local, untimed) write of our own symmetric heap."""
        arr = _as_u8(data)
        rt = self.rt
        if rt.san is not None:
            rt.san.record_write(rt.my_pe_id, rt.my_pe_id, addr.offset,
                                arr.size, "local_write", rt.env.now)
        rt.deliver_to_heap(addr.offset, arr)

    # -- Table I: synchronization ------------------------------------------------
    def barrier_all(self) -> Generator:
        """``shmem_barrier_all`` (Fig. 6 ring barrier by default)."""
        yield from self.rt.barrier_all()

    def quiet(self) -> Generator:
        """``shmem_quiet`` — complete all outstanding local traffic."""
        yield from self.rt.quiet()

    def fence(self) -> Generator:
        """``shmem_fence`` — ordering, implemented as ``quiet``, whose
        completion is first-hop.  That orders the puts, gets and barrier
        notices after it behind the puts before it, since on every hop
        they share one channel.  It does not order an AMO on the default
        plane: an AMO word takes the data window on every hop and can
        overtake put chunks still in transit (ROADMAP: end-to-end
        delivery)."""
        yield from self.rt.quiet()

    def wait_until(self, addr: SymAddr, op: str, value: int) -> Generator:
        """``shmem_wait_until`` on a local int64 symmetric cell.

        The polling loads are *synchronization reads*: ShmemSan does not
        record them as plain accesses (the producer's concurrent write to
        the flag is the by-design signalling idiom, not a race).  Instead,
        when the condition holds, this PE acquires the happens-before
        clock of the write that satisfied it — so data published before a
        ``put_signal``/flag write is visible race-free afterwards.
        """
        try:
            cmp = _WAIT_OPS[op]
        except KeyError:
            raise ShmemError(f"unknown wait_until op {op!r}") from None
        rt = self.rt
        with rt.scope.span("wait_until", category="op", track=rt.name,
                           pe=rt.my_pe_id, op=op, value=value):
            while True:
                # Unrecorded load off the heap (sync-read exemption).
                cell = int(rt.heap.read(addr, 8).view(np.int64)[0])
                if cmp(cell, value):
                    if rt.san is not None:
                        rt.san.sync_acquire(rt.my_pe_id, rt.my_pe_id,
                                            addr.offset, 8)
                    return cell
                # The awaited update typically arrives over a link: a
                # dead path must raise, not spin forever.
                yield from remote_wait(rt, rt.heap_updated.wait(),
                                       what=f"wait_until {op} {value}")

    # -- atomics ---------------------------------------------------------------
    def atomic_fetch(self, addr: SymAddr, pe: int) -> Generator:
        old = yield from self.rt.amo(pe, addr, AmoOp.FETCH)
        return old

    def atomic_set(self, addr: SymAddr, value: int, pe: int) -> Generator:
        yield from self.rt.amo(pe, addr, AmoOp.SET, value)

    def atomic_add(self, addr: SymAddr, value: int, pe: int) -> Generator:
        yield from self.rt.amo(pe, addr, AmoOp.ADD, value)

    def atomic_fetch_add(self, addr: SymAddr, value: int, pe: int) -> Generator:
        old = yield from self.rt.amo(pe, addr, AmoOp.ADD, value)
        return old

    def atomic_compare_swap(self, addr: SymAddr, compare: int, value: int,
                            pe: int) -> Generator:
        old = yield from self.rt.amo(pe, addr, AmoOp.COMPARE_SWAP,
                                     value, compare)
        return old

    def atomic_fetch_and(self, addr: SymAddr, value: int, pe: int) -> Generator:
        old = yield from self.rt.amo(pe, addr, AmoOp.AND, value)
        return old

    def atomic_fetch_or(self, addr: SymAddr, value: int, pe: int) -> Generator:
        old = yield from self.rt.amo(pe, addr, AmoOp.OR, value)
        return old

    def atomic_fetch_xor(self, addr: SymAddr, value: int, pe: int) -> Generator:
        old = yield from self.rt.amo(pe, addr, AmoOp.XOR, value)
        return old

    # -- collectives / locks (implemented in sibling modules) --------------------
    def broadcast(self, dest: SymAddr, src: SymAddr, nbytes: int, root: int,
                  algorithm: str = "linear") -> Generator:
        from .collectives import broadcast

        yield from broadcast(self, dest, src, nbytes, root, algorithm)

    def reduce(self, dest: SymAddr, src: SymAddr, count: int, dtype, op: str,
               workspace: Optional[SymAddr] = None) -> Generator:
        from .collectives import reduce

        yield from reduce(self, dest, src, count, dtype, op, workspace)

    def fcollect(self, dest: SymAddr, src: SymAddr,
                 nbytes_per_pe: int) -> Generator:
        from .collectives import fcollect

        yield from fcollect(self, dest, src, nbytes_per_pe)

    def collect(self, dest: SymAddr, src: SymAddr,
                nbytes_mine: int) -> Generator:
        from .collectives import collect

        sizes = yield from collect(self, dest, src, nbytes_mine)
        return sizes

    def alltoall(self, dest: SymAddr, src: SymAddr,
                 nbytes_per_pe: int) -> Generator:
        from .collectives import alltoall

        yield from alltoall(self, dest, src, nbytes_per_pe)

    # -- strided variants ------------------------------------------------------
    def iput(self, dest: SymAddr, array: np.ndarray, pe: int,
             target_stride: int = 1, mode: Optional[Mode] = None,
             ) -> Generator:
        """``shmem_<TYPE>_iput`` — strided put: element *i* of ``array``
        lands at element index ``i * target_stride`` of the target array.

        ``target_stride == 1`` is a plain contiguous put; larger strides
        issue one message per element (there is no strided delivery in
        the NTB window protocol), so keep element counts modest.
        """
        arr = np.ascontiguousarray(array)
        if target_stride < 1:
            raise TransferError(f"stride must be >= 1, got {target_stride}")
        if target_stride == 1:
            yield from self.put_array(dest, arr, pe, mode)
            return
        itemsize = arr.dtype.itemsize
        for index in range(arr.size):
            yield from self.put(
                SymAddr(dest.offset + index * target_stride * itemsize),
                arr[index:index + 1], pe, mode,
            )

    def iget(self, src: SymAddr, count: int, dtype, pe: int,
             source_stride: int = 1, mode: Optional[Mode] = None,
             ) -> Generator:
        """``shmem_<TYPE>_iget`` — strided get: returns ``count`` elements
        taken every ``source_stride`` elements from the remote array.

        Fetches the covering contiguous span in one get and slices
        locally — fewer round trips than per-element gets, at the cost of
        extra bytes on the wire for large strides.
        """
        if source_stride < 1:
            raise TransferError(f"stride must be >= 1, got {source_stride}")
        dt = np.dtype(dtype)
        if count == 0:
            return np.empty(0, dtype=dt)
        span_elems = (count - 1) * source_stride + 1
        raw = yield from self.get(src, span_elems * dt.itemsize, pe, mode)
        return raw.view(dt)[::source_stride][:count].copy()

    def set_lock(self, lock: SymAddr) -> Generator:
        from .locks import set_lock

        yield from set_lock(self, lock)

    def test_lock(self, lock: SymAddr) -> Generator:
        from .locks import test_lock

        got = yield from test_lock(self, lock)
        return got

    def clear_lock(self, lock: SymAddr) -> Generator:
        from .locks import clear_lock

        yield from clear_lock(self, lock)

    # -- staging plumbing -----------------------------------------------------------
    def _stage_space(self, nbytes: int) -> int:
        """Grow-on-demand private staging buffer; returns its virt base."""
        if self._scratch is None or self._scratch.nbytes < nbytes:
            if self._scratch is not None:
                self.rt.host.munmap(self._scratch)
            size = max(4096, 1 << (nbytes - 1).bit_length())
            self._scratch = self.rt.host.mmap(size)
        return self._scratch.virt

    def _stage(self, arr: np.ndarray) -> int:
        virt = self._stage_space(arr.size)
        self.rt.host.write_user(virt, arr)
        return virt

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<PE {self.my_pe()}/{self.num_pes()}>"
