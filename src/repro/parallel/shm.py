"""Shared-memory prognostic state for the process-pool executor.

The pool runner (:mod:`repro.parallel.pool`) holds the *global* prognostic
fields ``h`` (cells) and ``u`` (edges) in one ``multiprocessing.shared_memory``
segment mapped into every worker process.  A halo exchange is then two pure
slice copies per rank — owned slices in, halo slices out — with no
serialization and no parent round-trip, exactly the red synchronization
arrows of Figure 2 priced at memory bandwidth instead of pickling.

Layout: ``n_buffers`` consecutive ``(h, u)`` blocks in one float64 segment
— ``h`` in the first ``n_cells`` slots of each block and ``u`` in the
following ``n_edges``.  The copies are index assignments only (no
arithmetic), so the values that flow through the segment are bitwise
identical to the in-process lockstep exchange
(:class:`repro.parallel.runner.DecomposedShallowWater._exchange`).

The pool double-buffers under either halo schedule: exchange ``i``
(1-based) flows through block ``i % n_buffers``, and the
:class:`SyncBoard` publish/acknowledge counters guarantee a block is
never overwritten while a peer still reads it — the barrier-free
producer/consumer protocol that lets interior compute overlap the
exchange.

Lifecycle: the parent :meth:`SharedState.create`\\ s and eventually
:meth:`SharedState.unlink`\\ s the segment; workers receive the
``SharedState`` object (inherited directly under ``fork``, re-attached by
name when pickled under ``spawn``) and only ever :meth:`SharedState.close`
their mapping.
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = ["SharedState", "SyncBoard", "SyncTimeout"]

_FLOAT = np.float64


class SyncTimeout(threading.BrokenBarrierError):
    """A :class:`SyncBoard` wait timed out: a peer is presumed dead."""


def _attach_segment(name: str):
    """Map an existing shared-memory segment by name (worker side)."""
    from multiprocessing import shared_memory

    shm = shared_memory.SharedMemory(name=name)
    # The parent's resource tracker already accounts for this segment;
    # a worker-side attach must not re-register it, or the tracker
    # reports a spurious leak when the worker exits without unlinking.
    try:
        from multiprocessing.resource_tracker import unregister

        unregister(shm._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker internals vary
        pass
    return shm


class SharedState:
    """The global ``(h, u)`` state in one named shared-memory segment."""

    def __init__(
        self, shm, n_cells: int, n_edges: int, owner: bool, n_buffers: int = 1
    ) -> None:
        self._shm = shm
        self.n_cells = int(n_cells)
        self.n_edges = int(n_edges)
        self.n_buffers = int(n_buffers)
        self._owner = owner
        span = self.n_cells + self.n_edges
        flat = np.ndarray(
            (self.n_buffers * span,), dtype=_FLOAT, buffer=shm.buf
        )
        self._bufs = [
            (flat[b * span : b * span + self.n_cells],
             flat[b * span + self.n_cells : (b + 1) * span])
            for b in range(self.n_buffers)
        ]
        #: Global thickness field of buffer 0, aliased into the segment.
        self.h = self._bufs[0][0]
        #: Global normal-velocity field of buffer 0, aliased into the segment.
        self.u = self._bufs[0][1]

    def buffer(self, seq: int) -> tuple[np.ndarray, np.ndarray]:
        """The ``(h, u)`` block of exchange ``seq`` (``seq % n_buffers``)."""
        return self._bufs[int(seq) % self.n_buffers]

    # ------------------------------------------------------------- lifecycle
    @classmethod
    def create(
        cls, n_cells: int, n_edges: int, n_buffers: int = 1
    ) -> "SharedState":
        """Allocate a fresh zeroed segment (parent side; call ``unlink``)."""
        from multiprocessing import shared_memory

        nbytes = (
            int(n_buffers)
            * (int(n_cells) + int(n_edges))
            * np.dtype(_FLOAT).itemsize
        )
        shm = shared_memory.SharedMemory(create=True, size=nbytes)
        return cls(shm, n_cells, n_edges, owner=True, n_buffers=n_buffers)

    @classmethod
    def attach(
        cls, name: str, n_cells: int, n_edges: int, n_buffers: int = 1
    ) -> "SharedState":
        """Map an existing segment by name (worker side; call ``close``)."""
        shm = _attach_segment(name)
        return cls(shm, n_cells, n_edges, owner=False, n_buffers=n_buffers)

    @property
    def name(self) -> str:
        """OS-level segment name (the attach key)."""
        return self._shm.name

    def close(self) -> None:
        """Drop this process's mapping (the segment itself survives)."""
        self.h = self.u = self._bufs = None  # release views into the buffer
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - stray external views
            pass

    def unlink(self) -> None:
        """Destroy the segment (owner only; mappings must be closed first)."""
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - double unlink
                pass

    # -------------------------------------------------------------- pickling
    def __getstate__(self) -> tuple:
        # Spawned workers re-attach by name; forked workers never pickle.
        return (self.name, self.n_cells, self.n_edges, self.n_buffers)

    def __setstate__(self, state: tuple) -> None:
        name, n_cells, n_edges, n_buffers = state
        other = SharedState.attach(name, n_cells, n_edges, n_buffers)
        self.__dict__.update(other.__dict__)

    # ------------------------------------------------------------ state I/O
    def write_global(self, h: np.ndarray, u: np.ndarray) -> None:
        """Overwrite the whole shared state, in *every* buffer.

        Init and snapshot restore both want all buffers coherent: after a
        reload every rank restarts its exchange sequence at zero, and any
        buffer parity it lands on must hold the committed global state.
        """
        for bh, bu in self._bufs:
            bh[:] = h
            bu[:] = u

    def read_global(self, seq: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """Private copies of the full shared fields of exchange ``seq``."""
        bh, bu = self.buffer(seq)
        return bh.copy(), bu.copy()

    def publish_owned(
        self, local_mesh, state, seq: int = 0, fields=("h", "u")
    ) -> None:
        """Phase one of an exchange: write this rank's owned slices.

        ``fields`` names the variables the halo schedule actually moves at
        this sync point; an elided field's block region keeps its previous
        value (nobody reads it — the schedule proved the halo stays clean).
        """
        lm = local_mesh
        bh, bu = self.buffer(seq)
        if "h" in fields:
            bh[lm.cells_global[: lm.n_owned_cells]] = state.h[: lm.n_owned_cells]
        if "u" in fields:
            bu[lm.edges_global[: lm.n_owned_edges]] = state.u[: lm.n_owned_edges]

    def refresh_halo(
        self,
        local_mesh,
        state,
        seq: int = 0,
        fields=("h", "u"),
        cell_idx: np.ndarray | None = None,
        edge_idx: np.ndarray | None = None,
    ) -> None:
        """Phase two of an exchange: read this rank's halo slices.

        ``cell_idx``/``edge_idx`` (local indices) restrict the refresh to
        the schedule's ring-limited halo subset; ``None`` refreshes the
        full halo of the named ``fields``.
        """
        lm = local_mesh
        bh, bu = self.buffer(seq)
        if "h" in fields:
            if cell_idx is None:
                state.h[lm.n_owned_cells :] = bh[lm.cells_global[lm.n_owned_cells :]]
            else:
                state.h[cell_idx] = bh[lm.cells_global[cell_idx]]
        if "u" in fields:
            if edge_idx is None:
                state.u[lm.n_owned_edges :] = bu[lm.edges_global[lm.n_owned_edges :]]
            else:
                state.u[edge_idx] = bu[lm.edges_global[edge_idx]]

    def read_local(self, local_mesh, seq: int = 0):
        """This rank's full local state (owned + halo) as private copies."""
        from ..swm.state import State

        lm = local_mesh
        bh, bu = self.buffer(seq)
        return State(
            h=bh[lm.cells_global].copy(), u=bu[lm.edges_global].copy()
        )


class SyncBoard:
    """Publish/acknowledge counters for the comm-avoiding halo schedule.

    One shared-memory scoreboard synchronizes the pool's ranks under
    either halo schedule.  Per rank it holds two monotonically increasing
    ``int64`` exchange counters — ``pub[r]`` (the last exchange rank *r*
    published) and ``ack[r]`` (the last exchange rank *r* finished
    reading) — plus a ``float64`` ``observed[r]`` slot with the longest
    compute interval rank *r* has measured (the cross-rank input to the
    adaptive sync timeout).  A single ``multiprocessing.Condition``
    (fork-inherited / Process-arg pickled with the worker arguments)
    wakes waiters; the counters themselves live in the segment so a
    predicate is one vectorized compare.

    The protocol (``n_buffers`` state buffers, exchange ``seq`` 1-based):

    * a rank may *write* buffer ``seq % n_buffers`` once every consumer of
      its owned points has ``ack >= seq - n_buffers`` (the buffer's
      previous occupant is fully drained);
    * a rank may *read* its halo for exchange ``seq`` once every provider
      of its halo points has ``pub >= seq``.

    A timed-out wait raises :class:`SyncTimeout` (a
    ``threading.BrokenBarrierError``), which the pool's broken-exchange
    recovery path (respawn + rewind) handles; :meth:`reset` rewinds the
    counters to match.
    """

    def __init__(self, shm, cond, n_ranks: int, owner: bool) -> None:
        self._shm = shm
        self._cond = cond
        self.n_ranks = int(n_ranks)
        self._owner = owner
        n = self.n_ranks
        isz = np.dtype(np.int64).itemsize
        self.pub = np.ndarray((n,), dtype=np.int64, buffer=shm.buf)
        self.ack = np.ndarray((n,), dtype=np.int64, buffer=shm.buf, offset=n * isz)
        self.observed = np.ndarray(
            (n,), dtype=_FLOAT, buffer=shm.buf, offset=2 * n * isz
        )

    # ------------------------------------------------------------- lifecycle
    @classmethod
    def create(cls, n_ranks: int, ctx) -> "SyncBoard":
        """Allocate the scoreboard (parent side; ``ctx`` a mp context)."""
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(create=True, size=3 * 8 * int(n_ranks))
        board = cls(shm, ctx.Condition(), n_ranks, owner=True)
        board.pub[:] = 0
        board.ack[:] = 0
        board.observed[:] = 0.0
        return board

    @property
    def name(self) -> str:
        """OS-level segment name (the attach key)."""
        return self._shm.name

    def close(self) -> None:
        """Drop this process's mapping (the segment itself survives)."""
        self.pub = self.ack = self.observed = None
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - stray external views
            pass

    def unlink(self) -> None:
        """Destroy the segment (owner only)."""
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - double unlink
                pass

    # -------------------------------------------------------------- pickling
    def __getstate__(self) -> tuple:
        # The Condition pickles through multiprocessing's Process-argument
        # reduction (like any multiprocessing primitive); the segment
        # re-attaches by name.
        return (self.name, self.n_ranks, self._cond)

    def __setstate__(self, state: tuple) -> None:
        name, n_ranks, cond = state
        self.__init__(_attach_segment(name), cond, n_ranks, owner=False)

    # -------------------------------------------------------------- protocol
    def reset(self) -> None:
        """Rewind every exchange counter to zero (recovery rewind).

        ``observed`` survives on purpose: the compute-interval estimates
        stay valid across a respawn and keep the adaptive timeout armed.
        """
        self.pub[:] = 0
        self.ack[:] = 0

    def _wait(self, predicate, timeout: float, what: str) -> None:
        with self._cond:
            if not self._cond.wait_for(predicate, timeout):
                raise SyncTimeout(
                    f"halo sync timed out after {timeout:.1f}s waiting for {what}"
                )

    def await_acked(self, ranks: np.ndarray, seq: int, timeout: float) -> None:
        """Block until every rank in ``ranks`` has acknowledged ``seq``."""
        if seq <= 0 or len(ranks) == 0:
            return
        ack = self.ack
        self._wait(
            lambda: bool(np.all(ack[ranks] >= seq)), timeout, f"acks >= {seq}"
        )

    def await_published(self, ranks: np.ndarray, seq: int, timeout: float) -> None:
        """Block until every rank in ``ranks`` has published ``seq``."""
        if len(ranks) == 0:
            return
        pub = self.pub
        self._wait(
            lambda: bool(np.all(pub[ranks] >= seq)), timeout, f"pubs >= {seq}"
        )

    def mark_published(self, rank: int, seq: int) -> None:
        """Announce this rank's owned slices of exchange ``seq`` are written."""
        with self._cond:
            self.pub[rank] = seq
            self._cond.notify_all()

    def mark_acked(self, rank: int, seq: int) -> None:
        """Announce this rank has finished reading exchange ``seq``."""
        with self._cond:
            self.ack[rank] = seq
            self._cond.notify_all()

    # ------------------------------------------------------ adaptive timeout
    def observe(self, rank: int, seconds: float) -> None:
        """Record a compute interval (max-tracked per rank)."""
        if seconds > self.observed[rank]:
            self.observed[rank] = float(seconds)

    def max_observed(self) -> float:
        """The slowest compute interval any rank has reported."""
        return float(self.observed.max())
