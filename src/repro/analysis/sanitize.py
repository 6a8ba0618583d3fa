"""Runtime mutation sanitizer for the evaluation pipeline.

Static certification (:mod:`repro.analysis.certificates`) proves what it
can from source; the sanitizer catches what slips through -- a kernel
that mutates shared buffers via a path the taint pass cannot see
(ufuncs with ``out=``, ``ndarray.__isub__`` called explicitly, C
extensions).  It is a *runtime* cross-check of the engine's three
execution invariants, enabled with ``execute(..., sanitize=True)`` or
``REPRO_SANITIZE=1``:

1. **Input immutability** -- every dispatch batch's input intermediates
   are checksummed (crc32 over their buffers) before evaluation and
   re-verified after: a kernel that wrote a shared buffer in place is
   caught the same round, named, with the operator and input that
   changed.
2. **Commit order** -- the dispatch-order commit barrier is the
   determinism linchpin: results must be committed strictly in
   collection order, so the first occurrences of job indexes in batch
   order must be exactly ``0, 1, 2, ...``.
3. **Trace fingerprint** -- every committed value folds into a rolling
   fingerprint; :func:`verify_dual_run` executes a plan twice on fresh
   simulators and requires bit-identical fingerprints.

Checksumming reads every input buffer once per dispatch round, so the
sanitizer costs host wall-clock (bounded in ``docs/perf.md``); it never
changes simulated time or results.  Off by default.
"""

from __future__ import annotations

import struct
import weakref
import zlib
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from ..errors import SanitizerError
from ..storage.column import BAT, Candidates, ColumnSlice, Scalar

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..config import SimulationConfig
    from ..plan.graph import Plan

#: Binary layout of one fingerprint fold: (sid, nid, value checksum).
_COMMIT_STRUCT = struct.Struct("<qqI").pack
#: Binary layout of a slice window: (lo, hi).
_WINDOW_STRUCT = struct.Struct("<qq").pack

#: One dispatch-batch entry handed to the sanitizer:
#: ``(sid, nid, operator name, [(input nid, input value), ...])``.
BatchEntry = tuple[int, int, str, list[tuple[int, Any]]]
#: Per-entry, per-input baseline checksums of one dispatch round.
Snapshot = list[list[int]]


def _crc_array(crc: int, array: np.ndarray) -> int:
    # Fast path first: a contiguous numeric array is crc'd straight off
    # its buffer in one C call.  Non-contiguous views and object arrays
    # raise from zlib and take the slow branch.
    try:
        return zlib.crc32(array, crc)
    except (TypeError, ValueError, BufferError):
        if array.dtype.hasobject:
            # Object arrays have no stable buffer; hash their reprs.
            return zlib.crc32(repr(array.tolist()).encode(), crc)
        return zlib.crc32(np.ascontiguousarray(array).tobytes(), crc)


def _crc_bat(value: BAT) -> int:
    return _crc_array(_crc_array(0, value.head), value.tail)


def _crc_slice(value: ColumnSlice) -> int:
    return _crc_array(zlib.crc32(_WINDOW_STRUCT(value.lo, value.hi)), value.values)


def _crc_candidates(value: Candidates) -> int:
    return _crc_array(zlib.crc32(b"u" if value.unique else b"-"), value.oids)


def _crc_scalar(value: Scalar) -> int:
    return zlib.crc32(repr((value.dtype.name, value.value)).encode())


def _crc_ndarray(value: np.ndarray) -> int:
    return _crc_array(0, value)


# Exact-type dispatch: checksum_intermediate runs a few hundred thousand
# times per sanitized workload, so the common path is one dict lookup
# instead of an isinstance chain (subclasses fall through to it below).
_CRC_DISPATCH: dict[type, Any] = {
    BAT: _crc_bat,
    ColumnSlice: _crc_slice,
    Candidates: _crc_candidates,
    Scalar: _crc_scalar,
    np.ndarray: _crc_ndarray,
}


def checksum_intermediate(value: Any) -> int:
    """crc32 over every buffer reachable from one intermediate.

    A :class:`ColumnSlice` checksums its *value view* -- bytes of the
    shared base-column buffer -- so a kernel mutating the base column
    through any other view of it is still caught.
    """
    handler = _CRC_DISPATCH.get(type(value))
    if handler is not None:
        return handler(value)
    if value is None:
        return 0
    for base, fallback in _CRC_DISPATCH.items():
        if isinstance(value, base):
            return fallback(value)
    return zlib.crc32(repr(value).encode())


#: Process-wide at-commit checksum keyed by ``id(value)``.  Memoized
#: intermediates are re-committed (under fresh submissions, often fresh
#: Sanitizer instances) on every cache hit; their bytes were already
#: read at first commit, so re-commits reuse the recorded checksum
#: instead of re-reading the buffer.  A ``weakref.finalize`` evicts
#: each entry when its object dies, so ids can never alias.  (If a
#: kernel mutates a cached value, the stale baseline makes the next
#: verify read flag it -- exactly the right outcome.)
_OBJECT_CRC: dict[int, int] = {}

#: At-commit checksums of slices over *read-only* base columns, keyed
#: by ``(column uid, lo, hi)``.  Column uids are minted from a
#: process-wide counter and never reused, and slices over an immutable
#: buffer always checksum the same, so the key is sound even across
#: fresh slice objects (every run re-partitions a scan into new
#: ColumnSlice views of the same windows).  Mutations through the
#: ``setflags`` escape hatch leave the cached baseline stale, which the
#: next verify read flags -- the right outcome.  Cleared wholesale at
#: the size cap so dead columns cannot accumulate entries forever.
_SLICE_CRC: dict[tuple[int, int, int], int] = {}
_SLICE_CRC_LIMIT = 65536


class Sanitizer:
    """Verifies execution invariants around each dispatch round.

    One instance per :class:`~repro.engine.scheduler.Simulator`; all
    calls happen on the simulator's thread (verification after each
    batch is evaluated, recording at each commit), so the sanitizer
    itself needs no locking.
    """

    def __init__(self) -> None:
        #: Rolling crc32 over committed (node, value) pairs.
        self._fingerprint = 0
        #: Checksum of every committed intermediate, keyed by
        #: ``(sid, nid)``.  Doubles as the snapshot baseline: a value's
        #: at-commit checksum is exactly its expected pre-dispatch
        #: checksum, so snapshots are dict lookups, not buffer reads --
        #: and a mutation in *any* round between commit and use is
        #: caught, not just one in the round that evaluated the mutator.
        self._commit_crc: dict[tuple[int, int], int] = {}
        self.batches_checked = 0
        self.buffers_checked = 0
        self.commits_recorded = 0

    # -- invariant 1: input immutability -------------------------------
    def snapshot_inputs(self, entries: Sequence[BatchEntry]) -> Snapshot:
        """Baseline checksums for every input of every batch entry.

        Inputs are committed intermediates, so their baselines were
        already computed by :meth:`record_commit`; only values that
        never passed through a commit (injected by tests) are read here.
        """
        snapshot: Snapshot = []
        for sid, _nid, _name, inputs in entries:
            sums = []
            for in_nid, value in inputs:
                crc = self._commit_crc.get((sid, in_nid))
                if crc is None:
                    crc = checksum_intermediate(value)
                    self.buffers_checked += 1
                sums.append(crc)
            snapshot.append(sums)
        self.batches_checked += 1
        return snapshot

    def verify_inputs(
        self, snapshot: Snapshot, entries: Sequence[BatchEntry]
    ) -> None:
        """Re-checksum after evaluation; raise naming any mutation.

        One intermediate commonly feeds many entries of the same batch
        (a scan slice fanned out to every partition's select), so each
        distinct input is re-read once per round, not once per consumer.
        """
        fresh: dict[tuple[int, int], int] = {}
        for before, (sid, nid, name, inputs) in zip(snapshot, entries):
            for pos, (old, (in_nid, value)) in enumerate(zip(before, inputs)):
                key = (sid, in_nid)
                new = fresh.get(key)
                if new is None:
                    new = fresh[key] = checksum_intermediate(value)
                    self.buffers_checked += 1
                if new != old:
                    raise SanitizerError(
                        f"kernel mutated a shared input buffer: "
                        f"{name}(nid={nid}) input #{pos} checksum "
                        f"{old:08x} -> {new:08x}; operators must treat "
                        "inputs as immutable (see docs/static_analysis.md)"
                    )

    def verify_round(self, entries: Sequence[BatchEntry]) -> None:
        """:meth:`snapshot_inputs` + :meth:`verify_inputs` in one pass.

        The hot path the scheduler calls once per dispatch round: every
        input's baseline is its at-commit checksum, so no pre-evaluation
        snapshot is needed -- one post-evaluation read per distinct
        input, compared straight against :attr:`_commit_crc`.  Inputs
        that never passed through a commit (injected by tests) are
        adopted as their own baseline.
        """
        fresh: dict[tuple[int, int], int] = {}
        commit_crc = self._commit_crc
        checksum = checksum_intermediate
        checked = 0
        for sid, nid, name, inputs in entries:
            for pos, (in_nid, value) in enumerate(inputs):
                key = (sid, in_nid)
                new = fresh.get(key)
                if new is None:
                    new = fresh[key] = checksum(value)
                    checked += 1
                old = commit_crc.get(key)
                if old is None:
                    commit_crc[key] = new
                elif new != old:
                    raise SanitizerError(
                        f"kernel mutated a shared input buffer: "
                        f"{name}(nid={nid}) input #{pos} checksum "
                        f"{old:08x} -> {new:08x}; operators must treat "
                        "inputs as immutable (see docs/static_analysis.md)"
                    )
        self.buffers_checked += checked
        self.batches_checked += 1

    def verify_dispatch(self, batch: Sequence[Any], n_results: int) -> None:
        """Verify one scheduler dispatch round in a single pass.

        The scheduler's hot-path entry point: ``batch`` is its dispatch
        entry list (duck-typed ``.sub.sid``, ``.sub.values``, ``.node``,
        ``.job_index``), walked directly so no per-round
        :data:`BatchEntry` tuples are materialized.  Semantically
        :meth:`verify_round` + :meth:`check_commit_order`.
        """
        fresh: dict[tuple[int, int], int] = {}
        commit_crc = self._commit_crc
        checksum = checksum_intermediate
        checked = 0
        job_indexes = []
        for entry in batch:
            job_indexes.append(entry.job_index)
            sub = entry.sub
            sid = sub.sid
            values = sub.values
            node = entry.node
            for pos, child in enumerate(node.inputs):
                key = (sid, child.nid)
                new = fresh.get(key)
                if new is None:
                    new = fresh[key] = checksum(values[child.nid])
                    checked += 1
                old = commit_crc.get(key)
                if old is None:
                    commit_crc[key] = new
                elif new != old:
                    raise SanitizerError(
                        f"kernel mutated a shared input buffer: "
                        f"{type(node.op).__name__}(nid={node.nid}) input "
                        f"#{pos} checksum {old:08x} -> {new:08x}; "
                        "operators must treat inputs as immutable (see "
                        "docs/static_analysis.md)"
                    )
        self.buffers_checked += checked
        self.batches_checked += 1
        self.check_commit_order(job_indexes, n_results)

    # -- invariant 2: dispatch-order commit barrier --------------------
    def check_commit_order(
        self, job_indexes: Sequence[int], n_results: int
    ) -> None:
        """First occurrences of job indexes must be ``0, 1, 2, ...``.

        ``job_indexes`` are the per-entry indexes in batch (collection)
        order; ``-1`` marks memo-peeked entries, repeats mark same-batch
        fingerprint sharing.
        """
        expected = 0
        seen: set[int] = set()
        for index in job_indexes:
            if index < 0:
                continue
            if index in seen:
                continue
            if index != expected:
                raise SanitizerError(
                    f"commit barrier violated: job index {index} committed "
                    f"where {expected} was expected; results must be "
                    "consumed strictly in dispatch order"
                )
            seen.add(index)
            expected += 1
        if expected != n_results:
            raise SanitizerError(
                f"commit barrier violated: batch produced {n_results} "
                f"results but only {expected} were claimed in dispatch order"
            )

    # -- invariant 3: rolling trace fingerprint ------------------------
    def record_commit(self, sid: int, nid: int, value: Any) -> None:
        """Fold one committed value into the rolling fingerprint (and
        remember its checksum as the snapshot baseline)."""
        object_crc = _OBJECT_CRC
        oid = id(value)
        crc = object_crc.get(oid)
        if crc is None:
            if (
                type(value) is ColumnSlice
                and not value.column.values.flags.writeable
            ):
                key = (value.column.uid, value.lo, value.hi)
                crc = _SLICE_CRC.get(key)
                if crc is None:
                    crc = checksum_intermediate(value)
                    if len(_SLICE_CRC) >= _SLICE_CRC_LIMIT:
                        _SLICE_CRC.clear()
                    _SLICE_CRC[key] = crc
            else:
                crc = checksum_intermediate(value)
                try:
                    weakref.finalize(value, object_crc.pop, oid, None)
                except TypeError:
                    pass  # not weak-referenceable (None, ints): skip
                else:
                    object_crc[oid] = crc
        self._commit_crc[(sid, nid)] = crc
        self._fingerprint = zlib.crc32(
            _COMMIT_STRUCT(sid, nid, crc), self._fingerprint
        )
        self.commits_recorded += 1

    @property
    def fingerprint(self) -> str:
        """Hex fingerprint of every commit so far (order-sensitive)."""
        return f"{self._fingerprint:08x}"

    def stats(self) -> dict[str, int | str]:
        return {
            "batches_checked": self.batches_checked,
            "buffers_checked": self.buffers_checked,
            "commits_recorded": self.commits_recorded,
            "fingerprint": self.fingerprint,
        }


def verify_dual_run(
    plan: "Plan", config: "SimulationConfig | None" = None
) -> str:
    """Execute ``plan`` twice on fresh simulators and cross-check.

    Both runs execute under the sanitizer; their rolling commit
    fingerprints must match bit-for-bit (the engine's central
    determinism guarantee).  Returns the common fingerprint.
    """
    from ..config import SimulationConfig
    from ..engine.scheduler import Simulator

    if config is None:
        config = SimulationConfig()
    fingerprints: list[str] = []
    for __ in range(2):
        sanitizer = Sanitizer()
        simulator = Simulator(config, sanitizer=sanitizer)
        sid = simulator.submit(plan)
        simulator.run()
        simulator.result(sid)
        fingerprints.append(sanitizer.fingerprint)
    if fingerprints[0] != fingerprints[1]:
        raise SanitizerError(
            f"dual-run fingerprint mismatch: {fingerprints[0]} then "
            f"{fingerprints[1]}; results are not repeatable"
        )
    return fingerprints[0]
