"""Store-level chaos: deterministic fault injection into shared-store I/O.

:mod:`repro.resilient.chaos` injects faults into *work units*;
this module injects faults into the *store itself* -- the torn writes,
stale reads, ghost link successes, and transient errnos that network
filesystems produce under load -- so the hardened commit path can be
characterized the same way the paper characterizes the DUT:
deterministically, from a declarative plan.

:class:`FaultyStore` wraps any :class:`~.store.DirectoryStore` root by
overriding its raw I/O primitives.  Faults are addressed by *operation
index*: the N-th commit-path write / link / read since construction.
Only commit-path traffic is counted -- lease I/O is advisory,
self-healing, and (in the live service) wall-clock-timed, so counting
it would make fault placement nondeterministic across runs.

========  ====================================================================
fault     effect (at the listed 0-based commit-path op index)
========  ====================================================================
``torn_write``       the tmp-file write persists only the first half of
                     the record bytes (power-cut mid-write); the
                     verify-after-write readback quarantines it
``corrupt_commit``   the link succeeds, then the final file's checksum
                     header is clobbered (bit rot after commit)
``duplicate_link``   ghost success: ``link`` reports victory but the
                     surviving record names a different writer (the
                     non-POSIX-atomic double-link race); indexed by
                     link-op count
``stale_read``       a read raises ``FileNotFoundError`` once (delayed
                     visibility of a just-linked name on a stale NFS
                     cache); indexed by read-op count
``transient_errno``  the op raises ``OSError(EIO)`` once; indexed by
                     the *combined* commit-path op count, so it can
                     land on any primitive; retried by the envelope
========  ====================================================================

Because indices are consumed in a fixed order by a deterministic
drain, the same spec against the same campaign produces the same
retries, the same quarantines, and -- once the faults are survived --
byte-identical campaign results.
"""

from __future__ import annotations

import errno
import json
import os
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..errors import ChaosError
from .store import DirectoryStore

#: The closed set of injectable store faults.
STORE_FAULT_KINDS = (
    "torn_write",
    "corrupt_commit",
    "duplicate_link",
    "stale_read",
    "transient_errno",
)


def _as_indices(kind: str, value) -> Tuple[int, ...]:
    try:
        indices = tuple(value)
    except TypeError:
        raise ChaosError(
            f"store chaos {kind!r} must be a list of op indices, "
            f"got {value!r}"
        ) from None
    for idx in indices:
        if isinstance(idx, bool) or not isinstance(idx, int) or idx < 0:
            raise ChaosError(
                f"store chaos {kind!r} indices must be nonnegative "
                f"integers, got {idx!r}"
            )
    return indices


@dataclass(frozen=True)
class StoreChaosSpec:
    """A declarative, deterministic fault plan for one store's I/O.

    Each field lists the 0-based commit-path operation indices at which
    that fault fires; see the module table for which counter each kind
    indexes.  An empty spec is a no-op wrapper.
    """

    torn_write: Tuple[int, ...] = ()
    corrupt_commit: Tuple[int, ...] = ()
    duplicate_link: Tuple[int, ...] = ()
    stale_read: Tuple[int, ...] = ()
    transient_errno: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        for kind in STORE_FAULT_KINDS:
            object.__setattr__(
                self, kind, _as_indices(kind, getattr(self, kind))
            )

    # -- (de)serialization (CLI --store-chaos, CI) --------------------------------

    @classmethod
    def from_dict(cls, data: dict) -> "StoreChaosSpec":
        """Build a spec from a JSON-shaped dict."""
        if not isinstance(data, dict):
            raise ChaosError(
                f"store chaos spec must be an object, got {data!r}"
            )
        unknown = set(data) - set(STORE_FAULT_KINDS)
        if unknown:
            raise ChaosError(
                f"unknown store chaos spec fields: {sorted(unknown)}"
            )
        return cls(**{k: tuple(v) for k, v in data.items()})

    @classmethod
    def from_json(cls, text_or_path: str) -> "StoreChaosSpec":
        """Parse a spec from inline JSON or a path to a JSON file."""
        text = text_or_path
        if os.path.exists(text_or_path):
            with open(text_or_path) as handle:
                text = handle.read()
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ChaosError(f"invalid store chaos spec JSON: {exc}") from exc
        return cls.from_dict(data)


class FaultyStore(DirectoryStore):
    """A :class:`DirectoryStore` with deterministic I/O fault injection.

    A subclass rather than a wrapper so every caller-facing method
    (``try_commit``, ``read_commit``, leases, ``health``) runs the real
    hardened logic; only the four raw primitives are intercepted.
    Construct it exactly like a :class:`DirectoryStore`, plus a
    :class:`StoreChaosSpec`.  ``injected`` tallies what actually fired,
    so tests can assert the schedule was consumed.
    """

    def __init__(self, root: str, spec: StoreChaosSpec, **kwargs) -> None:
        super().__init__(root, **kwargs)
        self.spec = spec
        self._op_counts: Dict[str, int] = {"write": 0, "link": 0, "read": 0, "io": 0}
        self.injected: Dict[str, int] = {k: 0 for k in STORE_FAULT_KINDS}

    # -- bookkeeping -------------------------------------------------------------

    def _commit_traffic(self, path: str) -> bool:
        return os.path.dirname(os.path.abspath(path)) == os.path.abspath(
            self._commits
        )

    def _tick(self, primitive: str, path: str) -> Optional[int]:
        """Advance counters for a commit-path op; returns its primitive
        index (None for non-commit traffic).  Raises the injected
        transient errno when the combined index is scheduled."""
        if not self._commit_traffic(path):
            return None
        idx = self._op_counts[primitive]
        self._op_counts[primitive] += 1
        io_idx = self._op_counts["io"]
        self._op_counts["io"] += 1
        if io_idx in self.spec.transient_errno:
            self.injected["transient_errno"] += 1
            raise OSError(
                errno.EIO,
                f"chaos: injected transient EIO (io op {io_idx})",
                path,
            )
        return idx

    # -- faulted primitives ------------------------------------------------------

    def _write_bytes(self, path: str, data: bytes) -> None:
        idx = self._tick("write", path)
        if idx is not None and idx in self.spec.torn_write:
            self.injected["torn_write"] += 1
            data = data[: len(data) // 2]  # power cut mid-write
        super()._write_bytes(path, data)

    def _read_bytes(self, path: str) -> bytes:
        idx = self._tick("read", path)
        if idx is not None and idx in self.spec.stale_read:
            self.injected["stale_read"] += 1
            raise FileNotFoundError(
                errno.ENOENT,
                f"chaos: injected stale read (read op {idx})",
                path,
            )
        return super()._read_bytes(path)

    def _link(self, src: str, dst: str) -> None:
        idx = self._tick("link", dst)
        if idx is not None and idx in self.spec.duplicate_link:
            # Ghost success: the link call "wins", but the bytes that
            # survive on the shared medium belong to a different writer
            # -- a *valid* record, so readers adopt it; only the
            # verify-after-write readback tells the caller it lost.
            if os.path.exists(dst):
                raise FileExistsError(
                    errno.EEXIST, "chaos: commit already present", dst
                )
            try:
                record = json.loads(
                    super()._read_bytes(src).decode("utf-8")
                )
            except ValueError:
                # A torn write got to this record first: there is no
                # valid ghost to fabricate, so the torn bytes are what
                # survives on the medium -- plain link, and the
                # verify-after-write readback quarantines them.
                super()._link(src, dst)
                return
            self.injected["duplicate_link"] += 1
            record["writer"] = f"ghost:{idx}"
            super()._write_bytes(dst, json.dumps(record).encode("utf-8"))
            return
        super()._link(src, dst)
        if idx is not None and idx in self.spec.corrupt_commit:
            # Bit rot after a successful commit: keep the record's
            # shape but clobber the checksum header, so the next read
            # quarantines it with a checksum-mismatch reason.
            try:
                record = json.loads(
                    super()._read_bytes(dst).decode("utf-8")
                )
            except ValueError:
                # Already unreadable (a torn write landed here); extra
                # rot cannot make it worse, and readers quarantine it
                # on decode rather than on checksum.
                return
            self.injected["corrupt_commit"] += 1
            record["sha256"] = "0" * 64
            super()._write_bytes(dst, json.dumps(record).encode("utf-8"))

    def _replace(self, src: str, dst: str) -> None:
        # Lease traffic only (commits never use replace); pass through
        # unfaulted -- see the module docstring for why.
        super()._replace(src, dst)
