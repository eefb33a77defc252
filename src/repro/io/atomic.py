"""Crash-safe file primitives: atomic write-rename and salvage reads.

A beam campaign's artifacts are written while the harness itself is the
thing under test -- workers die, runs get SIGTERMed, disks fill.  Every
whole-file write in :mod:`repro` therefore goes to disk through
:func:`atomic_write_text`: the bytes land in a temporary file in the
*same directory*, are flushed and fsynced, and only then renamed over
the destination with :func:`os.replace`.  A reader can observe the old
file or the new file, never a torn half-write.  The temporary file is
created like a plain :func:`open` would create it, so the umask sets
the artifact's mode.

The only writers that do not come here each have a reason: the
service's append-only event journal (:mod:`repro.resilient.journal`)
appends rather than replaces, the scheduler store's raw primitives
(:mod:`repro.scheduler.store`) are what its chaos wrapper intercepts,
and a fencing epoch (:mod:`repro.scheduler.fencing`) must fail if its
file exists, so it is claimed with an exclusive :func:`os.link`.

:func:`read_json_or_default` is the matching salvage reader: a missing
file yields the caller's default, and a corrupt one raises a clear
:class:`~repro.errors.ReproIOError` (or, with ``salvage=True``, also
yields the default) instead of a bare ``JSONDecodeError`` deep inside
the analysis stack.
"""

from __future__ import annotations

import json
import os
from typing import Any, Optional

from ..errors import ReproIOError


def fsync_directory(path: str) -> None:
    """Fsync a directory so a just-renamed entry survives power loss.

    Best-effort: platforms without directory fsync (or exotic
    filesystems) are silently tolerated -- the rename itself is still
    atomic there.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _create_temp(path: str) -> "tuple[int, str]":
    """Create a fresh ``<path>.<random>.tmp`` next to *path*.

    Mode 0o666 before the umask, exactly like :func:`open` (unlike
    :func:`tempfile.mkstemp`, which always creates 0600).  The
    ``.tmp`` suffix is what the job scanner and service recovery skip.
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL
    while True:
        tmp_path = f"{path}.{os.urandom(6).hex()}.tmp"
        try:
            return os.open(tmp_path, flags, 0o666), tmp_path
        except FileExistsError:
            continue  # a random-name collision: draw another


def atomic_write_text(path: str, text: str, fsync: bool = True) -> str:
    """Write *text* to *path* via temp-file + :func:`os.replace`.

    A crash at any instant leaves either the previous file content or
    the new one -- never a truncated mix.  Returns *path*.

    Parameters
    ----------
    path:
        Destination file.
    text:
        Full new content.
    fsync:
        When True (default) the temp file is fsynced before the rename
        and the directory after it, so the write survives power loss,
        not just process death.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp_path = _create_temp(path)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
            handle.flush()
            if fsync:
                os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        # Never leave tmp litter next to the artifacts.
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    if fsync:
        fsync_directory(directory)
    return path


def atomic_write_json(path: str, payload: Any, fsync: bool = True) -> str:
    """Serialize *payload* as JSON and write it atomically; returns *path*.

    Uses :func:`json.dumps` defaults so the bytes are identical to a
    plain ``json.dump`` of the same object -- byte-level determinism
    checks compare these files directly.
    """
    return atomic_write_text(path, json.dumps(payload), fsync=fsync)


def read_json_or_default(
    path: str,
    default: Any = None,
    *,
    salvage: bool = False,
) -> Optional[Any]:
    """Read a JSON file, tolerating absence (and optionally corruption).

    Parameters
    ----------
    path:
        File to read.
    default:
        Returned when the file does not exist (or is corrupt and
        ``salvage`` is set).
    salvage:
        When True, a torn/corrupt file also yields *default* instead of
        raising -- the caller has decided the artifact is replaceable.

    Raises
    ------
    ReproIOError
        When the file exists but holds corrupt JSON (and ``salvage`` is
        False), or cannot be read at all.
    """
    try:
        with open(path) as handle:
            text = handle.read()
    except FileNotFoundError:
        return default
    except OSError as exc:
        raise ReproIOError(f"cannot read {path!r}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        if salvage:
            return default
        raise ReproIOError(
            f"corrupt JSON in {path!r} (torn write?): {exc}; "
            f"delete the file or pass salvage=True to discard it"
        ) from exc
