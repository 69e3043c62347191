"""The one on-disk container for datasets and checkpoints.

Layout: the magic ``RCLRCONT``, a 4-byte little-endian header length, a
UTF-8 JSON header (sorted keys), the named arrays back to back, and a
sha256 of everything before it. The header holds the format ``version``,
the ``kind`` (``pretrain``, ``downstream`` or ``checkpoint``),
the caller's ``fields``, and per array its name, little-endian dtype string
and shape. Each array is stored C-ordered in its own dtype.

Readers check the length, magic, checksum, header shape, version, kind and
array table in that order; files in the earlier per-kind framings are
rejected, not converted.

Every file riskclr writes, containers and CSV or JSON alike, goes through
``write_atomic``: a temp file in the target directory, flushed and fsynced,
then renamed over the target. A temp file that a killed writer left behind
is removed by the next write of the same target.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os

import numpy as np

MAGIC = b"RCLRCONT"
VERSION = 2
KINDS = ("pretrain", "downstream", "checkpoint")
_RETIRED_MAGICS = (b"RCLRDATA", b"RCLRCKPT")
_LEN_BYTES = 4
_DIGEST_BYTES = 32


class DataFormatError(IOError):
    """Corrupt, truncated, malformed, wrong-version or wrong-kind container."""


def pack(kind: str, fields: dict, arrays: dict[str, np.ndarray]) -> bytes:
    """Serialize ``fields`` (JSON-able) and named arrays into one container."""
    if kind not in KINDS:
        raise ValueError(f"unknown container kind {kind!r}")
    stored = []
    for name, arr in arrays.items():
        arr = np.asarray(arr)
        stored.append((name, np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<"))))
    header = json.dumps({
        "version": VERSION,
        "kind": kind,
        "fields": fields,
        "arrays": [{"name": n, "dtype": a.dtype.str, "shape": list(a.shape)} for n, a in stored],
    }, sort_keys=True).encode("utf-8")
    parts = [MAGIC, len(header).to_bytes(_LEN_BYTES, "little"), header, *(a for _, a in stored)]
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return b"".join(parts + [digest.digest()])


def unpack(blob: bytes, *kinds: str) -> tuple[str, dict, dict[str, np.ndarray]]:
    """(kind, fields, arrays) of a container whose kind is one of ``kinds``.

    The arrays are read-only views into ``blob``; copy what you keep.
    """
    start = len(MAGIC) + _LEN_BYTES
    if len(blob) < start + _DIGEST_BYTES:
        raise DataFormatError(f"container truncated: {len(blob)} bytes")
    magic = bytes(blob[: len(MAGIC)])
    if magic in _RETIRED_MAGICS:
        raise DataFormatError(f"file uses the retired {magic.decode()} framing; "
                              "regenerate it with this version")
    if magic != MAGIC:
        raise DataFormatError("bad magic; not a riskclr container")
    body = memoryview(blob)[:-_DIGEST_BYTES]
    if hashlib.sha256(body).digest() != bytes(blob[-_DIGEST_BYTES:]):
        raise DataFormatError("checksum mismatch; container corrupted")
    end = start + int.from_bytes(body[len(MAGIC) : start], "little")
    try:
        header = json.loads(bytes(body[start:end]).decode("utf-8"))
    except ValueError as exc:
        raise DataFormatError(f"unreadable container header: {exc}") from None
    if not isinstance(header, dict):
        raise DataFormatError("container header is not a JSON object")
    if header.get("version") != VERSION:
        raise DataFormatError(f"unsupported container version {header.get('version')!r}")
    if header.get("kind") not in kinds:
        raise DataFormatError(f"expected a {' or '.join(kinds)} container, "
                              f"found a {header.get('kind')!r} container")
    fields, table = header.get("fields"), header.get("arrays")
    if not isinstance(fields, dict) or not isinstance(table, list):
        raise DataFormatError("container header needs a 'fields' object and an 'arrays' list")
    arrays: dict[str, np.ndarray] = {}
    for entry in table:
        name, dtype, shape = _table_entry(entry)
        count = math.prod(shape)
        if end + count * dtype.itemsize > len(body):
            raise DataFormatError(f"array {name!r} runs past the payload")
        arrays[name] = np.frombuffer(body, dtype=dtype, count=count, offset=end).reshape(shape)
        end += count * dtype.itemsize
    if end != len(body):
        raise DataFormatError("array table does not match the payload size")
    return header["kind"], fields, arrays


def _table_entry(entry) -> tuple[str, np.dtype, tuple[int, ...]]:
    """(name, dtype, shape) of one array-table entry: a string name, the
    string of a numeric dtype and a list of non-negative integers."""
    try:
        name, dtype, shape = entry["name"], np.dtype(entry["dtype"]), entry["shape"]
    except (KeyError, TypeError) as exc:
        raise DataFormatError(f"malformed array table entry {entry!r}: {exc}") from None
    if not (isinstance(name, str) and isinstance(entry["dtype"], str) and dtype.kind in "biufc"
            and isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)):
        raise DataFormatError(f"malformed array table entry {entry!r}")
    return name, dtype, tuple(shape)


def write_atomic(path: str | os.PathLike, blob: bytes) -> None:
    """Replace ``path`` with ``blob`` so that a crash leaves the old file whole.

    The temp file is ``<path>.<pid>.tmp``. One left by an earlier writer of
    ``path`` whose process no longer exists, killed before its rename, is
    removed first.
    """
    path = os.fspath(path)
    _remove_stale_temps(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _remove_stale_temps(path: str) -> None:
    folder, name = os.path.split(path)
    for entry in os.listdir(folder or "."):
        pid = entry[len(name) + 1 : -len(".tmp")]
        if (entry.startswith(f"{name}.") and entry.endswith(".tmp") and pid.isdigit()
                and not _process_exists(int(pid))):
            with contextlib.suppress(FileNotFoundError):  # another writer removed it
                os.unlink(os.path.join(folder, entry))


def _process_exists(pid: int) -> bool:
    if os.name != "posix":  # os.kill(pid, 0) is no probe there; keep the file
        return True
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # another user's process
        pass
    return True


def write_csv(path: str | os.PathLike, fieldnames, rows) -> None:
    """Render dict ``rows`` as CSV under a header of ``fieldnames``; write atomically."""
    text = io.StringIO()
    writer = csv.DictWriter(text, fieldnames=list(fieldnames))
    writer.writeheader()
    writer.writerows(rows)
    write_atomic(path, text.getvalue().encode("utf-8"))
