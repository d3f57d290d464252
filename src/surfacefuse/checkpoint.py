"""Binary checkpoint format shared by trainer and analysis tools.

Layout (little-endian throughout):
    magic   4 bytes  "SFCK"
    version u32      currently 1
    count   u32      number of tensor records
then per record:
    name_len u32, name UTF-8 bytes,
    dtype    u8   (0 = float64, 1 = float32),
    rank     u32, dims u32 * rank,
    payload  raw row-major floats.

Records are written sorted by name so identical tensors always produce
byte-identical files. A save writes a temporary file next to the target and
renames it over the target, so an interrupted save leaves the previous file
intact.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .errors import DataError

MAGIC = b"SFCK"
VERSION = 1
_DTYPE_TAGS = {np.dtype(np.float64): 0, np.dtype(np.float32): 1}
_TAG_DTYPES = {0: np.dtype("<f8"), 1: np.dtype("<f4")}


def save_checkpoint(path, named_tensors: dict) -> None:
    """Write name -> array (or Tensor) records; bit-exact round-trip."""
    items = []
    for name in sorted(named_tensors):
        value = named_tensors[name]
        # note: ascontiguousarray would promote rank-0 arrays to rank 1
        arr = np.asarray(getattr(value, "data", value), order="C")
        if arr.dtype not in _DTYPE_TAGS:
            raise DataError(f"checkpoint tensor {name!r} has unsupported dtype {arr.dtype}")
        items.append((name, arr))
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<II", VERSION, len(items)))
            for name, arr in items:
                encoded = name.encode("utf-8")
                fh.write(struct.pack("<I", len(encoded)))
                fh.write(encoded)
                fh.write(struct.pack("<BI", _DTYPE_TAGS[arr.dtype], arr.ndim))
                for dim in arr.shape:
                    fh.write(struct.pack("<I", dim))
                fh.write(arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # the write failed before the rename
            os.remove(tmp)


def load_checkpoint(path) -> dict:
    """Read records back as name -> numpy array."""
    with open(path, "rb") as fh:
        blob = fh.read()
    offset = 0

    def take(n: int, what: str) -> int:
        """Offset of the next n bytes, which must all be present."""
        nonlocal offset
        if len(blob) - offset < n:
            raise DataError(f"{path}: truncated checkpoint ({what} needs {n} bytes "
                            f"at offset {offset}, file has {len(blob)})")
        start = offset
        offset += n
        return start

    start = take(4, "magic")
    if blob[start:offset] != MAGIC:
        raise DataError(f"{path}: not a checkpoint file (bad magic)")
    version, count = struct.unpack_from("<II", blob, take(8, "header"))
    if version != VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    out = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<I", blob, take(4, "name length"))
        start = take(name_len, "name")
        name = blob[start:offset].decode("utf-8")
        tag, rank = struct.unpack_from("<BI", blob, take(5, f"{name!r} header"))
        dims = struct.unpack_from(f"<{rank}I", blob, take(4 * rank, f"{name!r} shape"))
        dtype = _TAG_DTYPES.get(tag)
        if dtype is None:
            raise DataError(f"{path}: unknown dtype tag {tag} for {name!r}")
        n = math.prod(dims)
        start = take(n * dtype.itemsize, f"{name!r} payload")
        arr = np.frombuffer(blob, dtype=dtype, count=n, offset=start).reshape(dims)
        out[name] = arr.astype(dtype.newbyteorder("="))
    if offset != len(blob):
        raise DataError(f"{path}: trailing bytes after last record")
    return out
