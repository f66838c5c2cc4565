"""Parameter archives, PGM images, and trace CSVs.

The archive format is self-describing and dependency-free: the magic line
"MMRSAFI1", a UTF-8 header of "name ndim d1 ... dk" lines terminated by
"END", then the concatenated little-endian float64 payloads in header order.
"""

import math

import numpy as np

ARCHIVE_MAGIC = b"MMRSAFI1\n"


class ArchiveError(ValueError):
    pass


class ParamArchive:
    """Ordered collection of named float64 arrays."""

    def __init__(self):
        self._arrays = {}

    def add(self, name, array):
        if name in self._arrays:
            raise ArchiveError(f"duplicate array name {name!r}")
        if not name.isascii() or any(ch.isspace() for ch in name):
            raise ArchiveError(f"invalid array name {name!r}")
        self._arrays[name] = np.ascontiguousarray(array, dtype=np.float64)

    def get(self, name):
        if name not in self._arrays:
            raise ArchiveError(f"missing array {name!r}")
        return self._arrays[name]

    def scalar(self, name):
        arr = self.get(name)
        if arr.size != 1:
            raise ArchiveError(f"array {name!r} must hold one value, "
                               f"has {arr.size}")
        return float(arr.reshape(-1)[0])

    def names(self):
        return list(self._arrays)

    def __eq__(self, other):
        if not isinstance(other, ParamArchive):
            return NotImplemented
        return (self.names() == other.names()
                and all(self._arrays[n].shape == other._arrays[n].shape
                        and np.array_equal(self._arrays[n], other._arrays[n])
                        for n in self._arrays))


def archive_write(path, archive):
    header = []
    for name in archive.names():
        arr = archive.get(name)
        dims = " ".join(str(d) for d in arr.shape)
        line = f"{name} {arr.ndim}" + (f" {dims}" if arr.ndim else "")
        header.append(line)
    with open(path, "wb") as fh:
        fh.write(ARCHIVE_MAGIC)
        for line in header:
            fh.write(line.encode("utf-8") + b"\n")
        fh.write(b"END\n")
        for name in archive.names():
            fh.write(archive.get(name).astype("<f8").tobytes())


def archive_read(path):
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(ARCHIVE_MAGIC):
        raise ArchiveError(f"bad magic in {path!r}")
    offset = len(ARCHIVE_MAGIC)
    entries = []
    while True:
        end = data.find(b"\n", offset)
        if end < 0:
            raise ArchiveError("truncated header")
        try:
            line = data[offset:end].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ArchiveError("header line is not valid UTF-8") from exc
        offset = end + 1
        if line == "END":
            break
        parts = line.split(" ")
        if len(parts) < 2:
            raise ArchiveError(f"malformed header line {line!r}")
        name = parts[0]
        try:
            ndim = int(parts[1])
            shape = tuple(int(p) for p in parts[2:])
        except ValueError as exc:
            raise ArchiveError(f"malformed header line {line!r}") from exc
        if len(shape) != ndim or any(d < 0 for d in shape):
            raise ArchiveError(f"malformed header line {line!r}")
        entries.append((name, shape))
    archive = ParamArchive()
    for name, shape in entries:
        # Python ints: a shape whose element count overflows int64 must read
        # as a truncated payload, not wrap around.
        nbytes = math.prod(shape) * 8
        if offset + nbytes > len(data):
            raise ArchiveError(f"truncated payload for {name!r}")
        arr = np.frombuffer(data[offset:offset + nbytes], dtype="<f8")
        offset += nbytes
        if not np.all(np.isfinite(arr)):
            raise ArchiveError(f"non-finite values in {name!r}")
        archive.add(name, arr.reshape(shape))
    if offset != len(data):
        raise ArchiveError("trailing bytes after payload")
    return archive


class PgmError(ValueError):
    pass


def pgm_read(path):
    """Binary PGM (P5) with maxval 255 or 65535, scaled to [0, 1]."""
    with open(path, "rb") as fh:
        data = fh.read()
    fields, offset = [], 0
    while len(fields) < 4:
        while offset < len(data) and data[offset:offset + 1].isspace():
            offset += 1
        if data[offset:offset + 1] == b"#":
            nl = data.find(b"\n", offset)
            offset = len(data) if nl < 0 else nl + 1
            continue
        start = offset
        while offset < len(data) and not data[offset:offset + 1].isspace():
            offset += 1
        if start == offset:
            raise PgmError(f"malformed PGM header in {path!r}")
        fields.append(data[start:offset])
    offset += 1   # single whitespace after maxval
    if fields[0] != b"P5":
        raise PgmError(f"not a binary PGM: {path!r}")
    try:
        width, height, maxval = (int(f) for f in fields[1:])
    except ValueError as exc:
        raise PgmError(f"malformed PGM header in {path!r}") from exc
    if width < 1 or height < 1:
        raise PgmError(f"PGM size must be positive, got {width}x{height} "
                       f"in {path!r}")
    if maxval == 255:
        dtype, itemsize = np.uint8, 1
    elif maxval == 65535:
        dtype, itemsize = ">u2", 2
    else:
        raise PgmError(f"unsupported maxval {maxval}")
    need = width * height * itemsize
    if len(data) - offset < need:
        raise PgmError(f"truncated pixel data in {path!r}")
    pixels = np.frombuffer(data[offset:offset + need], dtype=dtype)
    return pixels.reshape(height, width).astype(np.float64) / maxval


def pgm_write(path, image, maxval=255):
    if maxval not in (255, 65535):
        raise PgmError(f"unsupported maxval {maxval}")
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise PgmError("image must be 2-D")
    # Round half up after clipping to the representable range.
    quant = np.floor(np.clip(image, 0.0, 1.0) * maxval + 0.5)
    dtype = np.uint8 if maxval == 255 else ">u2"
    header = f"P5\n{image.shape[1]} {image.shape[0]}\n{maxval}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(quant.astype(dtype).tobytes())


def write_trace_csv(path, trace):
    """Trace columns: k, e_k, f_k (blank when absent), psnr (blank likewise)."""
    lines = ["k,e_k,f_k,psnr"]
    for i, e in enumerate(trace.residuals):
        f_val = repr(trace.objectives[i]) if i < len(trace.objectives) else ""
        p_val = repr(trace.psnrs[i]) if i < len(trace.psnrs) else ""
        lines.append(f"{i + 1},{repr(e)},{f_val},{p_val}")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
