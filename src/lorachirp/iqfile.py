"""IQ capture file I/O: interleaved float32 binary or CSV, with a JSON sidecar.

The binary layout is the de facto SDR convention: little-endian float32
pairs I0, Q0, I1, Q1, ...  The sidecar records the sample rate, center
frequency and sample count so captures stay self-describing.  Every CSV
file is written by _write_csv; CSV captures and binned spectra are read by _read_csv.
"""
from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import stat
import threading
import weakref
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _numtext, params
from ._numtext import _csv_text
from .params import (_BLOCK_SAMPLES, IqBuffer, _all_finite, _finite, _json_object, _map_chunks,
                     _positive, _quote, _real, _spans)

FORMAT_F32 = "interleaved-f32-le"
FORMAT_CSV = "csv"


@dataclass(frozen=True)
class IqFileHeader:
    format: str
    fs: float
    center_freq: float = 0.0
    description: str = ""

    def __post_init__(self):
        if self.format not in (FORMAT_F32, FORMAT_CSV):
            raise ValueError(f"unknown IQ format {self.format!r}")
        object.__setattr__(self, "fs", _positive(self.fs, "fs"))
        object.__setattr__(self, "center_freq", _real(self.center_freq, "center_freq"))


# values (rows x columns) of a CSV output formatted and written in one go:
# the formatter's temporaries, about 190 bytes a value, stay in the CPU's
# cache and far below the columns they are formatted from
_CSV_VALUES = 1 << 12
# rows _mirrored compares at a time: numpy temporaries of 32 KB a column
_CSV_CHECK_ROWS = 1 << 12
# values (rows x columns) per forked child writing a CSV output: a smaller
# file is formatted inline, where a fork would cost more than it saves
_CSV_FORK_VALUES = 1 << 16


@contextlib.contextmanager
def _replacing(path):
    """The descriptor of a new file beside path (beside the target of a
    symlink there), open for writing, with the permission bits of the file
    at path if there is one, as open() keeps them.  Once the block ends
    the descriptor is closed and the new file renamed onto path; on any
    error the new file is removed and path is left as it was.  A path
    that names a device or FIFO (/dev/null, /dev/stdout) keeps no contents
    to protect and must not be replaced by a file: it is opened itself."""
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        fd = os.open(path, os.O_WRONLY)
        try:
            yield fd
        finally:
            os.close(fd)
        return
    target = Path(os.path.realpath(path))
    temp = target.with_name(f".{target.name}.{os.urandom(6).hex()}")
    try:  # O_EXCL never opens an existing file; the umask applies, as for open()
        fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:  # named as open(path) would name it
        raise type(exc)(exc.errno, exc.strerror, os.fspath(path)) from None
    try:
        if mode is not None:
            os.fchmod(fd, stat.S_IMODE(mode))
        try:
            yield fd
        finally:
            os.close(fd)
        # renaming onto an existing file would make ext4 (auto_da_alloc)
        # start writing the new one back at once; a buffer read_iq returned
        # keeps the unlinked file open, so its samples stay as they were
        try:
            os.unlink(target)
        except FileNotFoundError:
            pass
    except BaseException:
        os.unlink(temp)
        raise
    # the old file is gone: should the rename fail, the new one is kept
    os.rename(temp, target)


def _mirrored(cols: list) -> bool:
    """Whether the table `cols` (float or int columns) is its own mirror
    image about its middle row n // 2: n is odd, and for each row i before
    the middle and its mirror row n - 1 - i, the first column holds x > 0
    at the mirror and -x at i, and every other column the same bits at
    both.  As repr(-x) is '-' + repr(x) for every positive float or int,
    the text of row i is then '-' + the text of its mirror row."""
    n = len(cols[0])
    if n % 2 == 0 or any(c.dtype.kind not in "fi" for c in cols):
        return False
    for lo, hi in _spans(n // 2, _CSV_CHECK_ROWS):
        (x, mirror), *rest = [(c[lo:hi], c[n - hi:n - lo][::-1]) for c in cols]
        if not (np.all(mirror > 0) and np.array_equal(x, -mirror)):
            return False
        for a, b in rest:  # == alone takes -0.0 for 0.0
            if not (np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))):
                return False
    return True


def _format_part(cols: list, lo: int, hi: int, first: int, upper, lower) -> None:
    """Write the text of rows lo..hi-1 to the binary file `upper`, then,
    for those from row `first` on, '-' + their text to the binary file
    `lower` in descending row order: the text of their mirror rows, in
    file order, when the table is mirrored and first is the row after the
    middle.  Both are written _CSV_VALUES values at a time, the reflected
    text from `upper` read back a chunk at a time, and flushed."""
    chunks, offset = [], 0  # (first row, offset, size) of each chunk to reflect
    for a, b in _spans(hi, max(1, _CSV_VALUES // len(cols)), lo):
        text = _csv_text(cols, a, b)
        upper.write(text)
        if b > first:
            chunks.append((a, offset, len(text)))
        offset += len(text)
    upper.flush()
    for a, offset, size in reversed(chunks):
        rows = os.pread(upper.fileno(), size, offset).split(b"\r\n")[max(0, first - a):-1]
        lower.write(b"-" + b"\r\n-".join(reversed(rows)) + b"\r\n")
    lower.flush()


def _write_csv(path, header_cols: list[str], cols: list, comments: list[str] = ()) -> None:
    """Write '# ' comment lines, a header and one row per entry of the
    columns `cols` (equal-length 1-D numpy arrays), in csv.writer's
    default layout: ',' between fields and '\r\n' after each row.  Every
    number is written as its repr, so floats read back exactly: the text
    of a chunk of rows is computed for whole arrays by
    _numtext._csv_text, which gives repr's text without calling it.  Its
    tables are built on the first call, before any fork, so that children
    inherit them.  The comments and header are ASCII, and the file is
    written as bytes.

    The file is written beside path and renamed onto it once whole (see
    _replacing): a failed write leaves the old file as it was.  A table
    that is its own mirror image (see _mirrored), as every spectrum is,
    has only its middle row and the rows after it formatted; each row
    before the middle is '-' + the text of its mirror row, copied as
    bytes.

    The rows that are formatted are cut into one contiguous part per CPU
    (at most one per _CSV_FORK_VALUES values), when this process has no
    other thread and more than one part is called for.  Every part has
    its own pair of anonymous spill files: its rows' text, and their
    reflected text in descending row order (empty unless the table is
    mirrored).  After the comments and header are flushed, a forked child
    formats each part after the first while this process formats the
    first.  Then each child is reaped in order and the output assembled:
    the reflected texts in reverse part order, then the texts in part
    order, so the bytes are those of a one-CPU run.  A child that fails
    is an OSError naming path and the rows it formatted.  On any exit,
    one cleanup kills and reaps every child still running, then closes
    the spill files, then the output, before _replacing renames or
    removes the new file.  Every process formats and writes
    _CSV_VALUES values at a time, so the text never exists whole, in any
    process."""
    import shutil
    import signal
    import tempfile
    _numtext._tables()
    n = len(cols[0])
    # the rows start..n-1 are formatted; the text of those from `first` on is reflected
    start, first = (n // 2, n // 2 + 1) if _mirrored(cols) else (0, n)
    n_parts = 1
    # a fork copies only the calling thread: another thread's locks could be held
    if hasattr(os, "fork") and threading.active_count() == 1:
        n_parts = max(1, min(params._cpu_count(), (n - start) * len(cols) // _CSV_FORK_VALUES))
    bounds = [start + i * (n - start) // n_parts for i in range(n_parts + 1)]
    parts = list(zip(bounds, bounds[1:]))
    pids = []  # the children not yet reaped

    def reap() -> None:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)

    with contextlib.ExitStack() as stack:
        fd = stack.enter_context(_replacing(path))
        out = stack.enter_context(open(fd, "wb", closefd=False))
        out.write(("".join(f"# {line}\n" for line in comments) + ",".join(header_cols)
                   + "\r\n").encode("ascii"))
        out.flush()  # a child must inherit no unwritten bytes
        # each part's text and reflected text
        spills = [(stack.enter_context(tempfile.TemporaryFile()),
                   stack.enter_context(tempfile.TemporaryFile())) for _ in parts]
        stack.callback(reap)
        for (lo, hi), pair in zip(parts[1:], spills[1:]):
            pid = os.fork()
            if pid == 0:  # the child: never returns into the caller's stack
                try:
                    _format_part(cols, lo, hi, first, *pair)
                    os._exit(0)
                finally:
                    os._exit(1)
            pids.append(pid)
        _format_part(cols, *parts[0], first, *spills[0])
        for lo, hi in parts[1:]:
            status = os.waitpid(pids[0], 0)[1]
            del pids[0]
            if status:
                raise OSError(f"cannot write {path}: the process formatting rows "
                              f"{lo}..{hi - 1} exited with status "
                              f"{os.waitstatus_to_exitcode(status)}")
        for spill in [lower for _, lower in reversed(spills)] + [upper for upper, _ in spills]:
            spill.seek(0)
            shutil.copyfileobj(spill, out)


def _read_csv(path, what: str, names: list[str]) -> tuple[dict, list[np.ndarray]]:
    """The '# key=value' comments (a dict of strings) and the columns of a
    CSV file in _write_csv's layout: '#' lines, a header row of `names`
    (stripped, any case), then rows of len(names) finite numbers; blank
    rows are skipped.  Errors name the file as `what`, the line, the column."""
    k, meta, values, text = len(names), {}, [], ""  # text stays "" in an empty file
    where = f"{what} {path}, line"
    try:
        with open(path, newline="") as fh:
            for first, text in enumerate(fh, 1):
                if text.startswith("#"):
                    key, _, value = text[1:].strip().partition("=")
                    meta[key] = value
                elif text.rstrip("\r\n"):
                    break
            if [c.strip().lower() for c in next(csv.reader([text]), [])] != names:
                raise ValueError(f"{what} {path} must start with a header row "
                                 f"'{','.join(names)}', after any '#' lines")
            reader = csv.reader(fh)
            for row in reader:  # a blank row is [], and adds no value
                line = first + reader.line_num
                if row and len(row) != k:
                    raise ValueError(f"malformed {what} row in {path} at line {line}: expected "
                                     f"{k} fields ({', '.join(names)}), got {len(row)}: {row!r}")
                try:
                    numbers = list(map(float, row))
                except ValueError:
                    numbers = [math.nan]
                if not all(map(math.isfinite, numbers)):  # _finite words the error
                    for field, name in zip(row, names):
                        _finite(field, f"{where} {line}: {name}")
                values += numbers
    except (csv.Error, UnicodeDecodeError) as exc:  # an overlong field, or not UTF-8
        raise ValueError(f"malformed {what} {path}: {exc}") from exc
    return meta, list(np.array(values).reshape(-1, k).T)


def _default_header_path(path: Path) -> Path:
    return path.with_name(path.name + ".json")


def _unfit(path: Path) -> ValueError:
    return ValueError(f"cannot write IQ capture {path}: the I or Q of a sample is NaN, "
                      "infinite or too large for float32")


def _write_f32(buffer: IqBuffer, path: Path) -> None:
    """Write the interleaved float32 capture at path (at the target of a
    symlink there) through a new file beside it, which is renamed onto
    path once every block has been narrowed, checked and written at its
    offset, the blocks shared among the CPUs.  On any error, a sample
    that does not fit float32 (ValueError) included, the new file is
    removed and path is left as it was.  A pipe, FIFO or device at path
    is written in place (see _replacing), in block order, by the calling
    thread."""
    def write(part: list) -> tuple:
        payload = np.empty(2 * min(len(buffer), _BLOCK_SAMPLES), dtype="<f4")
        # a float64 narrows to a finite float32 exactly when its magnitude
        # is below 2^128 - 2^103, halfway from FLT_MAX to 2^128; one at or
        # beyond it narrows to inf, here without a warning
        with np.errstate(over="ignore"):
            for (lo, hi), block in zip(part, buffer._blocks(part)):
                out = payload[:2 * (hi - lo)]
                # complex128 is stored as I, Q float64 pairs
                np.copyto(out, block.view(np.float64))
                if not _all_finite(out):
                    raise _unfit(path)
                data, offset = memoryview(out).cast("B"), 8 * lo
                while data:  # short on a full disk, or a signal during a pipe write
                    done = os.pwrite(fd, data, offset) if regular else os.write(fd, data)
                    data, offset = data[done:], offset + done
        return ()

    with _replacing(path) as fd:
        spans = _spans(len(buffer), _BLOCK_SAMPLES)
        regular = stat.S_ISREG(os.fstat(fd).st_mode)
        if regular:
            _map_chunks(write, spans)
        else:  # a pipe or FIFO has no offsets: its bytes go in order
            write(spans)


def write_iq(buffer: IqBuffer, path, header_path=None, center_freq: float = 0.0,
             description: str = "", fmt: str = FORMAT_F32) -> IqFileHeader:
    """Write an IqBuffer to disk plus its JSON sidecar.

    Binary files hold interleaved little-endian float32 I/Q pairs (8 bytes
    per complex sample); CSV files carry an "i,q" header row.  Returns the
    header that was written.  A sample whose I or Q is NaN, infinite or
    (in the binary format) beyond the float32 range raises ValueError
    and leaves the file at path and its sidecar as they were, since
    read_iq would reject the capture.

    The binary format reads the buffer once, in blocks shared among the
    CPUs of the affinity mask.  Each block is narrowed to float32, checked
    and written at its place in a new file beside path.  Only once every
    block has been written is the old file unlinked and the new one
    renamed onto path (a symlink at path is followed and its target
    replaced); then the sidecar is written.  A failed or interrupted
    write removes the new file.  A buffer that read_iq returned for the
    old file keeps reading it, unchanged.  A pipe or FIFO at path
    (/dev/stdout in a pipeline) is written in place, its blocks in order
    by the calling thread, with the same bytes.  The CSV format reads
    `samples` once and checks them before it opens path; its rows are
    written as _write_csv writes every CSV output, through a new file
    beside path too, and a large capture's rows are formatted on every
    CPU.
    """
    path = Path(path)
    header_path = Path(header_path) if header_path else _default_header_path(path)
    header = IqFileHeader(format=fmt, fs=buffer.fs, center_freq=center_freq,
                          description=description)
    try:
        if fmt == FORMAT_F32:
            _write_f32(buffer, path)
        else:
            samples = buffer.samples
            if not _all_finite(samples.view(np.float64)):
                raise _unfit(path)
            _write_csv(path, ["i", "q"], [samples.real, samples.imag])
        header_path.write_text(json.dumps({
            "format": header.format,
            "fs_hz": header.fs,
            "center_freq_hz": header.center_freq,
            "description": header.description,
            "num_samples": len(buffer),
        }, indent=2) + "\n")
    except OSError as exc:
        raise OSError(f"failed writing IQ capture {path}: {exc}") from exc
    return header


def read_header(header_path) -> tuple[IqFileHeader, int | None]:
    """Parse a sidecar; returns the header and the recorded sample count.
    Every error names the sidecar."""
    header_path = Path(header_path)
    doc = _json_object(header_path, "IQ sidecar", "'fs_hz'")
    if "fs_hz" not in doc:
        raise ValueError(f"IQ sidecar {header_path} is missing fs_hz")
    where = f"IQ sidecar {header_path}:"
    fs = _finite(doc["fs_hz"], f"{where} 'fs_hz'")
    center_freq = _finite(doc.get("center_freq_hz", 0.0), f"{where} 'center_freq_hz'")
    try:
        header = IqFileHeader(format=str(doc.get("format", FORMAT_F32)), fs=fs,
                              center_freq=center_freq,
                              description=str(doc.get("description", "")))
    except ValueError as exc:
        raise ValueError(f"{where} {exc}") from exc
    n = doc.get("num_samples")
    if isinstance(n, float) and n.is_integer():
        n = int(n)
    if n is not None and (isinstance(n, bool) or not isinstance(n, int) or n < 0):
        raise ValueError(f"{where} 'num_samples' must be a nonnegative integer, got {_quote(n)}")
    return header, n


def _read_f32(path: Path, n_expected: int | None, fs: float) -> IqBuffer:
    """A lazy buffer over the interleaved float32 capture at path, which it
    keeps open: the samples a pass reads are read from the file, block by
    block, into a float32 scratch of its thread and widened to complex128
    (every float32 widens exactly).  The file's length is checked, also
    against the sidecar's count, and its samples are checked finite by a
    mean-power pass, whose value the buffer keeps.  A path that is not a
    regular file (a pipe or FIFO has no size and no offsets) is a
    ValueError naming the capture, raised before the file is opened.  A
    read that comes short is an OSError naming the capture; a pass over a
    file whose size, inode or modification time has changed since is a
    ValueError."""
    try:
        # checked before the open, which would wait for a FIFO's writer
        if not stat.S_ISREG(os.stat(path).st_mode):
            raise ValueError(f"IQ capture {path} is not a regular file: a float32 capture "
                             "is read by offset, so not from a pipe, FIFO or device")
        fd = os.open(path, os.O_RDONLY)
    except OSError as exc:
        raise OSError(f"cannot read IQ capture {path}: {exc}") from exc
    local = threading.local()

    def identity() -> tuple:
        st = os.fstat(fd)
        # not st_ctime: write_iq's unlink of this file changes only that
        return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns

    def fill(lo: int, hi: int, out: np.ndarray) -> None:
        if not hasattr(local, "payload"):
            local.payload = np.empty(2 * min(n, _BLOCK_SAMPLES), dtype="<f4")
        try:
            if identity() != seen:
                raise ValueError(f"IQ capture {path} changed after read_iq")
            for a, b in _spans(hi, _BLOCK_SAMPLES, lo):
                payload = local.payload[:2 * (b - a)]
                got = os.preadv(fd, [payload], 8 * a)
                if got < payload.nbytes:
                    raise OSError(f"the file ended after {8 * a + got} of {8 * n} bytes")
                np.copyto(out[a - lo:b - lo].view(np.float64), payload)
        except OSError as exc:
            raise OSError(f"cannot read IQ capture {path}: {exc}") from exc

    # closes the file once the buffer has built its samples or is collected
    close = weakref.finalize(fill, os.close, fd)
    try:
        try:
            seen = identity()
        except OSError as exc:
            raise OSError(f"cannot read IQ capture {path}: {exc}") from exc
        size = seen[2]
        if size % 8:
            raise ValueError(f"truncated IQ capture {path}: {size} bytes is not a "
                             "whole number of float32 I/Q pairs")
        n = size // 8
        _check_count(path, n, n_expected)
        buffer = IqBuffer._lazy(n, fill, fs=fs)
        # |x|^2 of a widened float32 cannot overflow, so the mean power is
        # finite exactly when every sample is
        if not math.isfinite(buffer.mean_power):
            raise ValueError(f"IQ capture {path} holds NaN or infinite samples")
    except BaseException:
        close()
        raise
    return buffer


def _check_count(path: Path, n: int, n_expected: int | None) -> None:
    if n_expected is not None and n_expected != n:
        raise ValueError(f"IQ capture {path} holds {n} samples but sidecar says {n_expected}")


def read_iq(path, header_path=None) -> IqBuffer:
    """Read an IQ capture back into an IqBuffer.

    Raises on truncated payloads (odd float count), NaN or infinite
    samples, malformed sidecars, nonpositive sample rates, malformed CSV
    (see _read_csv) and sidecar/payload length mismatches.  A CSV
    capture's samples are the i and q columns of _read_csv, bit for bit.

    A float32 capture is not loaded: the buffer keeps the file open and
    reads the blocks each pass needs, by offset, shared among the CPUs of
    the affinity mask, so it holds no full-size copy of the capture until
    `samples` is read; that reads the file once and closes it, as
    collecting the buffer does.  The samples are checked finite by the
    pass that computes `mean_power`, which the buffer keeps.  write_iq to
    the same path leaves the buffer reading the old file.  Editing or
    truncating the file in place makes the buffer's next pass raise
    ValueError naming the capture; an edit is seen through the file's
    modification time, so only once the filesystem's clock has ticked
    since the file was last written.  As it is read by offset, a float32
    capture must be a regular file: a pipe or FIFO (whose size reads 0)
    is a ValueError naming the capture, raised before the file is
    opened.  A regular file behind /dev/stdin reads as any other.  A CSV
    capture is read front to back, so it may come from a pipe or FIFO.
    """
    path = Path(path)
    header_path = Path(header_path) if header_path else _default_header_path(path)
    header, n_expected = read_header(header_path)
    if header.format == FORMAT_F32:
        return _read_f32(path, n_expected, header.fs)
    _, (i, q) = _read_csv(path, "CSV IQ", ["i", "q"])
    _check_count(path, len(i), n_expected)
    samples = np.empty(len(i), dtype=np.complex128)
    samples.real, samples.imag = i, q  # every bit, -0.0 included
    return IqBuffer(samples, fs=header.fs)
