"""Every file a run writes, whole or absent; tables of floats as %.17g text.

`write_file` is the one way a file reaches disk: it writes under
`<name>.part` and renames that into place once it is whole, and removes it
on any exception, Ctrl-C included.  So a run leaves each of its files
whole or not at all, in either process.  `write_table` formats a table
in blocks of rows.  A `Writer` writes the tables it is sent in the calling
process until their values total `_HERE_BYTES`; the first table past that
budget starts a child process that runs this file as a script,

    python -I -S _tsv.py STATUS_FD

and every table from then on goes to it, in order, so the text
formatting of a large table overlaps whatever the caller computes next.
The child is started by `subprocess.Popen`, imported only then, so a run
within the budget never imports `subprocess`.  The child reads frames
from its stdin:

    header  struct "<IIIQ": path bytes, header bytes, columns, value bytes
    path    file system encoding
    header  UTF-8 text, written before the rows
    values  row-major native float64

It runs in a session of its own, out of reach of a terminal's Ctrl-C, and
writes every whole frame it receives, through `write_file`; a frame cut
short by EOF is dropped.  When it cannot write a table it prints the
error on its stderr, writes the table's path to STATUS_FD and exits 1.

This module imports nothing beyond the standard library, and nothing from
bonls: on Python 3.10 `-I` still puts the script's directory on sys.path.
"""

from __future__ import annotations

import os
import struct
import sys

# Rows per %-operation: only one block's text is held in memory at a time.
BLOCK_ROWS = 512

_FRAME = struct.Struct("<IIIQ")

# Value bytes a Writer formats in the calling process before it starts its
# child.  Formatting costs about 64 ns per value byte (n = 512 to 2048
# snapshots), and the spawn adds 9-12 ms to a run, whether the run steps on
# while the child starts or closes at once (medians of 30 paired runs on a
# 2-vCPU host), and importing `subprocess` for it about 4-7 ms more.  The
# budget is the bytes the 9-12 ms format, rounded down to a power of two
# (8.4 ms): like renting until the rent reaches the price.  One n = 8192
# snapshot (256 KiB) is past it, so such a run spawns at its first.
_HERE_BYTES = 128 * 1024


def write_table(fh, header: str, columns: int, data) -> None:
    """Rows of floats under a header to the text file fh, tab-separated, each as %.17g.

    data holds the table's values as row-major native float64, in any
    C-contiguous buffer: an array, its memoryview or its bytes.  The text
    is that of np.savetxt(fh, table, fmt="%.17g", delimiter="\t",
    header=header, comments=""), nan, inf and -0 included.  Each block of
    rows is formatted by one (row_format * rows) % values operation, about
    twice as fast as savetxt's row-by-row formatting.
    """
    values = memoryview(data).cast("B").cast("d")
    row = "\t".join(["%.17g"] * columns) + "\n"
    step = BLOCK_ROWS * columns
    fh.write(header + "\n")
    for lo in range(0, len(values), step):
        block = values[lo:lo + step]
        fh.write((row * (len(block) // columns)) % tuple(block))


def write_file(path, write, *args) -> None:
    """write(fh, *args) on path + ".part" opened as text, renamed to path once whole.

    On any exception, KeyboardInterrupt included, the temporary file is
    removed, so neither it nor a partial file is left; an OSError is
    raised again as one naming path, "<path>: not written, <reason>".
    """
    part = os.fspath(path) + ".part"
    try:
        with open(part, "w") as fh:
            write(fh, *args)
        os.replace(part, path)
    except BaseException as exc:
        try:
            os.unlink(part)
        except OSError:
            pass
        if isinstance(exc, OSError):
            raise OSError(f"{path}: not written, {exc}") from None
        raise


class Writer:
    """Tables written in order: here while they are small, then by a child.

    Each table is a C-contiguous 2-D float64 array (any other raises
    TypeError), and each is written whole or not at all (`write_file`), in
    either process.  While the values of the tables sent total at most
    `_HERE_BYTES`, each is written in the calling process.  The first
    table past that budget starts the child process, and every table from
    then on is sent to it: the array's own buffer goes down the pipe, with
    no copy.  A send to the child blocks while the pipe to it is full, so
    the tables in flight are bounded by the pipe's size.  `close` waits for every table sent to be
    written and raises OSError, naming the path, if one was not; a send
    that cannot write its table here, or that reaches a child that has
    died, raises the same.  As a context manager the writer is closed on
    exit, and its failure is raised only when no other exception is.
    """

    def __init__(self):
        self._room = _HERE_BYTES  # value bytes still to be written here; -1 once spawned
        self._child = None  # the writer process, a subprocess.Popen
        self._status = -1
        self._last = None  # the path of the latest table sent

    def __enter__(self) -> "Writer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(check=exc_type is None)

    def send(self, path, header: str, table) -> None:
        """Write one table (see `write_table`) at path, here or by the child."""
        values = memoryview(table)
        if values.format != "d" or values.ndim != 2 or not values.c_contiguous:
            raise TypeError(f"{path}: a table is a C-contiguous 2-D float64 array")
        columns = values.shape[1]
        if values.nbytes <= self._room:
            self._room -= values.nbytes
            write_file(path, write_table, header, columns, values)
            return
        self._room = -1  # every later table goes to the child, in order
        if self._child is None:
            self._start()
        raw_path, raw_header = os.fsencode(path), header.encode()
        self._last = path
        try:
            stdin = self._child.stdin
            stdin.write(_FRAME.pack(len(raw_path), len(raw_header), columns,
                                    values.nbytes) + raw_path + raw_header)
            stdin.write(values)
            stdin.flush()
        except BrokenPipeError:
            self.close()
            raise OSError(f"{path}: not written, the table writer had exited") from None

    def close(self, check: bool = True) -> None:
        """Wait for the child to write what it was sent and exit."""
        child = self._child
        if child is None:
            return
        self._child = None
        try:
            child.stdin.close()
        except BrokenPipeError:
            pass  # the exit status says why
        code = child.wait()
        failed = os.read(self._status, 1 << 16)
        os.close(self._status)
        if check and code != 0:
            path = os.fsdecode(failed) if failed else self._last
            raise OSError(f"{path}: not written, the table writer exited with "
                          f"status {code}")

    def _start(self) -> None:
        import subprocess

        # os.pipe's ends are close-on-exec; the child inherits the status end
        # through pass_fds, and its session keeps it from a terminal's Ctrl-C
        status, child_end = os.pipe()
        try:
            self._child = subprocess.Popen(
                [sys.executable, "-I", "-S", __file__, str(child_end)],
                stdin=subprocess.PIPE, pass_fds=(child_end,), start_new_session=True)
        except BaseException:
            os.close(status)
            raise
        finally:
            os.close(child_end)
        self._status = status


def _serve(stream, status_fd: int) -> int:
    """The child's loop: read frames from stream and write their tables."""
    while True:
        head = stream.read(_FRAME.size)
        if len(head) < _FRAME.size:
            return 0
        n_path, n_header, columns, n_data = _FRAME.unpack(head)
        names = stream.read(n_path + n_header)
        data = stream.read(n_data)
        if len(names) + len(data) < n_path + n_header + n_data:
            return 0  # cut short by EOF: dropped, never half-written
        path = os.fsdecode(names[:n_path])
        try:
            write_file(path, write_table, names[n_path:].decode(), columns, data)
        except OSError as exc:
            print(f"table writer: {exc}", file=sys.stderr)
            os.write(status_fd, names[:n_path])
            return 1


if __name__ == "__main__":
    code = _serve(sys.stdin.buffer, int(sys.argv[1]))
    # every table file is closed by now; skipping the interpreter's teardown
    # saves the caller, who waits for this exit, a few ms
    sys.stderr.flush()
    os._exit(code)
