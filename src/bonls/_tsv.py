"""Tables of floats as tab-separated %.17g text, written here or by a child process.

`write_table` formats a table in blocks of rows.  `Writer` hands tables to
a child process that runs this file as a script,

    python -I -S _tsv.py STATUS_FD

and writes them in the order they arrive, so the text formatting of one
table overlaps whatever the caller computes next.  The child reads frames
from its stdin:

    header  struct "<IIIQ": path bytes, header bytes, columns, value bytes
    path    file system encoding
    header  UTF-8 text, written before the rows
    values  row-major native float64

It ignores SIGINT and writes every whole frame it receives; a frame cut
short by EOF is dropped.  When it cannot write a table it prints the
error on its stderr, writes the frame's index to STATUS_FD and exits 1.

This module imports nothing beyond the standard library, and nothing from
bonls: on Python 3.10 `-I` still puts the script's directory on sys.path.
"""

from __future__ import annotations

import os
import signal
import struct
import sys

# Rows per %-operation: only one block's text is held in memory at a time.
BLOCK_ROWS = 512

_FRAME = struct.Struct("<IIIQ")

# Capacity asked for the pipe to the writer process: Linux's default ceiling
# for an unprivileged pipe (fs.pipe-max-size), four n = 8192 snapshots.
_PIPE_BYTES = 1 << 20


def write_table(path, header: str, columns: int, data) -> None:
    """Rows of floats under a header, tab-separated, each float as %.17g.

    data holds the table's values as row-major native float64 bytes.  The
    text is that of np.savetxt(path, table, fmt="%.17g", delimiter="\t",
    header=header, comments=""), nan, inf and -0 included.  Each block of
    rows is formatted by one (row_format * rows) % values operation, about
    twice as fast as savetxt's row-by-row formatting.
    """
    values = memoryview(data).cast("d")
    row = "\t".join(["%.17g"] * columns) + "\n"
    step = BLOCK_ROWS * columns
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for lo in range(0, len(values), step):
            block = values[lo:lo + step]
            fh.write((row * (len(block) // columns)) % tuple(block))


class Writer:
    """Tables sent to a child process, which writes them in order.

    The process starts at the first `send`.  A send blocks while the pipe
    to the child is full, so the tables in flight are bounded by the pipe's
    size.  `close` waits for every table sent to be written and raises
    OSError, naming the path, if one was not; a send to a child that has
    died raises the same.  As a context manager the writer is closed on
    exit, and its failure is raised only when no other exception is.
    """

    def __init__(self):
        self._proc = None
        self._status = -1
        self._paths: list = []

    def __enter__(self) -> "Writer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(check=exc_type is None)

    def send(self, path, header: str, columns: int, data) -> None:
        """Queue one table (see `write_table`) to be written at path."""
        if self._proc is None:
            self._start()
        raw_path, raw_header = os.fsencode(path), header.encode()
        self._paths.append(path)
        try:
            self._proc.stdin.write(_FRAME.pack(len(raw_path), len(raw_header), columns,
                                               len(data)) + raw_path + raw_header)
            self._proc.stdin.write(data)
            self._proc.stdin.flush()
        except BrokenPipeError:
            self.close()
            raise OSError(f"{path}: not written, the table writer had exited") from None

    def close(self, check: bool = True) -> None:
        """Wait for the child to write what it was sent and exit."""
        proc = self._proc
        if proc is None:
            return
        self._proc = None
        try:
            proc.stdin.close()
        except BrokenPipeError:
            pass  # the exit status says why
        code = proc.wait()
        failed = os.read(self._status, 32)
        os.close(self._status)
        if check and code != 0:
            path = self._paths[int(failed)] if failed else self._paths[-1]
            raise OSError(f"{path}: not written, the table writer exited with "
                          f"status {code}")

    def _start(self) -> None:
        # imported here: subprocess costs an importer several ms of start-up,
        # and the child, which runs this file, needs neither module
        import subprocess

        self._paths = []
        status, child_end = os.pipe()
        try:
            self._proc = subprocess.Popen(
                [sys.executable, "-I", "-S", __file__, str(child_end)],
                stdin=subprocess.PIPE, pass_fds=(child_end,))
        except BaseException:
            os.close(status)
            raise
        finally:
            os.close(child_end)
        self._status = status
        # room for a few tables, so that the first sends need not wait for
        # the child's start-up; where the size cannot be set, the default holds
        try:
            import fcntl
            fcntl.fcntl(self._proc.stdin, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
        except (ImportError, AttributeError, OSError):
            pass


def _serve(stream, status_fd: int) -> int:
    """The child's loop: read frames from stream and write their tables."""
    index = 0
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
            write_table(path, names[n_path:].decode(), columns, data)
        except OSError as exc:
            print(f"table writer: {exc}", file=sys.stderr)
            os.write(status_fd, b"%d" % index)
            return 1
        index += 1


if __name__ == "__main__":
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    code = _serve(sys.stdin.buffer, int(sys.argv[1]))
    # every table file is closed by now; skipping the interpreter's teardown
    # saves the caller, who waits for this exit, a few ms
    sys.stderr.flush()
    os._exit(code)
