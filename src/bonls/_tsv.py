"""Tables of floats as tab-separated %.17g text, written here or by a child process.

`write_table` formats a table in blocks of rows.  A `Writer` formats the
tables it is sent in the calling process until their values total
`_HERE_BYTES`; each is written under a temporary name and renamed into
place, so an exception, Ctrl-C included, leaves no partial table.  The
first table past that budget starts a child process that runs this file
as a script,

    python -I -S _tsv.py STATUS_FD

and every table from then on goes to it, in order, so the text
formatting of a large table overlaps whatever the caller computes next.
The child is started with `os.posix_spawn` and reaped with `os.waitpid`:
the `subprocess` import alone would cost the caller several ms.  The
child reads frames from its stdin:

    header  struct "<IIIQ": path bytes, header bytes, columns, value bytes
    path    file system encoding
    header  UTF-8 text, written before the rows
    values  row-major native float64

It runs in a session of its own, out of reach of a terminal's Ctrl-C, and
writes every whole frame it receives; a frame cut short by EOF is dropped.
When it cannot write a table it prints the error on its stderr, writes the
table's path to STATUS_FD and exits 1.

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

# Capacity asked for the pipe to the writer process: Linux's default ceiling
# for an unprivileged pipe (fs.pipe-max-size), four n = 8192 snapshots.
_PIPE_BYTES = 1 << 20

# Value bytes a Writer formats in the calling process before it starts its
# child.  Formatting costs about 64 ns per value byte (n = 512 to 2048
# snapshots), and the spawn adds 9-12 ms to a run, whether the run steps on
# while the child starts or closes at once (medians of 30 paired runs on a
# 2-vCPU host).  The budget is the bytes one spawn's cost formats, rounded
# down to a power of two (8.4 ms): like renting until the rent reaches the
# price, no run pays more than twice the cheaper of the two ways.  One
# n = 8192 snapshot (256 KiB) is past it, so such a run spawns at its first.
_HERE_BYTES = 128 * 1024


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


def _write_here(path, header: str, columns: int, data) -> None:
    """`write_table` under path + ".part", renamed to path once whole.

    On any exception, KeyboardInterrupt included, the temporary file is
    removed, so neither it nor a partial table is left.
    """
    part = os.fspath(path) + ".part"
    try:
        write_table(part, header, columns, data)
        os.replace(part, path)
    except BaseException:
        try:
            os.unlink(part)
        except OSError:
            pass
        raise


class Writer:
    """Tables written in order: here while they are small, then by a child.

    While the values of the tables sent total at most `_HERE_BYTES`, each
    is written in the calling process, whole or not at all (`_write_here`).
    The first table past that budget starts the child process, and every
    table from then on is sent to it.  A send to the child blocks while the
    pipe to it is full, so the tables in flight are bounded by the pipe's
    size.  `close` waits for every table sent to be written and raises
    OSError, naming the path, if one was not; a send that cannot write its
    table here, or that reaches a child that has died, raises the same.  As
    a context manager the writer is closed on exit, and its failure is
    raised only when no other exception is.
    """

    def __init__(self):
        self._room = _HERE_BYTES  # value bytes still to be written here; -1 once spawned
        self._pid = None
        self._stdin = None  # the pipe to the child's stdin
        self._status = -1
        self._last = None  # the path of the latest table sent

    def __enter__(self) -> "Writer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(check=exc_type is None)

    def send(self, path, header: str, columns: int, data) -> None:
        """Write one table (see `write_table`) at path, here or by the child."""
        if len(data) <= self._room:
            self._room -= len(data)
            try:
                _write_here(path, header, columns, data)
            except OSError as exc:
                raise OSError(f"{path}: not written, {exc}") from None
            return
        self._room = -1  # every later table goes to the child, in order
        if self._pid is None:
            self._start()
        raw_path, raw_header = os.fsencode(path), header.encode()
        self._last = path
        try:
            self._stdin.write(_FRAME.pack(len(raw_path), len(raw_header), columns,
                                          len(data)) + raw_path + raw_header)
            self._stdin.write(data)
            self._stdin.flush()
        except BrokenPipeError:
            self.close()
            raise OSError(f"{path}: not written, the table writer had exited") from None

    def close(self, check: bool = True) -> None:
        """Wait for the child to write what it was sent and exit."""
        pid = self._pid
        if pid is None:
            return
        self._pid = None
        try:
            self._stdin.close()
        except BrokenPipeError:
            pass  # the exit status says why
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        failed = os.read(self._status, 1 << 16)
        os.close(self._status)
        if check and code != 0:
            path = os.fsdecode(failed) if failed else self._last
            raise OSError(f"{path}: not written, the table writer exited with "
                          f"status {code}")

    def _start(self) -> None:
        # posix_spawn, not subprocess: importing subprocess costs several
        # ms.  os.pipe's ends are close-on-exec, so the child inherits only
        # its stdin, dup2'd from one pipe, and the status end made inheritable.
        status, child_end = os.pipe()
        stdin_r, stdin_w = os.pipe()
        try:
            os.set_inheritable(child_end, True)
            self._pid = os.posix_spawn(
                sys.executable, [sys.executable, "-I", "-S", __file__, str(child_end)],
                os.environ, file_actions=[(os.POSIX_SPAWN_DUP2, stdin_r, 0)], setsid=True)
        except BaseException:
            os.close(status)
            os.close(stdin_w)
            raise
        finally:
            os.close(child_end)
            os.close(stdin_r)
        self._status = status
        self._stdin = open(stdin_w, "wb")
        # room for a few tables, so that the first sends need not wait for
        # the child's start-up; where the size cannot be set, the default holds
        try:
            import fcntl
            fcntl.fcntl(stdin_w, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
        except (ImportError, AttributeError, OSError):
            pass


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
            write_table(path, names[n_path:].decode(), columns, data)
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
