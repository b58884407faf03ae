"""A fixed job that gauges how fast the machine is right now.

    python3 perfbench/reference.py

It imports numpy, makes transforms at the two grid sizes the workloads
use, and runs a pure-Python loop; it never touches bonls, so no change
to the program moves its time.  run.py launches it after every
operation and scales each operation's times by the reference runs on
either side of it (see README.md, "Reference scaling").
"""

import numpy as np


def main() -> None:
    rng = np.random.default_rng(0)
    acc = 0.0
    for n, reps in ((512, 1500), (8192, 150)):
        x = rng.standard_normal(n)
        for _ in range(reps):
            acc += float(np.fft.irfft(np.fft.rfft(x) * 0.5, n)[0])
    total = 0
    for i in range(150_000):
        total += i * i
    if not np.isfinite(acc) or total <= 0:
        raise SystemExit("reference job produced a bad result")


if __name__ == "__main__":
    main()
