"""Fixed reference work that measures how fast the host is right now.

Run as a child process, timed from start to exit by ``run.py``::

    python3 perfbench/calibrate.py

It does what an evplace invocation does, in miniature and with code of its
own, so that it never changes when the program does: start an interpreter,
import numpy, parse CSV event rows line by line in Python, accumulate the
events into full-size frames with numpy, shrink them and compare them by
sum of absolute differences.  On a shared host a slow stretch stretches this
work and the program alike, so the program's wall time divided by the
calibration's, measured next to each other, is steady where either alone is
not.  It prints a checksum, which must equal ``CHECKSUM``, and the seconds
the work took inside the process, so the caller can tell the work from the
start-up (interpreter start, numpy import, exit).
"""

import sys
import time

import numpy as np

ROWS = 80_000
FRAMES = 20
WIDTH, HEIGHT = 346, 260
CHECKSUM = "00bf082"


def rows() -> str:
    """``t,x,y,p`` rows from a fixed linear congruential sequence."""
    lines, a, t = [], 12345, 0
    for _ in range(ROWS):
        a = (a * 1103515245 + 12345) & 0x7FFFFFFF
        t += a & 255
        lines.append(f"{t},{a % WIDTH},{(a >> 9) % HEIGHT},{(a >> 20) & 1}")
    return "\n".join(lines)


def work() -> str:
    ts, xs, ys = [], [], []
    for line in rows().split("\n"):
        f = line.split(",")
        ts.append(int(f[0]))
        xs.append(int(f[1]))
        ys.append(int(f[2]))
    t = np.asarray(ts, dtype=np.int64)
    frame = t * FRAMES // (t[-1] + 1)
    img = np.zeros((FRAMES, HEIGHT, WIDTH))
    np.add.at(img, (frame, np.asarray(ys), np.asarray(xs)), 1.0)
    small = img[:, :, :340].reshape(FRAMES, 26, 10, 34, 10).mean(axis=(2, 4))
    sad = np.abs(small[:, None] - small[None]).sum(axis=(2, 3))
    return f"{int(round(sad.sum() * 100)) & 0xFFFFFFF:07x}"


if __name__ == "__main__":
    t0 = time.perf_counter()
    out = work()
    print(out, repr(time.perf_counter() - t0))
    sys.exit(0 if out == CHECKSUM else 1)
