"""Run `mbc gen -n 7 --allow-long -o -` in a child process and check its
output against the recorded SHA-256, without keeping the 6.4 GB file.

    python3 tests/n7_digest.py [--tmpdir DIR]

The child's stdout is hashed as it streams.  The script prints the wall
time, the child's peak RSS, the most bytes the child held at once in open
regular files (its temporary spill file; read from /proc, so Linux only,
and sampled twice a second), those bytes per collection line of the
output, which reads off the size of a spilled row, and whether the
digest equals the recorded one.  `--tmpdir` sets the child's TMPDIR,
where the spill file goes.
The full n = 7 run takes minutes, so pytest does not collect this file.
Exits 0 when the child exits 0 and the digest matches.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import resource
import stat
import subprocess
import sys
import threading
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# sha256 of the whole `mbc gen -n 7` output, header included
RECORDED = "29f9832ba1e796f20a1b643097555b0b0c8e9974c21a2960805d17a1a6b67a2d"


def _open_file_bytes(pid: int) -> int | None:
    """The total size of the regular files the process holds open, or None
    where /proc cannot tell."""
    total = 0
    try:
        fds = os.listdir(f"/proc/{pid}/fd")
    except OSError:
        return None
    for fd in fds:
        try:
            info = os.stat(f"/proc/{pid}/fd/{fd}")
        except OSError:
            continue
        if stat.S_ISREG(info.st_mode):
            total += info.st_size
    return total


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tmpdir", help="TMPDIR of the child")
    args = parser.parse_args()
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    if args.tmpdir:
        env["TMPDIR"] = args.tmpdir
    command = [sys.executable, "-m", "mbc.cli", "gen", "-n", "7",
               "--allow-long", "-o", "-"]
    digest = hashlib.sha256()
    size = lines = 0
    peak_file = [None]
    start = time.monotonic()
    child = subprocess.Popen(command, stdout=subprocess.PIPE, env=env)
    done = threading.Event()

    def sample():
        while not done.wait(0.5):
            held = _open_file_bytes(child.pid)
            if held is not None:
                peak_file[0] = max(peak_file[0] or 0, held)

    sampler = threading.Thread(target=sample, daemon=True)
    sampler.start()
    while chunk := child.stdout.read(1 << 20):
        digest.update(chunk)
        size += len(chunk)
        lines += chunk.count(b"\n")
    code = child.wait()
    done.set()
    sampler.join()
    wall = time.monotonic() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    got = digest.hexdigest()
    print(f"command: {' '.join(command[1:])}")
    print(f"exit code: {code}")
    print(f"wall: {wall:.1f} s")
    print(f"child peak RSS: {peak_rss_mb:.1f} MB")
    held = "not sampled" if peak_file[0] is None else f"{peak_file[0]:,} bytes"
    print(f"temporary bytes on disk, at most: {held}")
    if peak_file[0] is not None and lines > 1:
        # the header is no collection, so it is not counted
        print(f"temporary bytes per collection line, at most: {peak_file[0] / (lines - 1):.2f}")
    print(f"output: {size:,} bytes, {lines:,} lines")
    print(f"sha256: {got}")
    matches = got == RECORDED
    print(f"matches the recorded digest: {'yes' if matches else 'NO'}")
    return code or (not matches)


if __name__ == "__main__":
    sys.exit(main())
