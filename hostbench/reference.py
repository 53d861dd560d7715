"""A fixed interpreter-bound loop that gauges how fast the host runs now.

The benchmark's host shares its cores with other tenants, and their load
moves the speed of Python code by up to ~1.6x for minutes at a time.
Timing this loop next to every measured unit lets :mod:`run` report
times normalised to a nominal host speed.  The loop imports nothing from
the simulator, so no change under ``src/`` can move it.

Its working set (tens of thousands of slotted objects reached through
random pointers) is what makes it track the simulator: a loop over a
few hundred objects stays in cache and slows down markedly more than
the simulator does under the same neighbour load.  The loop lives in a
helper process, so its memory and objects stay out of the measured
process's resident size and garbage collections; the measured process
waits while it runs, so the two never compete for the host.

The helper is this file run as a script, answering one line per request
over its standard streams.  It is a plain subprocess, not a
``multiprocessing`` one, so no resource-tracker process is started that
could outlive the run; :class:`Reference` waits for it to exit.
"""

from __future__ import annotations

import heapq
import random
import select
import subprocess
import sys
from collections import deque
from time import perf_counter
from typing import List

#: Median seconds of one loop on the host the benchmark was tuned on, in
#: its faster state.  Normalised times are raw times scaled by
#: ``NOMINAL_S / measured``; the constant only sets the scale, and must
#: not change once results are recorded.
NOMINAL_S = 0.045

PORTS = 50000
EVENTS = 20000

#: Seconds to wait for the helper to answer or to exit.
TIMEOUT_S = 60.0


class _Port:
    __slots__ = ("queue", "peers", "served", "table")

    def __init__(self) -> None:
        self.queue: deque = deque()
        self.peers: List["_Port"] = []
        self.served = 0
        self.table: dict = {}


def _build() -> List[_Port]:
    rng = random.Random(20170624)
    ports = [_Port() for _ in range(PORTS)]
    for port in ports:
        port.peers = [ports[rng.randrange(PORTS)] for _ in range(4)]
    return ports


def _loop(ports: List[_Port]) -> float:
    """One small discrete-event run over the ports; returns its seconds."""
    start = perf_counter()
    heap = [(i, i, ports[(i * 7919) % PORTS]) for i in range(4096)]
    heapq.heapify(heap)
    seq = len(heap)
    for _ in range(EVENTS):
        time, _seq, port = heapq.heappop(heap)
        port.queue.append(time)
        if len(port.queue) > 4:
            port.queue.popleft()
            port.served += 1
        port.table[time & 7] = seq
        peer = port.peers[(time + seq) & 3]
        heapq.heappush(heap, (time + 1 + (seq * 7919) % 97, seq, peer))
        seq += 1
    return perf_counter() - start


def _serve() -> None:
    """Helper process: build the ports, then time one loop per input line
    until standard input closes."""
    ports = _build()
    _loop(ports)  # every loop visits the same ports; grow them once
    print("ready", flush=True)
    for _line in sys.stdin:
        print(repr(_loop(ports)), flush=True)


class Reference:
    """Context manager owning the helper process that runs the loop."""

    def __enter__(self) -> "Reference":
        # The helper is this file run as a script (see _serve).
        self._process = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )
        try:
            self._receive()  # ready
        except BaseException:
            self.__exit__()
            raise
        return self

    def _receive(self) -> str:
        # One request is in flight at a time, so at most one line is
        # pending and the stream's buffer is empty whenever we wait.
        ready, _, _ = select.select([self._process.stdout], [], [], TIMEOUT_S)
        line = self._process.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError("reference loop helper did not answer")
        return line

    def time(self) -> float:
        """Seconds taken by one loop, run now in the helper."""
        self._process.stdin.write("time\n")
        self._process.stdin.flush()
        return float(self._receive())

    def __exit__(self, *exc) -> None:
        try:
            self._process.stdin.close()  # end of input: the helper exits
        except OSError:
            pass
        try:
            self._process.wait(TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._process.kill()
            self._process.wait()
        self._process.stdout.close()


if __name__ == "__main__":
    _serve()
