"""How ``paper_*`` times an operation: CPU time, scaled to a reference host speed.

A timed operation is measured on the benchmark thread's CPU clock
(``time.thread_time``; BLAS runs on this thread, see ``run.py``), which
leaves out hypervisor steal and time spent waiting for a CPU.  A shared
VM's vCPU also runs at different speeds from one minute to the next,
with its neighbours' load: on a 2-vCPU KVM guest the same call took
1.0 s for a minute and 1.35 s the next.  So each group of operations is
bracketed by a reference kernel that does the same kind of work, and an
operation's time is scaled by ``REFERENCE_CPU_S`` over the mean of the
kernel's CPU times just before and just after its group.
A scaled time is what the operation would take on a host where the
kernel takes ``REFERENCE_CPU_S``; the kernel is part of the benchmark,
so no change to the program moves it.
"""

from __future__ import annotations

from time import perf_counter, thread_time
from typing import Callable, List, NamedTuple

import numpy as np

#: The unit of a scaled time: the reference kernel's CPU time on the
#: host it is scaled to (about what the kernel of either workload's
#: shape took on a 2-vCPU Intel Xeon KVM guest, OpenBLAS on one thread).
REFERENCE_CPU_S = 0.1


class Sample(NamedTuple):
    """One timed operation: CPU and wall seconds, and the index of the
    reference measurement that opened its group."""

    cpu: float
    wall: float
    group: int


class Reference:
    """The plain forward's work, in numpy only: one GRU-800-shaped and one
    LSTM-1024-shaped layer (the paper widths) run ``steps`` steps over
    ``rows`` rows, each gate as ``x @ W_x.T + h @ W_h.T`` (the product the
    program's cells compute per gate) followed by gate activations.  The
    same kind of BLAS calls on the same shapes and per-layer working set
    (31 and 67 MB), so a host that runs the program slower runs this
    slower too.  Weights and inputs come from a fixed seed, never the
    workload's."""

    def __init__(self, rows: int, steps: int) -> None:
        rng = np.random.default_rng(12345)
        self.layers = []
        for width, gates in ((800, 3), (1024, 4)):
            weights = [tuple(rng.standard_normal((width, width)) / np.sqrt(width)
                             for _ in range(2)) for _ in range(gates)]
            self.layers.append((weights, rng.standard_normal((steps, rows, width))))

    def run(self) -> None:
        for weights, inputs in self.layers:
            h = np.zeros_like(inputs[0])
            for x in inputs:
                pre = [x @ w_x.T + h @ w_h.T for w_x, w_h in weights]
                h = np.tanh(pre[0]) / (1.0 + np.exp(-pre[1]))

    def measure(self) -> float:
        """CPU seconds of one run of the kernel."""
        start = thread_time()
        self.run()
        return thread_time() - start


class Clock:
    """Times operations in groups, with the reference kernel run between
    groups.  Call :meth:`close_group` after every group, the last too."""

    def __init__(self, reference: Reference) -> None:
        self.reference = reference
        self.references: List[float] = [reference.measure()]

    @property
    def group(self) -> int:
        return len(self.references) - 1

    def time(self, samples: List[Sample], fn: Callable, *args):
        """Run ``fn(*args)``, append its :class:`Sample`, return its result."""
        cpu, wall = thread_time(), perf_counter()
        out = fn(*args)
        samples.append(Sample(thread_time() - cpu, perf_counter() - wall, self.group))
        return out

    def close_group(self) -> None:
        self.references.append(self.reference.measure())

    def scale(self, group: int) -> float:
        """Host speed around ``group``, relative to the calibration host."""
        around = self.references[group] + self.references[group + 1]
        return 2.0 * REFERENCE_CPU_S / around

    def scaled(self, samples: List[Sample]) -> List[float]:
        """The samples' CPU seconds at the calibration host's speed."""
        return [s.cpu * self.scale(s.group) for s in samples]
