"""Reference kernels: fixed work that does not touch qfselect, timed between
jobs so that the host's speed at that moment can be divided out.

The machine the baseline was taken on is a 2-vCPU VM on a shared host.
Its speed moves by up to 1.5x for tens of seconds at a time, with almost
no steal time: the same code simply runs slower, in user time as much as
in wall time.  A workload's time divided by the time of a kernel that
does the same kind of work, measured in the same seconds, keeps what the
program costs and drops most of what the host was doing.

Each kernel does the kind of work that dominates the workloads that use
it, written here from scratch so that a change to qfselect cannot move
it:

- `compute`: a pure-Python loop and a small dense hinge-loss descent in
  NumPy, like the per-mask SVM fits of the wine workloads and the Python
  protocol code on both ends of the external evaluator;
- `statevector`: 2x2 complex updates and a squared-modulus sum over a
  fresh 2^18 complex128 vector, like the n=20 simulator.

`sample()` runs the kernel once and returns its wall seconds.
"""

from __future__ import annotations

import time

import numpy as np


class ComputeKernel:
    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self.features = rng.normal(size=(142, 9))
        labels = rng.integers(0, 3, size=142)
        self.targets = np.where(labels[:, None] == np.arange(3)[None, :], 1.0, -1.0)

    def sample(self) -> float:
        start = time.perf_counter()
        total = 0
        for i in range(20000):
            total += i * i % 7
        weights = np.zeros((3, self.features.shape[1]))
        for t in range(1, 41):
            margins = self.targets * (self.features @ weights.T)
            active = np.where(margins < 1.0, self.targets, 0.0)
            weights -= (weights - active.T @ self.features / len(self.features)) / t
        return time.perf_counter() - start


class StatevectorKernel:
    """Allocates a fresh state on every sample, as the simulator does: a
    kernel that reused its buffers tracked the simulator less closely.
    The state is 4 MiB, not the simulator's 16 MiB, so that the kernel's
    transient memory stays below the program's peak resident set, which
    `peak_rss_mb` must keep reporting."""

    QUBITS = 18

    def __init__(self) -> None:
        half = np.sqrt(0.5)
        self.gate = np.array([[half, -1j * half], [-1j * half, half]])

    def sample(self) -> float:
        start = time.perf_counter()
        state = np.full(1 << self.QUBITS, 2.0 ** (-self.QUBITS / 2), dtype=complex)
        for qubit in (0, self.QUBITS // 2, self.QUBITS - 1):
            view = state.reshape(-1, 2, 1 << qubit)
            view[:] = np.einsum("ab,ibj->iaj", self.gate, view)
        float(np.sum(np.abs(state) ** 2))
        return time.perf_counter() - start


KERNELS = {
    "compute": ComputeKernel,
    "statevector": StatevectorKernel,
}


# A burst after each job runs the kernel for this share of the job's wall
# time, and at least BURST_MIN_SAMPLES times.
BURST_SHARE = 0.05
BURST_MIN_SAMPLES = 3


class Calibrator:
    """Runs a kernel in bursts between jobs and gives each job its reference time.

    A job's reference time is the mean kernel sample of the bursts just
    before and just after it, so it covers the same stretch of host load
    as the job.  The mean, not the median, because a job's time adds up
    its fast and slow stretches the same way.
    """

    def __init__(self, kernel_name: str) -> None:
        self.kernel = KERNELS[kernel_name]()
        self.previous: list[float] = []
        self.samples = 0

    def burst(self, budget_s: float) -> list[float]:
        times: list[float] = []
        while len(times) < BURST_MIN_SAMPLES or sum(times) < budget_s:
            times.append(self.kernel.sample())
        self.samples += len(times)
        return times

    def start(self) -> None:
        """One dropped warm-up sample, then the burst before the first job."""
        self.kernel.sample()
        self.previous = self.burst(0.0)

    def after(self, job) -> None:
        following = self.burst(BURST_SHARE * job.wall_s)
        around = self.previous + following
        job.ref_s = sum(around) / len(around)
        self.previous = following
