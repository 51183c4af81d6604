"""Fixed reference kernel that measures how fast the host runs right now.

On a shared host, other tenants' load slows every process on a core by up
to 2x, in stretches of a few seconds to a minute. ``child.py`` times one
pass of this kernel after every workload run, in the same process, and
``run.py`` divides the workload's total time by the kernel's total time
over the same stretch, so a stretch that slows both cancels out while a
change to qpcasim moves only the workload time.

The kernel does not import qpcasim, and its work is fixed: it never depends
on the workload or its seed. Different kinds of work slow by different
amounts under the same load, so it mixes the kinds the workloads are made
of:

- a Python loop over small numpy calls (interpreter bound, like qml_apps);
- a pure-Python arithmetic loop (the interpreter alone);
- small real and mid-sized complex matrix products (BLAS bound, like the
  dense preparation matrices of qram_store);
- a streaming add over arrays larger than the caches (memory bound);
- a random gather over a 16 MiB complex vector (cache and TLB misses, like
  the dense label walk of sv_engine).

It allocates nothing large after its first pass: the cost of fresh
pages depends on the state of the host's memory more than on its CPU load,
so a fresh allocation in every pass made the kernel time drift within a
process by 30% while the workload time did not. Its fixed arrays are
allocated on the first pass, so call it only after peak RSS of the
workload has been read.
"""

from __future__ import annotations

import time

import numpy as np

# Normalised figures are in seconds on a host where one pass takes this long;
# on an unloaded 2-vCPU Xeon VM with one BLAS thread a pass takes about this.
REF_PASS_S = 0.07

_arrays: dict[str, np.ndarray] = {}


def _setup() -> dict[str, np.ndarray]:
    if not _arrays:
        rng = np.random.default_rng(20181025)
        n = 1 << 20
        _arrays.update(
            small=np.ones((512, 16)),
            a=rng.standard_normal((160, 160)),
            b=rng.standard_normal((160, 160)),
            ab=np.empty((160, 160)),
            c=rng.standard_normal((384, 384)) + 1j * rng.standard_normal((384, 384)),
            cc=np.empty((384, 384), dtype=np.complex128),
            x=rng.standard_normal(n),
            y=rng.standard_normal(n),
            z=np.empty(n),
            g=rng.standard_normal(n) + 1j * rng.standard_normal(n),
            gathered=np.empty(n, dtype=np.complex128),
            perm=rng.permutation(n),
        )
    return _arrays


def one_pass() -> float:
    """Run the kernel once and return its wall time in seconds."""
    arr = _setup()
    small, a, b, c = arr["small"], arr["a"], arr["b"], arr["c"]
    start = time.perf_counter()
    total = 0.0
    for j in range(1000):
        row = np.zeros_like(small)
        row[j % 512, :] = small[0] * 1.5
        total += float(np.linalg.norm(row))
    count = 0
    for i in range(100_000):
        count += i * i % 7
    for _ in range(30):
        np.matmul(a, b, out=arr["ab"])
    for _ in range(2):
        np.matmul(c, c, out=arr["cc"])
    for _ in range(6):
        np.add(arr["x"], arr["y"], out=arr["z"])
    np.take(arr["g"], arr["perm"], out=arr["gathered"])
    total += float(np.vdot(arr["gathered"], arr["g"]).real)
    return time.perf_counter() - start
