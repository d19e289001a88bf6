"""A fixed reference load: interpreter start, numpy import, integer
table arithmetic and a Python loop, like a small glab command.

perfbench/run.py times it between glab commands to follow the speed
of the machine, which drifts with other tenants' load. It never
changes with glab, so its time measures only the machine.
"""

import numpy as np

a = np.arange(512, dtype=np.int64)
acc = 0
for k in range(12):
    acc += int(((a[:, None] * (a[None, :] + k)) % 7).sum())
for i in range(150_000):
    acc += i * i % 7
