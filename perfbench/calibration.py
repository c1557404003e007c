"""Fixed work in which no spcelab code takes part: the harness times it in a
fresh interpreter before the first command of a round and after each command,
to measure how fast the shared host runs at that moment (see "Host speed" in
README.md).

It mixes what the commands do: interpreter start-up, the numpy import, numpy
array work and JSON text.  Nothing here may change once a baseline has been
measured, or calibrated figures stop being comparable.
"""

import json

import numpy as np

x = np.random.default_rng(0).random(100_000)
for _ in range(5):
    np.sort(x)
    json.loads(json.dumps([{"i": i, "v": v} for i, v in enumerate(x[:10_000].tolist())]))
