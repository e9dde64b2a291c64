"""attractorlab: deterministic models of path-dependent intelligence scaling.

Submodules cover one model family each; each is imported the first time it
is named (``attractorlab.abm``), so a CLI call runs only what it uses:

* ``dynamics``   - replicator flows and a bistable control-parameter family
                   (fixed points, bifurcation sweeps, hysteresis loops)
* ``netgrowth``  - two-camp growing networks, urn and degree-proportional
                   modes, lock-in estimation, intervention cost
* ``abm``        - evolutionary imitation game on a population topology
* ``cogmodel``   - layered concept graphs (store/recall, reasoning, lift/project)
                   and the fitness of agent minds (evaluate, adapt, bridge, stability)
* ``harness``    - scenario configs, seeded replication, CSV persistence
* ``cli``        - command-line front end
"""

__version__ = "0.1.0"

import os
import sys

# Nothing here calls BLAS, yet numpy's bundled OpenBLAS starts a worker thread
# at import that spins for about 0.1 s of CPU.  One thread starts none; a value
# the user set wins, and once numpy is loaded the setting would come too late.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

_SUBMODULES = ("abm", "cli", "cogmodel", "dynamics", "harness", "netgrowth", "rng")


def __getattr__(name: str):
    if name in _SUBMODULES:
        import importlib

        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
