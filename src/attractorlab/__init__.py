"""attractorlab: deterministic models of path-dependent intelligence scaling.

Subpackages cover one model family each (``cogmodel`` is imported on use):

* ``dynamics``   - replicator flows and a bistable control-parameter family
                   (fixed points, bifurcation sweeps, hysteresis loops)
* ``netgrowth``  - two-camp growing networks, urn and degree-proportional
                   modes, lock-in estimation, intervention cost
* ``abm``        - evolutionary imitation game on a population topology
* ``cogmodel``   - layered concept graphs with fitness bookkeeping
* ``harness``    - scenario configs, seeded replication, CSV persistence
* ``cli``        - command-line front end
"""

__version__ = "0.1.0"

from . import abm, cli, dynamics, harness, netgrowth, rng  # noqa: F401,E402
