"""Layer wrappers for every process of a traced ``serve`` measurement.

The benchmark starts the traced daemon with this directory and
``perfbench/`` on ``PYTHONPATH`` and ``PERFBENCH_LAYERS=1``; Python
imports this module at start-up in the daemon and in each worker it
spawns, which installs :mod:`icbebench.layers`' wrappers there.  With
the variable unset it does nothing.
"""

import os

if os.environ.get("PERFBENCH_LAYERS") == "1":
    from icbebench import layers

    layers.install()
