"""The benchmark workloads, each run through nplabel's public API.

A workload has three parts:

* ``build(seed, rep)`` makes the inputs of repetition ``rep`` from the seed,
  outside the timed region.  The same (seed, rep) always gives the same
  inputs; seeded workloads draw a fresh member of the seed's input stream for
  every repetition, so a run's median covers several inputs.
* ``run(inputs)`` does the workload's fixed work once; this is the timed
  region.  It calls the library through module attributes looked up at call
  time, so the tracer's wrappers see every call.
* ``check(inputs, output)`` verifies the program's output, outside the timed
  region, and returns ``(attempted, failed, counters)``.

``targets`` lists the dotted names the traced run wraps; every one of them
must be called during the workload (see ``tracing.py``).

Each workload lives in its own module, which imports only the nplabel
modules it uses.  This module imports no part of nplabel, so that a set-up
probe (``setup_probe.py``) times the program's imports and not the harness.

Every workload is a closed loop with one caller, single process (jobs=1).
"""

import importlib
from collections import namedtuple

Workload = namedtuple("Workload", "name build run check targets")

# Workload name -> module that defines it.
MODULES = {"tree-scan": "tree_scan", "family-label": "family_label"}


def load(name, scratch):
    """Import the workload's module, and with it the nplabel modules it uses,
    and return its Workload; ``scratch`` is a directory it may write to."""
    return importlib.import_module(MODULES[name]).workload(scratch)
