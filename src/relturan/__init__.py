"""Relative Turán densities of ordered graphs: hosts, patterns, solvers.

Each name is imported from its module, such as
``from relturan.hosts import generate_host``; the package binds only the
modules and ``__version__``.

Results come back as immutable records, ``typing.NamedTuple`` classes: read
their fields by name, turn one into a dict with ``_asdict()``, copy one with
changed fields with ``_replace()``.  ``TilingConfig`` and ``Thresholds``
check their values on construction; ``_replace`` and ``_make`` skip those
checks.  A record is a tuple, so it also compares equal to a plain tuple of
the same values.
"""

# bound here because the benchmark harness reads each module as ``relturan.<module>``
from . import core, density, graphio, hosts, lemma_checks, patterns, richness, tiling

__version__ = "0.1.0"
