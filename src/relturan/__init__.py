"""Relative Turán densities of ordered graphs: hosts, patterns, solvers.

Public surface re-exported here; submodules stay importable directly for
the long tail of helpers.

Results come back as immutable records, ``typing.NamedTuple`` classes: read
their fields by name, turn one into a dict with ``_asdict()``, copy one with
changed fields with ``_replace()``.  ``TilingConfig`` and ``Thresholds``
check their values on construction; ``_replace`` and ``_make`` skip those
checks.  A record is a tuple, so it also compares equal to a plain tuple of
the same values.
"""

from .core import (
    HypercubeGraph,
    OrderedGraph,
    delta_int,
    level_block,
    tau,
)
from .density import (
    DensityResult,
    quarter_free_subgraph,
    rho_exact,
    rho_exhaustive,
    rho_local_search,
)
from .graphio import (
    FormatError,
    read_blocked,
    read_hypercube,
    read_ordered,
    write_blocked,
    write_hypercube,
    write_ordered,
)
from .hosts import (
    BlockedGraph,
    BudgetError,
    HostReport,
    complete_hypercube,
    complete_ordered,
    generate_host,
    verify_host,
)
from .lemma_checks import (
    LemmaCheckReport,
    check_binomial_average,
    check_binomial_fraction,
    check_locally_balanced,
    vandermonde_identity_holds,
)
from .patterns import (
    MonotonePathError,
    build_hk,
    contains_ordered,
    embed_into_hk,
    has_monotone_p3,
    interval_chromatic,
    monotone_p3,
    pi_ordered,
    validate_witness,
)
from .richness import (
    ExtractionResult,
    StageFailure,
    Thresholds,
    embed_hk_rich,
    extract_rich_interval,
    rich_levels,
    strip_top_forward,
)
from .tiling import (
    TilingConfig,
    sample_many,
    tiling_guarantee_report,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
