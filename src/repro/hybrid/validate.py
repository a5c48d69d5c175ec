"""The hybrid tier's validation entry points, kept under their old home.

The harness itself lives in :mod:`repro.experiments.validate` (one
harness for the flow and hybrid tiers); this module re-exports what
existing callers import from here.
"""

from repro.experiments.validate import TIERS, compare_config

#: hot-rack p50/p99 divergence budget (fraction of the packet value)
DEFAULT_TOLERANCE = TIERS["hybrid"].tolerance

__all__ = ["DEFAULT_TOLERANCE", "compare_config"]
