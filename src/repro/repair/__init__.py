"""The interactive data-monitoring framework (Sect. 5 of the paper).

* :mod:`repro.repair.oracle` — user models (the paper simulates feedback by
  "providing the correct values of the given suggestions").
* :mod:`repro.repair.transfix` — procedure TransFix (Fig. 5): fix validated
  attributes by walking the rule dependency graph.
* :mod:`repro.repair.region_search` — CompCRegion (the certain-region
  deduction heuristic of the companion paper, reconstructed) and the GRegion
  greedy baseline of Sect. 6.
* :mod:`repro.repair.suggest` — procedure Suggest (Sect. 5.2): applicable
  rules Σt[Z], rule refinement φ⁺, and new-suggestion computation.
* :mod:`repro.repair.bdd` — the BDD suggestion cache behind Suggest⁺.
* :mod:`repro.repair.certainfix` — algorithm CertainFix / CertainFix⁺
  (Fig. 3): the interactive driver gluing everything together.
* :mod:`repro.repair.batch` — the bulk layer: shared regions and BDD,
  chunked streams, the process pool and run reports.
"""

from repro.repair.batch import (
    BatchRepairEngine,
    BatchReport,
    BatchResult,
    EngineSpec,
    MemoStats,
)
from repro.repair.bdd import SuggestionCache
from repro.repair.certainfix import (
    CertainFix,
    FixSession,
    IncompleteFix,
    RoundLog,
    ValidationFailed,
)
from repro.repair.oracle import (
    CpuBoundOracle,
    LyingUser,
    ScriptedUser,
    SimulatedUser,
)
from repro.repair.region_search import (
    CertainRegionCandidate,
    comp_c_region,
    g_region,
)
from repro.repair.suggest import Suggestion, applicable_rules, suggest
from repro.repair.transfix import MasterConflict, TransFixResult, transfix

__all__ = [
    "BatchRepairEngine",
    "BatchReport",
    "BatchResult",
    "CertainFix",
    "CertainRegionCandidate",
    "CpuBoundOracle",
    "EngineSpec",
    "FixSession",
    "IncompleteFix",
    "LyingUser",
    "MasterConflict",
    "MemoStats",
    "RoundLog",
    "ValidationFailed",
    "ScriptedUser",
    "SimulatedUser",
    "Suggestion",
    "SuggestionCache",
    "TransFixResult",
    "applicable_rules",
    "comp_c_region",
    "g_region",
    "suggest",
    "transfix",
]
