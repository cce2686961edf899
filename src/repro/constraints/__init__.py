"""Constraint substrate: FDs, CFDs and the IncRep repair baseline.

The paper's Example 1 motivates editing rules by contrasting them with
conditional functional dependencies (CFDs [19]), and its evaluation compares
against ``IncRep``, the CFD-based heuristic repair algorithm of Cong et al.
(VLDB 2007 [14]).  This subpackage implements that substrate from scratch:

* :mod:`repro.constraints.fd` — classical functional dependencies;
* :mod:`repro.constraints.cfd` — CFDs with pattern tableaux, constant and
  variable, plus violation detection;
* :mod:`repro.constraints.distance` — edit distance and the cost model;
* :mod:`repro.constraints.increp` — the cost-based value-modification
  repair, reconstructed for per-tuple repair against master data (the
  paper only cites [14]; see that module for what is kept and why).
"""

from repro.constraints.cfd import CFD, cfds_from_rules, tuple_violations
from repro.constraints.distance import levenshtein, normalized_distance
from repro.constraints.fd import FD
from repro.constraints.increp import IncRep, RepairResult

__all__ = [
    "CFD",
    "FD",
    "IncRep",
    "RepairResult",
    "cfds_from_rules",
    "levenshtein",
    "normalized_distance",
    "tuple_violations",
]
