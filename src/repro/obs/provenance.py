"""Fix provenance: which rule and which master tuple produced a correction.

The paper's certain-fix guarantee is *per cell*: every value TransFix
writes is entailed by one editing rule firing against one matching master
tuple.  Guided Data Repair and weighted rule discovery (PAPERS.md) both
rank and audit fixes by exactly this attribution.  Every round of
:class:`~repro.repair.certainfix.CertainFix` keeps it by reference — each
applied rule's position in Σ and the master row it matched
(``RoundLog.applied`` and ``RoundLog.rule_indices``) — and builds one
:class:`FixProvenance` per corrected cell only when ``RoundLog.provenance``
is read.  The references travel inside sessions across the process-pool
boundary, and the records surface in two places:

* :attr:`BatchResult.provenance <repro.repair.batch.BatchResult.provenance>`
  — per session, ``{attr: FixProvenance}`` for every rule-fixed cell;
* ``BatchReport.to_dict()["fixes_by_rule"]`` — the aggregate count of
  cells each rule fixed across the run, counted from the references.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class FixProvenance:
    """Attribution of one rule-produced cell correction.

    ``master_key`` is the probe key ``tm[Xm]`` of the master tuple the rule
    matched — together with ``rule_index`` (position in Σ) it identifies
    the exact evidence behind the fix, which is what an auditor (or a
    GDR-style ranking loop) needs to replay or dispute it.
    """

    attr: str
    value: object
    rule_name: str
    rule_index: int
    master_key: tuple
    round_index: int = 0

    def describe(self) -> str:
        return (
            f"{self.attr} := {self.value!r} via rule "
            f"#{self.rule_index} ({self.rule_name}) on master key "
            f"{self.master_key!r} (round {self.round_index})"
        )


def session_provenance(session) -> dict:
    """``{attr: FixProvenance}`` for one fix session (last write wins).

    Rounds are replayed in order, so a cell corrected twice (possible when
    a later round re-validates through a different rule chain) reports the
    provenance of the value that actually survived.
    """
    out: dict = {}
    for round_log in session.rounds:
        for record in round_log.provenance:
            out[record.attr] = record
    return out


def count_fixes_by_rule(sessions) -> dict:
    """``{rule_name: fixed-cell count}`` across *sessions* (report rollup),
    counted from the rounds' rule applications without building records."""
    out: dict = {}
    for session in sessions:
        for round_log in session.rounds:
            for rule, _ in round_log.applied:
                out[rule.name] = out.get(rule.name, 0) + 1
    return out
