"""Actions of counter systems.

An action ``alpha = (r, k)`` is the execution of rule ``r`` in round
``k`` by one automaton (§III-C).  In the *non-probabilistic* counter
system (§III-D) every probabilistic branch of a non-Dirac coin rule is
its own action; we record the chosen branch target in :attr:`branch`.
For Dirac/process rules ``branch`` is ``None``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Action:
    """One rule execution, labelled with its round (and coin branch)."""

    rule: str
    round: int = 0
    branch: Optional[str] = None

    def __str__(self) -> str:
        branch = f"@{self.branch}" if self.branch is not None else ""
        return f"({self.rule}{branch}, {self.round})"
