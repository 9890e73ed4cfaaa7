"""CEP engine: evaluation step, strategy interface, cost model."""

from repro.engine.engine import GREEDY, NON_GREEDY, Engine
from repro.engine.interface import (
    ENGINE_COUNTER_KEYS,
    POSTPONED,
    CostModel,
    MatchRecord,
    StrategyProtocol,
)

__all__ = [
    "Engine",
    "GREEDY",
    "NON_GREEDY",
    "POSTPONED",
    "CostModel",
    "ENGINE_COUNTER_KEYS",
    "MatchRecord",
    "StrategyProtocol",
]
