"""Cache management: LRU and cost-based policies, hit history."""

from repro.cache.base import Cache
from repro.cache.cost_based import CostBasedCache
from repro.cache.history import HitHistory
from repro.cache.lru import LRUCache

__all__ = ["Cache", "LRUCache", "CostBasedCache", "HitHistory"]
