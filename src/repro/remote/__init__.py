"""Remote-data substrate: elements, store, transport, batching, faults, health monitoring."""

from repro.remote.batching import DISABLED_BATCHING, BatchPolicy
from repro.remote.element import DataElement, DataKey
from repro.remote.faults import (
    FAULT_PROFILES,
    CompositeFaults,
    DropFaults,
    ErrorBurstFaults,
    FaultDecision,
    FaultModel,
    LatencySpikeFaults,
    NoFaults,
    PerSourceFaults,
    TransientErrorFaults,
    make_fault_model,
)
from repro.remote.monitor import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    BreakerBoard,
    CircuitBreaker,
    FailureWindow,
    LatencyMonitor,
)
from repro.remote.retry import RetryPolicy
from repro.remote.store import MISSING_VALUE, RemoteStore
from repro.remote.transport import (
    MODE_ASYNC,
    MODE_BLOCKING,
    FetchRequest,
    FetchTicket,
    FixedLatency,
    LatencyModel,
    PerSourceLatency,
    Transport,
    UniformLatency,
)

__all__ = [
    "DataElement",
    "DataKey",
    "RemoteStore",
    "MISSING_VALUE",
    "LatencyMonitor",
    "FailureWindow",
    "CircuitBreaker",
    "BreakerBoard",
    "BREAKER_CLOSED",
    "BREAKER_OPEN",
    "BREAKER_HALF_OPEN",
    "RetryPolicy",
    "FaultModel",
    "FaultDecision",
    "NoFaults",
    "DropFaults",
    "TransientErrorFaults",
    "LatencySpikeFaults",
    "ErrorBurstFaults",
    "PerSourceFaults",
    "CompositeFaults",
    "FAULT_PROFILES",
    "make_fault_model",
    "LatencyModel",
    "FixedLatency",
    "UniformLatency",
    "PerSourceLatency",
    "FetchRequest",
    "FetchTicket",
    "MODE_BLOCKING",
    "MODE_ASYNC",
    "BatchPolicy",
    "DISABLED_BATCHING",
    "Transport",
]
