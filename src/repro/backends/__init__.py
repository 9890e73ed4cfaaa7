"""Evaluation backends: pluggable engines behind the :class:`EvalBackend` interface.

Importing this package populates the registry with the ``reference`` and
``tree`` backends.
"""

from __future__ import annotations

from repro.backends.base import (
    BackendCapabilities,
    BackendCapabilityError,
    BackendListing,
    EvalBackend,
    backend_names,
    get_backend,
    list_backends,
    make_backend,
    register_backend,
    resolve_backend,
)
from repro.backends.reference import ReferenceBackend
from repro.backends.tree import TreeBackend

__all__ = [
    "BackendCapabilities",
    "BackendCapabilityError",
    "BackendListing",
    "EvalBackend",
    "ReferenceBackend",
    "TreeBackend",
    "backend_names",
    "get_backend",
    "list_backends",
    "make_backend",
    "register_backend",
    "resolve_backend",
]
