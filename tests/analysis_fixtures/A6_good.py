# eires-fixture: place=core/uses_backend_registry.py
"""A backend chosen by name; RuntimeBuilder constructs it via the registry."""
from repro.runtime.session import QuerySpec


def spec_for(query):
    return QuerySpec(query, strategy="Hybrid", backend="tree")
