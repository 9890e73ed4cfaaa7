# eires-fixture: place=runtime/assembles_engine.py
"""The composition root builds the engine — the one place A6 allows it."""
from repro.engine.engine import Engine


def build_engine(automaton, clock):
    return Engine(automaton, clock)
