# eires-fixture: place=strategies/rogue_engine.py
"""An engine hand-built outside the composition root — A6 flags it."""
from repro.engine.engine import Engine


def attach_engine(automaton, clock):
    return Engine(automaton, clock)
