# eires-fixture: place=cache/rogue_iter.py
"""Iterates a set and a set comprehension in decision code — D3 flags."""


def pick_victims(utilities: dict, resident: list) -> list:
    victims = [key for key in set(resident)]
    for key in {key for key, utility in utilities.items() if utility <= 0}:
        victims.append(key)
    return victims
