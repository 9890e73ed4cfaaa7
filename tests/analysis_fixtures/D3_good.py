# eires-fixture: place=cache/clean_iter.py
"""sorted(...) around sets keeps decision order off the hash salt; dict
views iterate in insertion order and need no wrapper."""


def pick_victims(utilities: dict, resident: list) -> list:
    victims = [key for key in sorted(set(resident))]
    for key, utility in utilities.items():
        if utility <= 0:
            victims.append(key)
    return victims
