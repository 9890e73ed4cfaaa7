# eires-fixture: place=shedding/policy.py
"""A shedding policy registered under a name docs/shedding.md never
mentions — R2 must flag the undocumented entry."""
SHED_POLICIES = ("none", "undocumented_policy")
