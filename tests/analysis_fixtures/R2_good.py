# eires-fixture: place=shedding/policy.py
"""Every registered shedding policy name appears in docs/shedding.md."""
SHED_POLICIES = ("none", "events", "runs")
