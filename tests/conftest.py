"""Hypothesis profiles, chosen by the ``HYPOTHESIS_PROFILE`` environment variable.

``default`` is Hypothesis' own budget, what tier-1 runs; ``deep`` runs ten
times the examples, for CI's longer pass over the generated-query suite.  A
test that sets ``max_examples`` itself keeps it under either profile.
"""

import os

from hypothesis import settings

settings.register_profile("default", max_examples=100)
settings.register_profile("deep", max_examples=1000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
