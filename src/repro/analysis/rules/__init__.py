"""Rule plugins.  Importing this package registers every rule.

Adding a rule: create a module here, subclass
:class:`repro.analysis.core.Rule`, decorate with ``@register``, and import
the module below.  IDs are stable and documented in
``docs/static_analysis.md``.
"""

from repro.analysis.rules import (  # noqa: F401
    architecture,
    determinism,
    metrics,
)
