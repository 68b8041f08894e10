"""Settings shared by every test module.

One hypothesis profile serves all properties: examples are derived from
each test's source (``derandomize``), no example database is read or
written, and there is no per-example deadline, so every run draws the
same examples and a slow host cannot fail a property.  Each property
sets only its own ``max_examples``.
"""

from hypothesis import settings

settings.register_profile("matsep", derandomize=True, database=None, deadline=None)
settings.load_profile("matsep")
