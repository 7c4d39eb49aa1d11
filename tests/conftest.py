"""Settings every test module shares."""

from hypothesis import settings

# property tests replay the same examples on every run and machine: derandomized,
# no example database, and no deadline, which a slow runner would miss
settings.register_profile("metriclab", max_examples=40, deadline=None, derandomize=True, database=None)
settings.load_profile("metriclab")
