"""One hypothesis profile for the whole suite: no deadline (the shared test
hosts are slow and noisy), no example database, and derandomized draws, so
every run of the suite checks the same examples."""

from hypothesis import settings

settings.register_profile("qlandauer", deadline=None, database=None, derandomize=True)
settings.load_profile("qlandauer")
