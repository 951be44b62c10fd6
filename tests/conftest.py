import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # Fixed examples and no example database: every run checks the same cases.
    settings.register_profile("deterministic", derandomize=True, database=None)
    settings.load_profile("deterministic")
