import tracemalloc

import hypothesis
import pytest

# BLAS-heavy examples can blow hypothesis' default per-example deadline on
# loaded CI machines; wall-clock limits live in the acceptance tests instead.
hypothesis.settings.register_profile(
    "fdridge", deadline=None, derandomize=True,
    suppress_health_check=[hypothesis.HealthCheck.too_slow],
)
hypothesis.settings.load_profile("fdridge")


@pytest.fixture
def traced_peak():
    """``run(fn, *args)`` calls fn under tracemalloc and returns its result
    with the peak bytes traced above the level at entry.  numpy reports
    its array allocations to tracemalloc, so this is the call's scratch
    space plus whatever it returns."""
    def run(fn, *args):
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            result = fn(*args)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        return result, peak
    return run
