"""Make tests/helpers.py importable as `helpers` from any test module,
and start every test with cold process-wide TV caches."""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture(autouse=True)
def _cold_tv_caches():
    # Plans and input sets are process-wide: without this, a test sees
    # whatever the tests before it compiled or generated.
    from repro.tv import reset_global_plan_cache, reset_input_cache

    reset_global_plan_cache()
    reset_input_cache()
