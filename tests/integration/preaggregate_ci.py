"""The pre-aggregation property of ``tests/integration/test_preaggregate.py``
at four times tier-1's examples.

Tier-1 does not collect this file (its name does not start with
``test_``); CI's fixed-seed "SQL oracle and batch parity suites" step
names it::

    PYTHONPATH=src python -m pytest -q --hypothesis-seed=2009 \\
        tests/integration/preaggregate_ci.py
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from tests.integration.test_preaggregate import (
    EXAMPLES,
    SHAPES,
    _READS,
    cancelling_feeds,
    check_windows_fold_as_rows_do,
)


@pytest.mark.parametrize("shape", sorted(SHAPES))
@settings(max_examples=4 * EXAMPLES, deadline=None)
@given(data=st.data())
def test_windows_fold_as_rows_do_at_four_times_the_examples(shape, data):
    check_windows_fold_as_rows_do(shape, data.draw(cancelling_feeds(_READS[shape])))
