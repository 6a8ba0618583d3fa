"""Property: certified-pure operator pipelines never touch base buffers.

The certificate registry proves purity *statically*; these properties
cross-check it dynamically: for arbitrary data and predicates, running a
certified-pure pipeline under the sanitizer leaves every base column
bit-identical and produces the results numpy computes directly.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SimulationConfig, laptop_machine
from repro.engine import execute
from repro.operators import Aggregate, Fetch, RangePredicate, Scan, Select
from repro.plan import Plan
from repro.storage import LNG, Column

CONFIG = SimulationConfig(machine=laptop_machine(4), data_scale=10.0)

small_ints = st.integers(min_value=-1000, max_value=1000)
arrays = st.lists(small_ints, min_size=1, max_size=200)


def select_count_plan(col: Column, hi: int) -> Plan:
    plan = Plan()
    scan = plan.add(Scan(col))
    sel = plan.add(Select(RangePredicate(hi=hi)), [scan])
    plan.set_outputs([plan.add(Aggregate("count"), [sel])])
    return plan


def fetch_sum_plan(col: Column, hi: int) -> Plan:
    plan = Plan()
    scan = plan.add(Scan(col))
    sel = plan.add(Select(RangePredicate(hi=hi)), [scan])
    fetched = plan.add(Fetch(), [sel, scan])
    plan.set_outputs([plan.add(Aggregate("sum"), [fetched])])
    return plan


@settings(max_examples=25, deadline=None)
@given(values=arrays, hi=small_ints)
def test_select_pipeline_leaves_buffers_bit_identical(values, hi):
    col = Column("v", LNG, np.asarray(values, dtype=np.int64))
    before = col.values.tobytes()
    result = execute(select_count_plan(col, hi), CONFIG, sanitize=True)
    assert col.values.tobytes() == before
    assert result.outputs[0].value == sum(1 for v in values if v <= hi)


@settings(max_examples=25, deadline=None)
@given(values=arrays, hi=small_ints)
def test_fetch_pipeline_leaves_buffers_bit_identical(values, hi):
    col = Column("v", LNG, np.asarray(values, dtype=np.int64))
    before = col.values.tobytes()
    result = execute(fetch_sum_plan(col, hi), CONFIG, sanitize=True)
    assert col.values.tobytes() == before
    expected = int(sum(v for v in values if v <= hi))
    assert result.outputs[0].value == expected
