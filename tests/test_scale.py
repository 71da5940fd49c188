"""`tools/scale.py`: every shape builds a model that runs, and a sweep
prints each phase's cost per unit and fitted exponent, at tiny sizes."""

import math

import pytest

from conftest import load_tool

scale = load_tool("scale")


@pytest.mark.parametrize("shape", list(scale.SHAPES))
def test_each_shape_runs_to_success_at_a_tiny_size(shape):
    point = scale.measure(shape, 2)
    assert point["status"] == "success"
    assert all(point[phase] > 0 for phase in scale.PHASES)


def test_a_sweep_gives_a_row_per_phase():
    # three fresh processes, one per size
    rows = [[cell.strip() for cell in line.split("|")[1:-1]]
            for line in scale.sweep("gateway", 2, 1)]
    assert [row[:2] for row in rows] == [["gateway", phase] for phase in scale.PHASES]
    for row in rows:
        assert all(float(cell) > 0 for cell in row[2:5])
        assert math.isfinite(float(row[5]))  # the exponent
        assert row[6] == "success"


def test_the_exponent_is_the_slope_of_log_time_on_log_size():
    sizes = [10, 40, 160]
    assert scale.exponent(sizes, [1.0, 4.0, 16.0]) == pytest.approx(1.0)
    assert scale.exponent(sizes, [2.0, 2.0, 2.0]) == pytest.approx(0.0)
    assert scale.exponent(sizes, [1.0, 16.0, 256.0]) == pytest.approx(2.0)
