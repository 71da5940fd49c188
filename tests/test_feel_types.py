import pytest

from bproc import StaticType, infer_types, parse_expr
from bproc.errors import TypeConflictError
from bproc.feel.types import join, synthesize
from bproc.inputs import facts_from_expr


def infer(*texts):
    return infer_types(parse_expr(t) for t in texts)


def test_decimal_comparison_gives_double():
    assert infer("v < 3.5") == {"v": StaticType.DOUBLE}


def test_string_equalities_give_string():
    assert infer('p = "yes"', 'p = "no"') == {"p": StaticType.STRING}


def test_empty_set_gives_empty_map():
    assert infer_types([]) == {}


def test_integer_joined_with_double_is_double():
    assert infer("v > 9", "v <= 9.0") == {"v": StaticType.DOUBLE}
    # order independent
    assert infer("v <= 9.0", "v > 9") == {"v": StaticType.DOUBLE}


def test_untouched_variable_is_unknown():
    types = infer("x + y > 0")
    assert types["x"] is StaticType.UNKNOWN
    assert types["y"] is StaticType.UNKNOWN


def test_membership_contributes_types():
    assert infer("v in [1, 2, 3]")["v"] is StaticType.INTEGER
    assert infer("v in [1..5]")["v"] is StaticType.INTEGER
    assert infer('p in ["a", "b"]')["p"] is StaticType.STRING


@pytest.mark.parametrize("text", ["x in [true..true]", "x in [1, 1/0]"])
def test_a_container_that_always_raises_gives_no_type(text):
    # type evidence reads the whole list or range, as domain inference does:
    # one that raises at every evaluation types nothing and is an opaque fact
    assert infer(text) == {"x": StaticType.UNKNOWN}
    assert [fact.kind for _, fact in facts_from_expr(parse_expr(text), {"x"})] == ["other"]


def test_a_container_that_reads_a_name_types_by_its_constant_elements():
    assert infer("x in [1, y]") == {"x": StaticType.INTEGER, "y": StaticType.UNKNOWN}
    assert infer("x in [1, y, 1/0]")["x"] is StaticType.INTEGER


def test_conflict_between_string_and_number():
    with pytest.raises(TypeConflictError):
        infer('v = "yes"', "v < 3")


def test_join_lattice():
    assert join(StaticType.UNKNOWN, StaticType.INTEGER) is StaticType.INTEGER
    assert join(StaticType.INTEGER, StaticType.DOUBLE) is StaticType.DOUBLE
    assert join(StaticType.DOUBLE, StaticType.INTEGER) is StaticType.DOUBLE
    with pytest.raises(TypeConflictError):
        join(StaticType.BOOLEAN, StaticType.STRING)


def test_synthesize_expression_types():
    env = {"n": StaticType.INTEGER, "x": StaticType.DOUBLE, "s": StaticType.STRING}
    assert synthesize(parse_expr("n + 1"), env) is StaticType.INTEGER
    assert synthesize(parse_expr("n + x"), env) is StaticType.DOUBLE
    assert synthesize(parse_expr("n / 2"), env) is StaticType.DOUBLE
    assert synthesize(parse_expr('s + "!"'), env) is StaticType.STRING
    assert synthesize(parse_expr("n > 1"), env) is StaticType.BOOLEAN
    assert synthesize(parse_expr("floor(x)"), env) is StaticType.INTEGER
    assert synthesize(parse_expr("true"), env) is StaticType.BOOLEAN
