import math
import random
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from bproc import StaticType, parse_expr, runtime
from bproc.errors import DomainMismatchError, InputsParseError, MissingOverrideError
from bproc.inputs import (BallDomain, EnumDomain, InputSpec, RangeDomain,
                          UnhandledDomain, facts_from_expr, infer_domains,
                          parse_inputs_file, render_domain, sample_domain, sampler,
                          write_inputs_file)


def domains_of(texts, input_vars):
    facts = []
    for text in texts:
        facts.extend(facts_from_expr(parse_expr(text), set(input_vars)))
    return infer_domains(set(input_vars), facts)


def test_equality_only_gives_enum():
    domains, _ = domains_of(['p = "yes"', 'p = "no"'], {"p"})
    assert domains["p"] == EnumDomain(("no", "yes"))


def test_cross_variable_comparison_is_unhandled():
    domains, _ = domains_of(["w > 0", "w < abs(v)"], {"w", "v"})
    assert isinstance(domains["w"], UnhandledDomain)
    assert any("abs(v)" in s for s in domains["w"].sources)
    # v only appears on the far side of w's comparison: no evidence at all
    assert domains["v"] == UnhandledDomain(())


def test_two_sided_comparisons_give_range():
    domains, _ = domains_of(["v > 11", "v <= 50"], {"v"})
    assert domains["v"] == RangeDomain(11, 50, lo_incl=False, hi_incl=True)


def test_single_constant_comparison_gives_ball():
    domains, _ = domains_of(["v <= 9"], {"v"})
    assert domains["v"] == BallDomain(9)
    domains, _ = domains_of(["v > 9", "v <= 9"], {"v"})
    assert domains["v"] == BallDomain(9)


def test_membership_facts():
    domains, _ = domains_of(["v in [1, 3, 5]"], {"v"})
    assert domains["v"] == EnumDomain((1, 3, 5))
    domains, _ = domains_of(["v in [11..50)"], {"v"})
    assert domains["v"] == RangeDomain(11, 50, True, False)


def test_disjoint_ranges_collapse_to_hull_with_diagnostic():
    domains, diags = domains_of(["v in [0..5]", "v in [10..20]"], {"v"})
    assert domains["v"] == RangeDomain(0, 20, True, True)
    assert any("convex hull" in d for d in diags)


def test_order_independence():
    texts = ["v > 11", "v <= 50", 'p = "a"', 'p = "b"', "w < abs(v)"]
    for shuffled in (texts, texts[::-1], texts[2:] + texts[:2]):
        domains, _ = domains_of(shuffled, {"v", "p", "w"})
        assert domains["v"] == RangeDomain(11, 50, False, True)
        assert domains["p"] == EnumDomain(("a", "b"))
        assert isinstance(domains["w"], UnhandledDomain)


# --- inputs file ----------------------------------------------------------------

SPECS = [
    InputSpec("pType", StaticType.STRING, EnumDomain(("no", "yes")), "yes"),
    InputSpec("pWeight", StaticType.DOUBLE, BallDomain(9), 12.5),
    InputSpec("amount", StaticType.INTEGER, RangeDomain(11, 50, False, True), 50),
    InputSpec("w", StaticType.DOUBLE, UnhandledDomain(("w < abs(v)", "w > 0")), 0.0),
]


def test_file_round_trip(tmp_path):
    path = tmp_path / "model.inputs"
    overrides = {"w": [1.5, 2.0, 30.0]}
    write_inputs_file(path, SPECS, overrides)
    parsed = parse_inputs_file(path)
    assert parsed.specs == SPECS
    assert parsed.overrides == overrides
    # a second round trip is byte-identical
    path2 = tmp_path / "again.inputs"
    write_inputs_file(path2, parsed.specs, parsed.overrides)
    assert path.read_text() == path2.read_text()


def test_domain_rendering():
    assert render_domain(EnumDomain(("a", "b"))) == 'ENUM("a","b")'
    assert render_domain(BallDomain(9)) == "BALL(9)"
    assert render_domain(RangeDomain(11, 50, False, True)) == "RANGE((11,50])"
    assert render_domain(UnhandledDomain(("w > 0",))) == "UNHANDLED(w > 0)"


def test_comments_and_blank_lines(tmp_path):
    path = tmp_path / "model.inputs"
    path.write_text("# a comment\n\npType : String : ENUM(\"a\") : \"a\"\n")
    assert len(parse_inputs_file(path).specs) == 1


def test_edited_sample_outside_domain_rejected(tmp_path):
    path = tmp_path / "model.inputs"
    path.write_text("amount : Integer : RANGE((11,50]) : 60\n")
    with pytest.raises(DomainMismatchError):
        parse_inputs_file(path)


def test_parse_error_carries_line_number(tmp_path):
    path = tmp_path / "model.inputs"
    path.write_text("# fine\nnot a valid line\n")
    with pytest.raises(InputsParseError) as exc_info:
        parse_inputs_file(path)
    assert exc_info.value.line_no == 2


@pytest.mark.parametrize("domain, message", [
    ('BALL("a")', "a BALL centre must be a number, not string"),
    ("BALL(null)", "a BALL centre must be a number, not null"),
    ("BALL([1])", "a BALL centre must be a number, not list"),
    ("BALL({a:1})", "a BALL centre must be a number, not context"),
    ('RANGE(["a",10])', "a RANGE bound must be a number, not string"),
    ("RANGE([1,null))", "a RANGE bound must be a number, not null"),
    ("RANGE([1])", "a RANGE has two bounds, not 1"),
    ("RANGE([1,2,3])", "a RANGE has two bounds, not 3"),
    ('RANGE(["a,b"])', "a RANGE has two bounds, not 1"),
    ("RANGE({1,10})", "a RANGE opens with [ or ( and closes with ] or )"),
    ("RANGE()", "a RANGE opens with [ or ( and closes with ] or )"),
])
def test_a_malformed_ball_or_range_is_a_parse_error_at_its_line(tmp_path, domain, message):
    path = tmp_path / "model.inputs"
    path.write_text(f"# fine\nx : Integer : {domain} : 5\n")
    with pytest.raises(InputsParseError) as exc_info:
        parse_inputs_file(path)
    assert exc_info.value.line_no == 2
    assert str(exc_info.value) == f"bad domain {domain!r}: {message} (line 2)"


# --- sampling --------------------------------------------------------------------

def test_enum_sampling_covers_support():
    rng = random.Random(0)
    domain = EnumDomain(("yes", "no"))
    seen = {sample_domain(domain, StaticType.STRING, rng) for _ in range(10_000)}
    assert seen == {"yes", "no"}


def test_integer_range_sampling_respects_open_ends():
    rng = random.Random(1)
    domain = RangeDomain(11, 50, False, True)
    draws = {sample_domain(domain, StaticType.INTEGER, rng) for _ in range(10_000)}
    assert min(draws) == 12
    assert max(draws) == 50


def test_ball_sampling_stays_in_interval():
    rng = random.Random(2)
    domain = BallDomain(9)
    draws = [sample_domain(domain, StaticType.DOUBLE, rng) for _ in range(10_000)]
    assert all(0.0 <= d <= 18.0 for d in draws)
    assert any(d == 9.0 for d in draws)  # center bias
    assert any(d > 17.0 for d in draws) and any(d < 1.0 for d in draws)


def test_unhandled_requires_overrides():
    rng = random.Random(3)
    with pytest.raises(MissingOverrideError):
        sample_domain(UnhandledDomain(()), StaticType.DOUBLE, rng, name="w")
    assert sample_domain(UnhandledDomain(()), StaticType.DOUBLE, rng,
                         overrides=[1.5], name="w") == 1.5


# a half-open empty double range such as (5.0..5.0] is checked in a child
# process (test_cli), where a sampler that never returns cannot hang the suite
@pytest.mark.parametrize("domain, static_type", [
    (RangeDomain(6.0, 5.0), StaticType.DOUBLE),
    (RangeDomain(2, 3, False, False), StaticType.INTEGER),
    (RangeDomain(2.2, 2.8), StaticType.INTEGER),
])
def test_empty_range_is_a_domain_mismatch_naming_the_variable(domain, static_type):
    with pytest.raises(DomainMismatchError) as exc_info:
        sample_domain(domain, static_type, random.Random(4), name="amount")
    assert exc_info.value.name == "amount"
    assert render_domain(domain) in str(exc_info.value)


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_every_sample_validates_against_its_domain(seed):
    rng = random.Random(seed)
    domains = [
        (EnumDomain((1, 2, 9)), StaticType.INTEGER),
        (BallDomain(rng.randint(-20, 20)), StaticType.INTEGER),
        (BallDomain(float(rng.randint(-20, 20))), StaticType.DOUBLE),
        (RangeDomain(0, 10, rng.random() < 0.5, rng.random() < 0.5), StaticType.INTEGER),
        # fractional bounds, as a hand-edited inputs file can give an Integer
        (RangeDomain(2.5, 10, rng.random() < 0.5, rng.random() < 0.5), StaticType.INTEGER),
        (RangeDomain(-10, -2.5, rng.random() < 0.5, rng.random() < 0.5), StaticType.INTEGER),
        (RangeDomain(-0.5, 0.5, False, False), StaticType.INTEGER),
        (RangeDomain(2.5, 3.5), StaticType.INTEGER),  # 3 alone
        (RangeDomain(0.0, 10.0, False, False), StaticType.DOUBLE),
        (RangeDomain(5.0, 5.0), StaticType.DOUBLE),  # a single point, not empty
    ]
    for domain, static_type in domains:
        for _ in range(300):
            assert domain.contains(sample_domain(domain, static_type, rng))


MAX_DOUBLE = sys.float_info.max
# bounds at the edge of the doubles: beyond it, infinite, or an int past it
edge = st.one_of(st.floats(min_value=1.6e308), st.floats(max_value=-1.6e308),
                 st.sampled_from([0, 1.0, -1.0, 10**308, -(10**308), 2 * 10**308,
                                  -2 * 10**308, 10**400]))


def _drawable(domain: RangeDomain, integer: bool) -> bool:
    """Does the range hold a finite double, or an integer within the doubles?
    The least such value lies next to an end or to an end of the doubles."""
    points = []
    for end in (domain.lo, domain.hi, -MAX_DOUBLE, MAX_DOUBLE):
        if end != end:  # NaN
            continue
        if integer and isinstance(end, int):
            points += [end - 1, end, end + 1]
        end = float(max(-MAX_DOUBLE, min(MAX_DOUBLE, end)))
        points += [p for p in (end, math.nextafter(end, math.inf),
                               math.nextafter(end, -math.inf)) if math.isfinite(p)]
    if integer:
        points = [n for p in points for n in (math.floor(p), math.ceil(p))]
    return any(domain.contains(p) and -MAX_DOUBLE <= p <= MAX_DOUBLE for p in points)


@given(edge, edge, st.booleans(), st.booleans(),
       st.sampled_from([StaticType.INTEGER, StaticType.DOUBLE, StaticType.UNKNOWN]),
       st.integers(0, 2**32))
@settings(max_examples=300, deadline=None)
@example(1e308, 1e308, True, True, StaticType.DOUBLE, 0)  # BALL(1e+308), as `x > 1e308` gives
@example(-1.7e308, 1.7e308, True, True, StaticType.DOUBLE, 0)  # a span beyond the doubles
@example(math.inf, math.inf, True, True, StaticType.INTEGER, 0)  # holds no finite double
@example(10**308, 10**308, True, True, StaticType.DOUBLE, 0)  # holds no double at all
@example(0, 1.0, False, False, StaticType.INTEGER, 0)  # holds no integer
def test_draws_near_the_largest_double_are_finite_and_inside(a, b, lo_incl, hi_incl,
                                                             static_type, seed):
    rng = random.Random(seed)
    lo, hi = sorted((a, b))
    ball, interval = BallDomain(a), RangeDomain(lo, hi, lo_incl, hi_incl)
    integer = static_type is StaticType.INTEGER or (
        static_type is StaticType.UNKNOWN and isinstance(lo, int) and isinstance(hi, int))
    for domain, drawable in ((ball, isinstance(a, int) or math.isfinite(a)),
                             (interval, _drawable(interval, integer))):
        try:
            draws = [sample_domain(domain, static_type, rng, name="x") for _ in range(40)]
        except DomainMismatchError as exc:
            assert exc.name == "x"
            assert not drawable, domain
            continue
        for draw in draws:
            assert -MAX_DOUBLE <= draw <= MAX_DOUBLE, (domain, draw)  # also not NaN
            assert domain.contains(draw), (domain, draw)


@pytest.mark.parametrize("domain", [BallDomain(math.inf), BallDomain(-math.inf),
                                    BallDomain(math.nan), RangeDomain(math.inf, math.inf),
                                    RangeDomain(-math.inf, -math.inf),
                                    RangeDomain(math.nan, 1.0), RangeDomain(10**400, 10**401)])
@pytest.mark.parametrize("static_type", [StaticType.INTEGER, StaticType.DOUBLE])
def test_a_domain_without_a_finite_double_is_a_domain_mismatch(domain, static_type):
    with pytest.raises(DomainMismatchError, match="holds no finite double") as exc_info:
        sample_domain(domain, static_type, random.Random(5), name="x")
    assert exc_info.value.name == "x"


# bounds: small, fractional, signed zeros, infinite, NaN, at and past the edge of
# the doubles, and any double at all
any_bound = st.one_of(st.integers(-40, 40), st.floats(-40, 40), st.floats(),
                      st.sampled_from([0.0, -0.0, 2.5, -2.5, math.inf, -math.inf, math.nan,
                                       MAX_DOUBLE, -MAX_DOUBLE, 10**308, -(10**308),
                                       10**400, -(10**400), 5e-324]))
any_value = st.one_of(st.integers(-5, 5), st.floats(), st.text(max_size=2), st.booleans())
any_domain = st.one_of(
    st.builds(EnumDomain, st.lists(any_value, max_size=4).map(tuple)),
    st.builds(RangeDomain, any_bound, any_bound, st.booleans(), st.booleans()),
    st.builds(BallDomain, any_bound),
    st.just(UnhandledDomain(())))
DRAWS = 60  # enough that every branch of a ball draw is taken


def _draws_or_error(draw_all):
    """Each drawn value as (type, repr), which tells 1 from 1.0 and -0.0
    from 0.0, or the class and message of the error raised instead."""
    try:
        return [(type(value), repr(value)) for value in draw_all()]
    except Exception as exc:
        return type(exc), str(exc)


@given(any_domain, st.sampled_from([StaticType.INTEGER, StaticType.DOUBLE, StaticType.UNKNOWN]),
       st.one_of(st.none(), st.lists(any_value, max_size=3)), st.integers(0, 2**32))
@settings(max_examples=500, deadline=None)
@example(RangeDomain(5.0, 5.0, False, True), StaticType.DOUBLE, None, 0)  # empty
@example(RangeDomain(2, 3, False, False), StaticType.INTEGER, None, 0)  # holds no integer
@example(RangeDomain(math.nan, 1.0), StaticType.UNKNOWN, None, 0)
@example(RangeDomain(-math.inf, math.inf), StaticType.DOUBLE, None, 0)
@example(RangeDomain(-0.0, 0.0), StaticType.DOUBLE, None, 0)
@example(RangeDomain(0, 10, False, True), StaticType.UNKNOWN, None, 0)
@example(BallDomain(-0.0), StaticType.DOUBLE, None, 0)
@example(BallDomain(-8.7), StaticType.INTEGER, None, 0)
# a width whose hundredth, (hi - lo) * 0.01, is not (hi - lo) / 100
@example(BallDomain(-37.73220187823949), StaticType.DOUBLE, None, 0)
@example(BallDomain(10**400), StaticType.INTEGER, None, 0)
@example(BallDomain(math.nan), StaticType.DOUBLE, None, 0)
@example(EnumDomain(()), StaticType.UNKNOWN, None, 0)
@example(UnhandledDomain(()), StaticType.DOUBLE, None, 0)
@example(UnhandledDomain(()), StaticType.DOUBLE, [], 0)
@example(UnhandledDomain(()), StaticType.INTEGER, [1, 2.0, -0.0], 0)
def test_samplers_draw_as_the_reference(domain, static_type, overrides, seed):
    # the same values, from the same calls on the generator, or the same error
    rngs = [random.Random(seed) for _ in range(3)]

    def reference():
        return [oracles.reference_sample_domain(domain, static_type, rngs[0], overrides, "x")
                for _ in range(DRAWS)]

    def one_at_a_time():
        return [sample_domain(domain, static_type, rngs[1], overrides, "x")
                for _ in range(DRAWS)]

    def campaign():
        draw = sampler(domain, static_type, overrides, "x")
        return [draw(rngs[2]) for _ in range(DRAWS)]

    want = _draws_or_error(reference)
    assert _draws_or_error(one_at_a_time) == want
    assert _draws_or_error(campaign) == want
    assert rngs[1].getstate() == rngs[0].getstate()
    assert rngs[2].getstate() == rngs[0].getstate()


# strings with the characters that line-based files treat specially
awkward = st.text(alphabet=st.sampled_from(list('ab :",)\\\n\r\t(;=#')), max_size=12)


@given(st.lists(awkward, min_size=1, max_size=3), awkward, st.lists(awkward, max_size=3))
@settings(max_examples=200, deadline=None)
@example(["a : b"], "a : b", [])
@example(["a\nb"], "a\rb", ["\\n"])
def test_every_string_round_trips_through_the_line_based_files(tmp_path_factory, enum,
                                                               sample, override):
    folder = tmp_path_factory.mktemp("awkward")
    specs = [InputSpec("v", StaticType.STRING, EnumDomain(tuple(enum + [sample])), sample),
             InputSpec("w", StaticType.STRING, UnhandledDomain(()), sample)]
    overrides = {"w": override} if override else {}
    path = folder / "model.inputs"
    write_inputs_file(path, specs, overrides)
    parsed = parse_inputs_file(path)
    assert parsed.specs == specs
    assert parsed.overrides == overrides

    summary = runtime.RunSummary(inputs_used={"v": sample, "w": enum[0]}, status="success",
                                 code="", message="", elapsed_s=0.0)
    out = folder / "run_0.out"
    out.write_text(runtime.render_summary_file(summary), encoding="utf-8")
    assert runtime.parse_summary_inputs(out) == {"v": sample, "w": enum[0]}
