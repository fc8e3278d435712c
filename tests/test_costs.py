import math

import pytest

from netdesign.costs import (
    Affine,
    BPR,
    Constant,
    Greenshields,
    beckmann_integral,
    cost_from_json,
    cost_to_json,
    derivative,
    evaluate,
    marginal,
    marginal_model,
)
from netdesign.errors import DomainError, FormatError

ALL_MODELS = [
    Constant(3.0),
    Constant(7.0),
    Affine(0.0, 10.0),
    Affine(50.0, 1.0),
    Greenshields(1.0, 1.0, 10.0),
    Greenshields(2.5, 0.8, 6.0),
    BPR(3.0, 10.0, 1.0, 4.0),
    BPR(1.5, 8.0, 0.15, 2.0),
    BPR(2.0, 5.0, 0.5, 1.0),
]


def grid_points(model, n=100):
    if isinstance(model, Greenshields):
        top = model.u * 0.9
    else:
        top = 20.0
    return [top * i / (n - 1) for i in range(n)]


def central_diff(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def test_evaluate_examples():
    assert evaluate(Greenshields(1.0, 1.0, 10.0), 5.0) == pytest.approx(2.0)
    assert evaluate(BPR(3.0, 10.0, 1.0, 4.0), 0.0) == pytest.approx(3.0)
    assert evaluate(Affine(0.0, 10.0), 3.0) == pytest.approx(30.0)
    assert evaluate(Constant(3.0), 123.0) == 3.0


def test_derivative_examples():
    assert derivative(Constant(7.0), 4.2) == 0.0
    assert derivative(Affine(50.0, 1.0), 2.0) == 1.0
    # 0.4 frozen from the central finite difference of the evaluation
    assert derivative(Greenshields(1.0, 1.0, 10.0), 5.0) == pytest.approx(0.4, rel=1e-12)


def test_marginal_examples():
    for model in ALL_MODELS:
        assert marginal(model, 0.0) == pytest.approx(evaluate(model, 0.0))
    assert marginal(Affine(0.0, 10.0), 3.0) == pytest.approx(60.0)
    assert marginal(Greenshields(1.0, 1.0, 10.0), 5.0) == pytest.approx(4.0)


def test_beckmann_examples():
    for model in ALL_MODELS:
        assert beckmann_integral(model, 0.0) == 0.0
    assert beckmann_integral(Affine(50.0, 1.0), 2.0) == pytest.approx(102.0)
    assert beckmann_integral(Greenshields(1.0, 1.0, 10.0), 5.0) == pytest.approx(
        10.0 * math.log(2.0), rel=1e-12)


@pytest.mark.parametrize("model", ALL_MODELS, ids=str)
def test_derivative_matches_finite_difference(model):
    for x in grid_points(model):
        h = 1e-6 * max(1.0, x)
        if x - h < 0:
            continue
        expected = central_diff(lambda t: evaluate(model, t), x, h)
        got = derivative(model, x)
        assert got == pytest.approx(expected, rel=1e-5, abs=1e-8)


@pytest.mark.parametrize("model", ALL_MODELS, ids=str)
def test_beckmann_derivative_matches_evaluate(model):
    for x in grid_points(model):
        h = 1e-6 * max(1.0, x)
        if x - h < 0:
            continue
        expected = central_diff(lambda t: beckmann_integral(model, t), x, h)
        assert evaluate(model, x) == pytest.approx(expected, rel=1e-5, abs=1e-8)


@pytest.mark.parametrize("model", ALL_MODELS, ids=str)
def test_marginal_dominates_cost(model):
    for x in grid_points(model):
        assert marginal(model, x) >= evaluate(model, x) - 1e-12


@pytest.mark.parametrize("model", ALL_MODELS, ids=str)
def test_convex_and_nondecreasing(model):
    pts = grid_points(model, 60)
    values = [evaluate(model, x) for x in pts]
    for a, b in zip(values, values[1:]):
        assert b >= a - 1e-9
    for a, b, c in zip(values, values[1:], values[2:]):
        assert a + c - 2 * b >= -1e-9  # second difference


def test_greenshields_domain_error():
    model = Greenshields(1.0, 1.0, 10.0)
    with pytest.raises(DomainError):
        evaluate(model, 10.0)
    with pytest.raises(DomainError):
        evaluate(model, 10.0 * (1 - 1e-12))
    with pytest.raises(DomainError):
        beckmann_integral(model, 11.0)
    # just inside the guard is fine
    assert evaluate(model, 10.0 * (1 - 1e-6)) > 0


def test_negative_flow_rejected():
    with pytest.raises(DomainError):
        evaluate(Constant(1.0), -0.5)
    # float dust is forgiven
    assert evaluate(Affine(1.0, 1.0), -1e-15) == 1.0


def test_parameter_validation():
    with pytest.raises(ValueError):
        Constant(0.0)
    with pytest.raises(ValueError):
        Affine(-1.0, 2.0)
    with pytest.raises(ValueError):
        Greenshields(1.0, 0.0, 10.0)
    with pytest.raises(ValueError):
        BPR(1.0, 10.0, 1.0, 0.5)  # beta below 1 loses convexity


def test_marginal_model_wraps():
    base = Greenshields(1.0, 1.0, 10.0)
    wrapped = marginal_model(base)
    for x in grid_points(base):
        assert evaluate(wrapped, x) == pytest.approx(marginal(base, x), rel=1e-12)
    # its integral is x*c(x) exactly
    assert beckmann_integral(wrapped, 5.0) == pytest.approx(5.0 * 2.0)
    # marginal of a constant stays the same object
    c = Constant(4.0)
    assert marginal_model(c) is c


def test_marginal_model_derivative_consistent():
    for base in ALL_MODELS:
        wrapped = marginal_model(base)
        if wrapped is base:
            continue
        for x in grid_points(base, 20):
            if x == 0.0:
                continue
            h = 1e-6 * max(1.0, x)
            expected = central_diff(lambda t: evaluate(wrapped, t), x, h)
            assert derivative(wrapped, x) == pytest.approx(expected, rel=1e-4, abs=1e-6)


def test_second_derivative_matches_finite_difference():
    from netdesign.costs import second_derivative

    for base in ALL_MODELS:
        for model in (base, marginal_model(base)):
            for x in grid_points(base, 20):
                if x <= 0.0:
                    continue
                h = 1e-5 * max(1.0, x)
                expected = central_diff(lambda t: derivative(model, t), x, h)
                assert second_derivative(model, x) == pytest.approx(
                    expected, rel=1e-3, abs=1e-5)


def test_json_round_trip():
    for model in ALL_MODELS:
        doc = cost_to_json(model)
        assert cost_from_json(doc) == model
    assert cost_to_json(Greenshields(1.0, 1.0, 10.0)) == {
        "kind": "greenshields", "l": 1.0, "v_max": 1.0, "u": 10.0}


@pytest.mark.parametrize("kind", [["constant"], {"name": "constant"}, None, 1])
def test_json_cost_kind_must_be_a_name(kind):
    # a list or object kind used to escape as TypeError: unhashable type
    with pytest.raises(FormatError, match="unknown cost kind"):
        cost_from_json({"kind": kind, "c": 1.0})


@pytest.mark.parametrize("doc", [
    {"kind": "affine", "a": math.nan, "b": 1.0},
    {"kind": "bpr", "c0": 1.0, "u": 1.0, "alpha": math.nan, "beta": 4.0},
    {"kind": "bpr", "c0": 1.0, "u": 1.0, "alpha": 0.15, "beta": math.nan},
    {"kind": "constant", "c": 10 ** 400},
    {"kind": "affine", "a": math.inf, "b": 1.0},
    {"kind": "greenshields", "l": 1.0, "v_max": 1.0, "u": math.inf},
])
def test_json_rejects_nan_and_overflowing_parameters(doc):
    # NaN passed the models' `< 0` checks, an integer beyond float range
    # escaped float() as OverflowError, and an infinite coefficient solved
    # to a report holding NaN
    with pytest.raises(FormatError):
        cost_from_json(doc)


def test_json_rejects_unknown_and_missing():
    with pytest.raises(FormatError):
        cost_from_json({"kind": "constant", "c": 1.0, "oops": 2})
    with pytest.raises(FormatError):
        cost_from_json({"kind": "affine", "a": 1.0})
    with pytest.raises(FormatError):
        cost_from_json({"kind": "quadratic", "a": 1.0})
    with pytest.raises(FormatError):
        cost_from_json({"kind": "constant", "c": "fast"})
