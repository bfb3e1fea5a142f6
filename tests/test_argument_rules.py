"""Every public entry point applies the argument rule its parameters' names call for.

The entry points are the functions and classes of ``dpstates.__all__``,
less the exception classes and the result records that the library
builds and never validates (the NamedTuples: a class that subclasses
``tuple`` and has ``_fields``), plus ``DpsMeasurement.verdict`` and
``.ladder``.  Their parameters are read from ``inspect.signature``, so a
new function or parameter is checked with no edit here.

Valid arguments come from one fixed world (``world``), looked up by
annotation and then by parameter name; a parameter found in neither
takes its default, and one without a default fails collection with an
error that names it.  Each entry point is first called on the world and
must succeed, so that no refusal passes vacuously.  Each refusal must
come from the call itself, before any iteration of what it returns.
A numpy integer is accepted wherever an integer is, and a ``np.uint8``
dimension whose square wraps gives what the ``int`` gives.
"""

import dataclasses
import functools
import inspect
import math
from collections.abc import Iterator

import numpy as np
import pytest

import dpstates
from dpstates import (
    DensityMatrix,
    DomainError,
    FOutOfRangeError,
    InvalidDimensionError,
    PolarizationOutOfRangeError,
    chi_from_beta2,
    dps_moment,
    make_dps,
    measure_dps,
    random_channel,
    to_coherence,
)

METHODS = ("DpsMeasurement.verdict", "DpsMeasurement.ladder")
# the world's samples and seed are a Haar-sample twirl's; the exact twirl takes neither
OVERRIDES = {("twirl", "mode"): "haar-sample"}
EXEMPT = {("dps_moment", "p"): "dps_p_from_moments evaluates it below p_min(D) by design"}


@functools.cache
def fixed_world() -> tuple[dict, dict]:
    """(by annotation, by parameter name): valid arguments, one value per key, all read-only.

    A lone dimension is 3 and a bipartite split 2 x 2, around the Bell
    DPS at p = 0.5; the coherence vector is a D = 3 DPS's.  A count and
    the ladder depth take the least value their rule accepts, so that a
    lower bound set one too high fails the world call; a moment order
    is 2, since ``moment_permutation`` takes only 2 and 3.
    """
    bell = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    bell.setflags(write=False)
    eye = np.eye(3)
    eye.setflags(write=False)
    dps = make_dps(bell, 0.5)
    rho = dps.to_matrix()
    coherence = to_coherence(make_dps([1.0, 0.0, 0.0], 0.5).to_matrix())
    by_annotation = {
        "DensityMatrix": rho,
        "DpsState": dps,
        "KrausChannel": random_channel(2, 2, 0),
        "ChiState": chi_from_beta2(4, 0.5),
        "CoherenceVector": coherence,
    }
    by_name = {
        **dict.fromkeys(["D", "dim"], 3),
        **dict.fromkeys(["dA", "dB", "dX"], 2),
        **dict.fromkeys(["count", "kraus_count", "samples", "shots", "trials"], 1),
        "m": 2,
        "r_max": 0,
        "seed": 0,
        **dict.fromkeys(["p", "q", "pA", "pB", "f", "F", "overlap", "beta2", "omega"], 0.5),
        "t2": dps_moment(3, 0.5, 2),
        "t3": dps_moment(3, 0.5, 3),
        **dict.fromkeys(["psi", "pure"], bell),
        "b": (1.0 / math.sqrt(2.0),) * 2,
        **dict.fromkeys(["M", "matrix", "A", "B"], rho.matrix),
        "keep": "A",
        "n": coherence.n,
        "kraus": (eye,),
        "alpha": 1.0,
        "beta": 0.0,
    }
    return by_annotation, by_name


def world() -> tuple[dict, dict]:
    """:func:`fixed_world` with a fresh ``default_rng(0)`` for a generator argument."""
    by_annotation, by_name = fixed_world()
    return {**by_annotation, "np.random.Generator": np.random.default_rng(0)}, by_name


COUNTS = {"m", "count", "kraus_count", "samples", "shots", "trials"}
NOT_A_COUNT = (-1, 2.5, 10.5, 8000.0, True, np.bool_(True), None, "4")
# (parameter names, refused values, error, message pattern, numpy integers accepted)
RULES = [
    ({"D", "dim", "dA", "dB", "dX"}, (2.5, 3.0, math.nan, True, "3", 0, -1), InvalidDimensionError, None, True),
    (COUNTS | {"r_max"}, NOT_A_COUNT, DomainError, "must be an integer >=", True),
    # a count of 0 is an integer: random_channel refuses it as NotTracePreservingError, a DomainError
    (COUNTS, (0,), DomainError, None, True),
    ({"seed"}, (None, -1, 1.5, True), DomainError, "a seed must be an integer >= 0", True),
    ({"p", "q", "pA", "pB"}, (math.nan, 2.0), PolarizationOutOfRangeError, None, False),
    ({"f", "F", "overlap"}, (math.nan, 2.0), FOutOfRangeError, None, False),
    ({"beta2", "omega"}, (math.nan, 2.0), DomainError, None, False),
]


def rules_for(param: str) -> list[tuple]:
    """The rules a parameter's name calls for; any name with the word tol takes the tolerance rule."""
    if "tol" in param.split("_"):
        return [({param}, (math.nan, math.inf, -1.0), DomainError, f"{param} must be finite and >= 0", False)]
    return [rule for rule in RULES if param in rule[0]]


def entry(name: str, by_annotation: dict):
    """The public callable ``name``; a method is bound to the measurement of the world's DensityMatrix."""
    if name in METHODS:
        return getattr(measure_dps(by_annotation["DensityMatrix"]), name.split(".")[1])
    return getattr(dpstates, name)


def is_record(obj) -> bool:
    """A result record: a NamedTuple class."""
    return inspect.isclass(obj) and issubclass(obj, tuple) and hasattr(obj, "_fields")


def entry_names() -> list[str]:
    names = [
        name
        for name in dpstates.__all__
        if not is_record(obj := getattr(dpstates, name)) and not (inspect.isclass(obj) and issubclass(obj, Exception))
    ]
    return names + list(METHODS)


def valid_arguments(name: str, params, w: tuple[dict, dict]) -> dict:
    """The world's keyword arguments for ``name``; a parameter left out takes its default."""
    by_annotation, by_name = w
    args = {}
    for param in params:
        if (name, param.name) in OVERRIDES:
            args[param.name] = OVERRIDES[name, param.name]
        elif param.annotation in by_annotation:
            args[param.name] = by_annotation[param.annotation]
        elif param.name in by_name:
            args[param.name] = by_name[param.name]
        elif param.default is inspect.Parameter.empty:
            raise LookupError(f"{name}: parameter {param.name!r} has no default and no valid value in the world")
    return args


SIGNATURES = {name: list(inspect.signature(entry(name, world()[0])).parameters.values()) for name in entry_names()}
for _name, _params in SIGNATURES.items():
    valid_arguments(_name, _params, world())  # a parameter missing from the world fails collection here


def bound(name: str, **changed) -> tuple:
    """(callable, keyword arguments) of ``name`` on a fresh world, with ``changed`` arguments replaced."""
    w = world()
    return entry(name, w[0]), {**valid_arguments(name, SIGNATURES[name], w), **changed}


def accepted(name: str, **changed) -> None:
    """Call ``name`` and draw out an iterator it returns."""
    fn, args = bound(name, **changed)
    out = fn(**args)
    if isinstance(out, Iterator):
        list(out)


def refusal_cases():
    for name, params in SIGNATURES.items():
        for param in params:
            if (name, param.name) in EXEMPT:
                continue
            for _, refused, error, match, _ in rules_for(param.name):
                for value in refused:
                    yield pytest.param(name, param.name, value, error, match, id=f"{name}-{param.name}-{value!r}")


def integer_cases():
    for name, params in SIGNATURES.items():
        for param in params:
            if any(rule[4] for rule in rules_for(param.name)):
                for kind in (np.int64, np.uint8):
                    yield pytest.param(name, param.name, kind, id=f"{name}-{param.name}-{kind.__name__}")


DIMENSIONS = RULES[0][0]
WRAPS = np.uint8(16)  # 16 * 16 wraps to 0 in uint8


def opened(out):
    """``out`` with iterators drawn and records, value types and density matrices opened into their fields."""
    if isinstance(out, Iterator):
        out = list(out)
    if isinstance(out, DensityMatrix):
        return out.matrix
    if dataclasses.is_dataclass(out):
        out = dataclasses.astuple(out)
    if isinstance(out, (tuple, list)):
        return [opened(x) for x in out]
    return out


def outcome(name: str, **changed):
    """(what ``name`` returns, opened, or None; the type of what it raises, or None)."""
    fn, args = bound(name, **changed)
    try:
        return opened(fn(**args)), None
    except (ValueError, RuntimeError) as exc:
        return None, type(exc)


def dimension_cases():
    for name, params in SIGNATURES.items():
        for param in params:
            if param.name in DIMENSIONS:
                yield pytest.param(name, param.name, id=f"{name}-{param.name}")


@pytest.mark.parametrize("name", SIGNATURES)
def test_entry_point_accepts_the_world(name):
    accepted(name)


@pytest.mark.parametrize("name, param, value, error, match", refusal_cases())
def test_entry_point_refuses_a_value_outside_its_rule(name, param, value, error, match):
    fn, args = bound(name, **{param: value})
    # from the call itself: an iterator it returns is not drawn from
    with pytest.raises(error, match=match):
        fn(**args)


@pytest.mark.parametrize("name, param, kind", integer_cases())
def test_entry_point_accepts_a_numpy_integer(name, param, kind):
    accepted(name, **{param: kind(world()[1][param])})


@pytest.mark.parametrize("name, param", dimension_cases())
def test_a_wrapping_numpy_dimension_gives_the_int_result(name, param):
    # the int D = 16 may be refused by another rule (a world argument of another size, an
    # unsupported D); the uint8 one is then refused the same way, not by a wrapped product
    want, refused = outcome(name, **{param: int(WRAPS)})
    got, got_refused = outcome(name, **{param: WRAPS})
    assert got_refused is refused
    np.testing.assert_equal(got, want)


def test_a_wrapping_numpy_count_gives_the_int_result():
    # D * kraus_count, each in range, wraps when both are uint8
    want = random_channel(int(WRAPS), int(WRAPS), 0).kraus
    np.testing.assert_equal(random_channel(WRAPS, WRAPS, 0).kraus, want)


def test_every_rule_and_exemption_names_a_parameter():
    params = {(name, param.name) for name, plist in SIGNATURES.items() for param in plist}
    names = {param for _, param in params}
    assert all(rule[0] & names for rule in RULES)
    assert set(EXEMPT) <= params and set(OVERRIDES) <= params
