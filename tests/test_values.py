"""Constructor parity of the value classes against their generated-``__init__`` form.

The classes below are the point and result dataclasses as they were before
their constructors were written by hand: a generated ``__init__`` followed by
``__post_init__`` validation.  They share the shipped classes' names, so
reprs and exception messages can be compared verbatim.  Over a grid of
inputs, the shipped classes must give the same repr, equality and hash, or
raise the same exception type with the same message.
"""

from __future__ import annotations

import copy
import dataclasses
import itertools
import math
import pickle
from dataclasses import dataclass

import pytest

from cycproj import projections, spaces


def _require_finite(name, value):
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True, slots=True)
class PlanePoint:
    x: float
    y: float

    def __post_init__(self) -> None:
        _require_finite("x", self.x)
        _require_finite("y", self.y)


@dataclass(frozen=True, slots=True)
class StarPoint:
    leg: int
    offset: float

    def __post_init__(self) -> None:
        _require_finite("offset", self.offset)
        if self.offset < 0.0:
            raise ValueError(f"offset must be >= 0, got {self.offset!r}")
        if self.offset == 0.0:
            object.__setattr__(self, "leg", 0)
            object.__setattr__(self, "offset", 0.0)


@dataclass(frozen=True, slots=True)
class ProductPoint:
    left: object
    right: object


@dataclass(frozen=True, slots=True)
class ChainPoint:
    u: float
    v: float
    height: float

    def __post_init__(self) -> None:
        _require_finite("u", self.u)
        _require_finite("v", self.v)
        _require_finite("height", self.height)


@dataclass(frozen=True, slots=True)
class ProjectionResult:
    point: object
    distance: float
    solver: str


NAN = math.nan
# floats and ints, signed zeros, negatives, non-finite values and non-numbers
SCALARS = (0, 1, 3, 0.0, -0.0, 0.25, 2.5, -1, -0.5, NAN, math.inf, -math.inf, None, "a")
OBJECTS = (spaces.StarPoint(1, 0.5), spaces.PlanePoint(0.0, 1.0), None, "a", 0.0)

# (shipped class, reference class, argument tuples)
CASES = [
    (spaces.PlanePoint, PlanePoint, list(itertools.product(SCALARS, repeat=2))),
    (spaces.StarPoint, StarPoint, list(itertools.product((0, 2, 1.0, -1, None), SCALARS))),
    (spaces.ProductPoint, ProductPoint, list(itertools.product(OBJECTS, repeat=2))),
    (spaces.ChainPoint, ChainPoint, list(itertools.product(SCALARS, repeat=3))),
    (projections.ProjectionResult, ProjectionResult,
     list(itertools.product(OBJECTS, SCALARS, ("closed_form", None)))),
]
IDS = [shipped.__name__ for shipped, _, _ in CASES]


def _outcome(cls, args, kwargs=None):
    """The built value, or the type and message of what construction raised."""
    try:
        return cls(*args, **(kwargs or {}))
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)


def _fields(value) -> tuple:
    return tuple(getattr(value, f.name) for f in dataclasses.fields(value))


@pytest.mark.parametrize("shipped, reference, grid", CASES, ids=IDS)
def test_constructor_matches_reference(shipped, reference, grid):
    built = []
    for args in grid:
        got, want = _outcome(shipped, args), _outcome(reference, args)
        if isinstance(want, tuple):
            assert got == want, args
            continue
        assert type(got) is shipped, (args, got)
        assert repr(got) == repr(want), args
        assert hash(got) == hash(want), args
        assert _fields(got) == _fields(want), args
        built.append((got, want))
    assert built
    # equality between built values agrees pair for pair
    for (got_a, want_a), (got_b, want_b) in itertools.combinations(built, 2):
        assert (got_a == got_b) == (want_a == want_b), (want_a, want_b)


@pytest.mark.parametrize("shipped, reference, grid", CASES, ids=IDS)
def test_keywords_and_arity_match_reference(shipped, reference, grid):
    names = [f.name for f in dataclasses.fields(reference)]
    assert [f.name for f in dataclasses.fields(shipped)] == names
    assert shipped.__slots__ == reference.__slots__
    args = next(a for a in grid if not isinstance(_outcome(reference, a), tuple))
    calls = [
        (args, None),
        ((), dict(zip(names, args))),
        (args[:-1], None),
        (args + (0.0,), None),
        (args[:-1], {"extra": 0.0}),
    ]
    for call_args, kwargs in calls:
        got = _outcome(shipped, call_args, kwargs)
        want = _outcome(reference, call_args, kwargs)
        assert (got if isinstance(got, tuple) else repr(got)) == \
            (want if isinstance(want, tuple) else repr(want)), (call_args, kwargs)


VALUES = [
    spaces.PlanePoint(0.25, -1.5),
    spaces.StarPoint(2, 0.75),
    spaces.StarPoint(1, -0.0),
    spaces.ProductPoint(spaces.StarPoint(1, 0.5), spaces.StarPoint(0, 0.0)),
    spaces.ChainPoint(0.05, -0.02, 1.7),
    projections.ProjectionResult(spaces.PlanePoint(1.0, 0.0), 0.5, "closed_form"),
]


@pytest.mark.parametrize("value", VALUES, ids=repr)
def test_fields_are_frozen(value):
    for f in dataclasses.fields(value):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, f.name, 1.0)
    assert not hasattr(value, "__dict__")


@pytest.mark.parametrize("value", VALUES, ids=repr)
def test_pickle_and_deepcopy_round_trip(value):
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert type(twin) is type(value)
        assert twin == value and hash(twin) == hash(value)
        assert repr(twin) == repr(value)


def test_replace_validates():
    with pytest.raises(ValueError, match="x must be finite, got nan"):
        dataclasses.replace(spaces.PlanePoint(1.0, 2.0), x=NAN)
    with pytest.raises(ValueError, match="offset must be >= 0, got -1"):
        dataclasses.replace(spaces.StarPoint(1, 0.5), offset=-1)
    with pytest.raises(ValueError, match="height must be finite, got inf"):
        dataclasses.replace(spaces.ChainPoint(0.0, 0.0, 0.5), height=math.inf)
    centre = dataclasses.replace(spaces.StarPoint(2, 0.5), offset=-0.0)
    assert (centre.leg, repr(centre.offset)) == (0, "0.0")
    assert dataclasses.replace(spaces.ProductPoint(1, 2), right=3) == spaces.ProductPoint(1, 3)
    result = projections.ProjectionResult(None, 1.0, "newton")
    assert dataclasses.replace(result, solver="closed_form").solver == "closed_form"
