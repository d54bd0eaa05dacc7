"""The value types ``QuadInt``, ``GaussRat``, ``ComplexBall`` and
``RatInterval`` behave as the frozen dataclasses they replaced: the same repr
text, equality and hash by field, immutability, and no tuple behaviour.
Importing the package loads none of ``dataclasses``, ``inspect`` and
``typing``."""

import copy
import os
import pickle
import pkgutil
import subprocess
import sys
from fractions import Fraction as F

import pytest

import thueq
from thueq.concrete import ComplexBall
from thueq.exactnum import DomainError, RatInterval
from thueq.quadfield import QuadInt
from thueq.series import GaussRat

# (value, its field names, its repr, one replacement value per field)
VALUES = [
    (QuadInt(3, 2, -1), ("d", "a", "b"), "QuadInt(d=3, a=2, b=-1)", (7, 5, 4)),
    (GaussRat(F(1, 2), F(-3)), ("re", "im"),
     "GaussRat(re=Fraction(1, 2), im=Fraction(-3, 1))", (F(1, 3), F(3))),
    (ComplexBall(F(1), F(2, 3), F(0)), ("re_mid", "im_mid", "radius"),
     "ComplexBall(re_mid=Fraction(1, 1), im_mid=Fraction(2, 3), radius=Fraction(0, 1))",
     (F(-1), F(2), F(1, 2**128))),
    (RatInterval(F(-1), F(1, 7)), ("lo", "hi"),
     "RatInterval(lo=Fraction(-1, 1), hi=Fraction(1, 7))", (F(-2), F(1))),
]


@pytest.mark.parametrize("value, names, text, others", VALUES)
def test_value_types_keep_their_repr_equality_and_hash(value, names, text, others):
    cls, fields = type(value), tuple(getattr(value, f) for f in names)
    assert repr(value) == text
    assert cls(*fields) == value and hash(cls(*fields)) == hash(value) == hash(fields)
    for i, other in enumerate(others):
        changed = cls(*fields[:i], other, *fields[i + 1:])
        assert changed != value and getattr(changed, names[i]) == other
    assert copy.copy(value) == value and pickle.loads(pickle.dumps(value)) == value


@pytest.mark.parametrize("value, names, text, others", VALUES)
def test_value_types_refuse_assignment(value, names, text, others):
    for name in names:
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == text


def test_value_type_invariants():
    with pytest.raises(ValueError, match="positive squarefree"):
        QuadInt(0, 1, 1)
    assert QuadInt(5, 3, 0).d == 1 and QuadInt(5, 3, 0) == QuadInt(1, 3, 0)
    assert QuadInt(5, 3, 1).d == 5
    with pytest.raises(DomainError, match="empty interval"):
        RatInterval(F(2), F(1))
    assert RatInterval(F(1), F(1)).lo == 1
    with pytest.raises(DomainError, match="negative ball radius"):
        ComplexBall(F(0), F(0), F(-1, 10**9))


def test_arithmetic_types_have_no_tuple_behaviour():
    assert 2 * GaussRat(F(1), F(2)) == GaussRat(F(2), F(4))
    assert GaussRat(F(1), F(2)) * 2 == GaussRat(F(2), F(4))
    with pytest.raises(TypeError):
        len(QuadInt(1, 2, 3))
    with pytest.raises(TypeError):
        iter(GaussRat(F(1), F(2)))
    assert not QuadInt(1, 2, 0) == (1, 2, 0) and QuadInt(1, 2, 0) != (1, 2, 0)
    assert GaussRat(F(1), F(2)) != (F(1), F(2))
    assert 2 * QuadInt(1, 2, 3) == QuadInt(1, 4, 6)


def test_importing_every_module_loads_no_dataclasses_inspect_or_typing():
    src = os.path.dirname(os.path.dirname(os.path.abspath(thueq.__file__)))
    mods = [f"thueq.{m.name}" for m in pkgutil.iter_modules(thueq.__path__)]
    code = (f"import importlib, sys\nsys.path.insert(0, {src!r})\n"
            f"for m in {mods!r}:\n    importlib.import_module(m)\n"
            "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    # -I ignores PYTHONDONTWRITEBYTECODE: -B keeps the run from caching bytecode in src/
    out = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", code], capture_output=True,
                         text=True, timeout=60, check=True)
    assert len(mods) >= 10
    assert out.stdout.strip() == "[]"
