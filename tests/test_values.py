"""Value semantics of the value classes: equality, hashing, immutability, repr and copies."""

import copy
import inspect
import pickle
from fractions import Fraction

import pytest

from lenslinks import (
    AlexanderPoly,
    BandDiagram,
    BraidWord,
    CableSequence,
    FiberData,
    HomologyClass,
    LaurentPoly,
    LensSpace,
    PuiseuxData,
    StrandPermutation,
    SupportPoly,
)
from lenslinks.laurent import LaurentMatrix

P = LaurentPoly

# (class, field values in order, repr).  The reprs are those that
# @dataclass(frozen=True) gave these values.
CASES = [
    (LaurentPoly, (((0, 1), (2, -3)),), "LaurentPoly(terms=((0, 1), (2, -3)))"),
    (LaurentMatrix, ((1, -512), 8, 1, (0, 1)), "LaurentMatrix(columns=(1, -512), k=8, stride=1, lows=(0, 1))"),
    (
        AlexanderPoly,
        (P(((0, 1), (1, -1), (2, 1))),),
        "AlexanderPoly(poly=LaurentPoly(terms=((0, 1), (1, -1), (2, 1))))",
    ),
    (BraidWord, (3, (1, -2)), "BraidWord(strands=3, letters=(1, -2))"),
    (StrandPermutation, (3, (2, 3, 1)), "StrandPermutation(n=3, image=(2, 3, 1))"),
    (LensSpace, (5, 2), "LensSpace(p=5, q=2)"),
    (HomologyClass, (2, 5), "HomologyClass(value=2, modulus=5)"),
    (
        BandDiagram,
        (LensSpace(3, 1), BraidWord(2, (1, 1)), (1, -1)),
        "BandDiagram(space=LensSpace(p=3, q=1), word=BraidWord(strands=2, letters=(1, 1)), "
        "orientations=(1, -1))",
    ),
    (
        SupportPoly,
        ((((0, 2), Fraction(1)), ((3, 0), Fraction(1, 2))),),
        "SupportPoly(terms=(((0, 2), Fraction(1, 1)), ((3, 0), Fraction(1, 2))))",
    ),
    (PuiseuxData, (4, (6, 7)), "PuiseuxData(m=4, exponents=(6, 7))"),
    (CableSequence, (((2, 3), (2, 13)),), "CableSequence(pairs=((2, 3), (2, 13)))"),
    (FiberData, (-1, 1, 1), "FiberData(euler=-1, boundary_components=1, genus=1)"),
]


@pytest.mark.parametrize("cls, fields, text", CASES, ids=[case[0].__name__ for case in CASES])
def test_value_semantics(cls, fields, text):
    value = cls(*fields)
    # Equal fields: equal values with equal hashes, the hash of the field tuple.
    twin = cls(*copy.deepcopy(fields))
    assert value == twin and not value != twin
    assert hash(value) == hash(twin) == hash(fields)
    # Another class with the same fields is not equal.
    other = type("Other", (cls,), {})(*fields)
    assert value != other and other != value
    assert value != fields
    # Immutable: no assignment, deletion or new attribute.
    first = next(iter(inspect.signature(cls).parameters))
    with pytest.raises(AttributeError):
        setattr(value, first, fields[0])
    with pytest.raises(AttributeError):
        delattr(value, first)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == twin
    assert repr(value) == text
    for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(clone) is cls
        assert clone == value and hash(clone) == hash(value)


def test_defaults():
    assert LaurentPoly() == LaurentPoly(())
    assert BraidWord(2) == BraidWord(2, ())
    assert BandDiagram(LensSpace(3, 1), BraidWord(2)).orientations is None
    assert SupportPoly().terms == () and CableSequence().pairs == ()


def test_matrix_rows_pack_into_the_fields():
    # Entry (r, c) is digit r * stride + e - lows[c] of column c, in 8-bit slots.
    rows = ((P(((0, 1),)), P()), (P(), P(((1, -2),))))
    assert LaurentMatrix.from_rows(rows) == LaurentMatrix((1, -2 << 8), 8, 1, (0, 1))


def test_keywords():
    assert FiberData(euler=-1, boundary_components=1, genus=1) == FiberData(-1, 1, 1)
    assert LensSpace(q=2, p=5) == LensSpace(5, 2)
