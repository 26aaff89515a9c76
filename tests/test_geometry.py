"""Field-of-moduli divisibility checks for curves and pointed varieties."""

import pytest

from neutralrep.geometry import (
    CurveInstance,
    MarkedInstance,
    VERDICT_DEFINED,
    VERDICT_UNKNOWN,
    curve_check,
    curve_to_representation_note,
    marked_check,
)
from neutralrep.errors import (
    ExtraneousPrimeError,
    InvalidDimsError,
    InvalidGenusError,
    MissingFixedDimError,
    MissingQuotientGenusError,
)


def test_curve_examples():
    report = curve_check(CurveInstance(n=2, genus=3, quotient_genus={2: 0}))
    assert report.verdict == VERDICT_DEFINED
    assert report.checks[0].difference == 3

    assert (
        curve_check(CurveInstance(n=7, genus=10, quotient_genus={7: 3})).verdict
        == VERDICT_UNKNOWN
    )

    report = curve_check(CurveInstance(n=6, genus=4, quotient_genus={2: 1, 3: 2}))
    assert report.verdict == VERDICT_DEFINED
    assert [(c.prime, c.difference) for c in report.checks] == [(2, 3), (3, 2)]
    assert any("cyclic of order exactly 6" in a for a in report.assertions)


def test_curve_validation():
    with pytest.raises(MissingQuotientGenusError):
        curve_check(CurveInstance(n=6, genus=4, quotient_genus={2: 1}))
    with pytest.raises(ExtraneousPrimeError):
        curve_check(CurveInstance(n=2, genus=3, quotient_genus={2: 0, 5: 1}))
    with pytest.raises(ExtraneousPrimeError):
        curve_check(CurveInstance(n=4, genus=3, quotient_genus={2: 0, 4: 1}))
    with pytest.raises(InvalidGenusError):
        curve_check(CurveInstance(n=2, genus=1, quotient_genus={2: 0}))
    with pytest.raises(InvalidGenusError):
        curve_check(CurveInstance(n=2, genus=3, quotient_genus={2: 4}))
    with pytest.raises(InvalidGenusError):
        curve_check(CurveInstance(n=2, genus=3, quotient_genus={2: True}))
    with pytest.raises(InvalidGenusError):
        curve_check(CurveInstance(n=2, genus=3, quotient_genus={2: -1}))
    with pytest.raises(InvalidGenusError):
        curve_check(CurveInstance(n=0, genus=3, quotient_genus={}))
    # 2.0 == 2 and hashes alike, but a key is a prime only as an integer
    with pytest.raises(ExtraneousPrimeError):
        curve_check(CurveInstance(n=2, genus=3, quotient_genus={2.0: 0}))
    # a quotient genus may equal the genus: the difference 0 is silent at every p
    report = curve_check(CurveInstance(n=6, genus=4, quotient_genus={2: 4, 3: 4}))
    assert report.verdict == VERDICT_UNKNOWN
    assert [(c.prime, c.difference, c.passes) for c in report.checks] == [
        (2, 0, False), (3, 0, False)]
    # n = 1: vacuously defined over the field of moduli
    assert curve_check(CurveInstance(n=1, genus=2, quotient_genus={})).verdict == VERDICT_DEFINED


def test_marked_examples():
    assert (
        marked_check(MarkedInstance(n=2, dim=1, fixed_dim={2: 0})).verdict
        == VERDICT_DEFINED
    )
    assert (
        marked_check(MarkedInstance(n=3, dim=3, fixed_dim={3: 0})).verdict
        == VERDICT_UNKNOWN
    )
    assert marked_check(MarkedInstance(n=1, dim=5, fixed_dim={})).verdict == VERDICT_DEFINED


def test_marked_validation():
    with pytest.raises(MissingFixedDimError):
        marked_check(MarkedInstance(n=6, dim=2, fixed_dim={2: 0}))
    with pytest.raises(ExtraneousPrimeError):
        marked_check(MarkedInstance(n=2, dim=2, fixed_dim={2: 0, 3: 0}))
    with pytest.raises(InvalidDimsError):
        marked_check(MarkedInstance(n=2, dim=0, fixed_dim={2: 0}))
    with pytest.raises(InvalidDimsError):
        marked_check(MarkedInstance(n=2, dim=2, fixed_dim={2: 3}))
    with pytest.raises(InvalidDimsError):
        marked_check(MarkedInstance(n=2, dim=2, fixed_dim={2: True}))


@pytest.mark.parametrize(
    "check, instance, error",
    [
        (curve_check, CurveInstance(n=True, genus=2, quotient_genus={}), InvalidGenusError),
        (curve_check, CurveInstance(n=2, genus=True, quotient_genus={2: 0}), InvalidGenusError),
        (marked_check, MarkedInstance(n=True, dim=1, fixed_dim={}), InvalidDimsError),
        (marked_check, MarkedInstance(n=2, dim=True, fixed_dim={2: 0}), InvalidDimsError),
    ],
    ids=["curve-n", "curve-genus", "marked-n", "marked-dim"],
)
def test_bool_order_genus_and_dimension_are_refused(check, instance, error):
    # True is not the integer 1 here, as for the per-prime values
    with pytest.raises(error):
        check(instance)


def test_reduction_note():
    note = curve_to_representation_note(CurveInstance(n=2, genus=3, quotient_genus={2: 0}))
    assert "global 1-forms" in note.summary
    assert note.per_prime == ("p = 2: induced check is 2 does not divide 3; certifies",)

    silent = curve_to_representation_note(
        CurveInstance(n=3, genus=5, quotient_genus={3: 2})
    )
    assert "silent" in silent.per_prime[0]
    assert "not a negative result" in silent.per_prime[0]

    # the note reads curve_check's per-prime tests, so it refuses what they refuse
    with pytest.raises(MissingQuotientGenusError):
        curve_to_representation_note(CurveInstance(n=6, genus=4, quotient_genus={2: 1}))

