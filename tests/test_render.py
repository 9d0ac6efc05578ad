from fractions import Fraction

from feec.forms import bary_monomial, canonicalize, dlambda, one, whitney
from feec.render import format_form, format_generator

Q = Fraction


def test_format_zero_and_constant():
    from feec.forms import PolyForm

    assert format_form(PolyForm.zero(2, 1)) == "0"
    assert format_form(one(2)) == "1"


def test_format_signs_and_fractions():
    w = canonicalize(2, 1, [((0, 1, 1), (1,), Q(1, 2)), ((0, 1, 1), (2,), -2)])
    assert format_form(w) == "1/2*l1*l2 dl1 - 2*l1*l2 dl2"
    assert format_form(w, "latex") == (
        "\\tfrac{1}{2}\\lambda_{1}\\lambda_{2}\\,d\\lambda_{1} "
        "- 2\\lambda_{1}\\lambda_{2}\\,d\\lambda_{2}"
    )


def test_format_leading_negative():
    w = -1 * bary_monomial(2, (2, 0, 0))
    assert format_form(w) == "-l0^2"


def test_format_monomial_and_whitney_labels():
    assert format_generator((1, 0, 2), (0, 1), "minus") == "l0*l2^2 phi_01"
    assert format_generator((0, 0, 0), (1, 2), "full") == "dl1^dl2"
    assert format_generator((1, 0, 0), (), "full") == "l0"


def test_format_pure_differential():
    assert format_form(dlambda(3, (1, 3))) == "dl1^dl3"
    assert format_form(whitney(2, (2,))) == "l2"
