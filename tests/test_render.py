from fractions import Fraction

from feec.forms import bary_monomial, canonicalize, dlambda, one, whitney
from feec.render import _generator_template, format_form, format_generator

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


def test_format_generator_with_multi_digit_labels():
    assert format_generator((1, 0, 2), (0, 1), "minus", labels=(10, 3, 7)) == "l10*l7^2 phi_103"
    assert format_generator((1, 0, 2), (0, 2), "full", labels=(10, 3, 7)) == "l10*l7^2 dl10^dl7"
    assert format_generator((0, 0, 0), (1, 2), "full", labels=(10, 3, 7)) == "dl3^dl7"
    assert format_generator((0, 0), (0, 1), "minus", labels=(12, 345)) == "phi_12345"
    assert format_generator((0, 3), (), "full", labels=(12, 345)) == "l345^3"


def test_format_generator_reuses_one_template_across_label_sets():
    alpha, sigma = (2, 1, 0, 0), (1, 3)
    assert _generator_template(alpha, sigma, "minus") == "l{0}^2*l{1} phi_{1}{3}"
    before = _generator_template.cache_info()
    assert format_generator(alpha, sigma, "minus") == "l0^2*l1 phi_13"
    assert format_generator(alpha, sigma, "minus", labels=(40, 41, 42, 99)) == "l40^2*l41 phi_4199"
    after = _generator_template.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (2, 0)
