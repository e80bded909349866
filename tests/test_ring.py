import pytest

from vknotoid.ring import BracketPolynomial, Modulus, poly_parse, poly_render


def test_modulus_validation():
    with pytest.raises(ValueError):
        Modulus(1)
    Modulus(2)


def test_poly_render_examples():
    z5 = Modulus(5)
    assert poly_render(BracketPolynomial.from_dict(z5, {3: 2, 2: 1})) == "2u^3+u^2"
    assert poly_render(BracketPolynomial(z5)) == "0"
    z37 = Modulus(37)
    p = BracketPolynomial.from_dict(z37, {19: 1, 27: 1, 34: 1})
    assert poly_render(p) == "u^34+u^27+u^19"
    assert poly_render(BracketPolynomial.from_dict(z5, {1: 1})) == "u"
    assert poly_render(BracketPolynomial.from_dict(z5, {0: 3})) == "3"


def test_poly_render_parse_round_trip():
    z37 = Modulus(37)
    cases = [{}, {0: 1}, {1: 2}, {19: 1, 27: 1, 34: 1}, {36: 5, 0: 2, 1: 1}]
    for d in cases:
        p = BracketPolynomial.from_dict(z37, d)
        assert poly_parse(poly_render(p), z37) == p


def test_exponents_reduce_mod_m():
    z5 = Modulus(5)
    p = BracketPolynomial.from_dict(z5, {7: 1, 2: 1})
    assert p.as_dict() == {2: 2}
    assert p.total_multiplicity() == 2


def test_multiplicities_are_counts():
    with pytest.raises(ValueError, match="^negative multiplicity$"):
        BracketPolynomial.from_dict(Modulus(5), {1: 2, 2: -1})


def test_poly_parse_rejects_a_foreign_variable():
    with pytest.raises(ValueError, match="^bad polynomial term: '2x'$"):
        poly_parse("2x", Modulus(5))
