import itertools

import pytest

from vknotoid.ring import (BracketPolynomial, Modulus, ModulusMismatch,
                           NotAUnit, inverse, poly_add,
                           poly_parse, poly_render)


def brute_inverse(a, m):
    for b in range(m):
        if a * b % m == 1:
            return b
    return None


def test_inverse_examples():
    assert inverse(Modulus(5).element(4)).value == 4
    assert inverse(Modulus(37).element(9)).value == 33
    assert 9 * 33 % 37 == 1
    for m in (2, 3, 5, 37):
        assert inverse(Modulus(m).element(1)).value == 1


def test_inverse_matches_brute_force():
    for m in (2, 5, 6, 12, 37):
        mod = Modulus(m)
        for a in range(m):
            expected = brute_inverse(a, m)
            if expected is None:
                with pytest.raises(NotAUnit):
                    inverse(mod.element(a))
            else:
                el = inverse(mod.element(a))
                assert el.value == expected
                assert (mod.element(a) * el).value == 1


def test_modulus_validation():
    with pytest.raises(ValueError):
        Modulus(1)
    Modulus(2)


def test_mixed_modulus_rejected():
    a = Modulus(5).element(2)
    b = Modulus(7).element(2)
    with pytest.raises(ModulusMismatch):
        a + b
    with pytest.raises(ModulusMismatch):
        a * b


def test_element_arithmetic():
    m = Modulus(5)
    assert (m.element(3) + m.element(4)).value == 2
    assert (m.element(3) - m.element(4)).value == 4
    assert (m.element(3) * m.element(4)).value == 2
    assert (m.element(2) ** 3).value == 3
    assert (m.element(2) ** -1).value == 3
    assert (-m.element(2)).value == 3
    assert int(m.element(9)) == 4


def test_poly_add_examples():
    z5 = Modulus(5)
    p = BracketPolynomial.from_dict(z5, {3: 1})
    q = BracketPolynomial.from_dict(z5, {3: 1, 2: 1})
    assert poly_add(p, q).as_dict() == {3: 2, 2: 1}
    empty = BracketPolynomial.zero(z5)
    assert poly_add(p, empty) == p
    r = BracketPolynomial.from_dict(z5, {2: 1})
    s = BracketPolynomial.from_dict(z5, {2: 2})
    assert poly_add(r, s).as_dict() == {2: 3}
    with pytest.raises(ModulusMismatch):
        poly_add(p, BracketPolynomial.zero(Modulus(7)))


def test_poly_add_commutes_and_associates():
    z7 = Modulus(7)
    polys = [BracketPolynomial.from_dict(z7, d)
             for d in ({}, {0: 2}, {1: 1, 6: 3}, {2: 1})]
    for p, q in itertools.product(polys, repeat=2):
        assert poly_add(p, q) == poly_add(q, p)
    for p, q, r in itertools.product(polys, repeat=3):
        assert poly_add(poly_add(p, q), r) == poly_add(p, poly_add(q, r))


def test_poly_render_examples():
    z5 = Modulus(5)
    assert poly_render(BracketPolynomial.from_dict(z5, {3: 2, 2: 1})) == "2u^3+u^2"
    assert poly_render(BracketPolynomial.zero(z5)) == "0"
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
