"""Multiplication tables, conjugation, and the norm form of the
composition algebras built by Cayley-Dickson doubling."""

import random
from fractions import Fraction

import pytest

from glap.composition import ALGEBRAS, algebra_by_tag, cayley_dickson, norm_form
from glap.errors import DimTooLarge
from glap.linalg import signature_of_symmetric

F = Fraction

H = ALGEBRAS["H"]
O = ALGEBRAS["O"]


# A reference arithmetic over K, independent of ``unit_table``: elements
# are coordinate tuples of Fractions, multiplied over the raw ``_table``.


def unit(alg, t):
    """The basis element e_t."""
    return tuple(F(int(s == t)) for s in range(alg.dim))


def add(*xs):
    return tuple(sum(cs, F(0)) for cs in zip(*xs))


def scale(c, x):
    return tuple(c * a for a in x)


def mul(alg, x, y):
    """x y, with e_s e_t = c e_u read from ``alg._table[s][t] = (u, c)``."""
    out = [F(0)] * alg.dim
    for s, a in enumerate(x):
        for t, b in enumerate(y):
            if a and b:
                u, c = alg._table[s][t]
                out[u] += a * b * c
    return tuple(out)


def conj(alg, x):
    return tuple(s * a for s, a in zip(alg._conj, x))


def norm(alg, x):
    """N(x) with conj(x) x = N(x) 1, which must be real."""
    prod = mul(alg, conj(alg, x), x)
    assert not any(prod[1:]), prod
    return prod[0]


def test_quaternion_units():
    i, j, k = unit(H, 1), unit(H, 2), unit(H, 3)
    assert mul(H, i, j) == k
    assert mul(H, j, i) == scale(-1, k)


def test_quaternion_defining_relations():
    for t in (1, 2, 3):
        e = unit(H, t)
        assert mul(H, e, e) == scale(-1, unit(H, 0))


def test_split_complex_unit_squares_to_plus_one():
    Cs = ALGEBRAS["C'"]
    j = unit(Cs, 1)
    assert mul(Cs, j, j) == unit(Cs, 0)


def test_quaternion_product_of_mixed_elements():
    one, i, j, k = (unit(H, t) for t in range(4))
    left = mul(H, add(one, i), add(one, j))
    assert left == add(one, i, j, k)


def test_octonions_are_not_associative():
    i, j, ell = unit(O, 1), unit(O, 2), unit(O, 4)
    assert mul(O, mul(O, i, j), ell) != mul(O, i, mul(O, j, ell))


def test_associativity_flags():
    for tag in ("R", "C", "C'", "H", "H'"):
        assert ALGEBRAS[tag].is_associative()
    for tag in ("O", "O'"):
        assert not ALGEBRAS[tag].is_associative()


def _random_element(alg, rng):
    return tuple(F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(alg.dim))


def test_conjugation_sum_identity():
    rng = random.Random(7)
    for alg in ALGEBRAS.values():
        for _ in range(10):
            x = _random_element(alg, rng)
            assert add(x, conj(alg, x)) == scale(2 * x[0], unit(alg, 0))


def test_conjugation_is_an_anti_automorphism():
    for alg in ALGEBRAS.values():
        for a in range(alg.dim):
            for b in range(alg.dim):
                x, y = unit(alg, a), unit(alg, b)
                assert conj(alg, mul(alg, x, y)) == mul(alg, conj(alg, y), conj(alg, x))


def test_composition_property_on_basis_pairs():
    for alg in ALGEBRAS.values():
        for a in range(alg.dim):
            for b in range(alg.dim):
                x, y = unit(alg, a), unit(alg, b)
                assert norm(alg, mul(alg, x, y)) == norm(alg, x) * norm(alg, y)


def test_composition_property_on_random_pairs():
    rng = random.Random(20240816)
    for alg in ALGEBRAS.values():
        for _ in range(100):
            x = _random_element(alg, rng)
            y = _random_element(alg, rng)
            assert norm(alg, mul(alg, x, y)) == norm(alg, x) * norm(alg, y)


def test_imaginary_part_is_kernel_of_re():
    for alg in ALGEBRAS.values():
        for t in range(1, alg.dim):
            assert unit(alg, t)[0] == 0
        x = (F(3),) + (F(1),) * (alg.dim - 1)
        im = (F(0),) + x[1:]
        assert im == add(x, scale(-3, unit(alg, 0)))
        assert im[0] == 0


def test_commutator_style_bracket_lands_in_imaginary_part():
    rng = random.Random(99)
    for alg in ALGEBRAS.values():
        for _ in range(20):
            x = _random_element(alg, rng)
            y = _random_element(alg, rng)
            v = add(mul(alg, conj(alg, x), y), scale(-1, mul(alg, conj(alg, y), x)))
            assert v[0] == 0


def test_split_octonions_contain_null_vectors():
    Os = ALGEBRAS["O'"]
    x = add(unit(Os, 0), unit(Os, 4))
    assert any(x)
    assert norm(Os, x) == 0
    assert not any(mul(Os, conj(Os, x), x))


@pytest.mark.parametrize(
    "tag,expected",
    [("O", (8, 0, 0)), ("O'", (4, 4, 0)), ("C'", (1, 1, 0)), ("H", (4, 0, 0))],
)
def test_norm_form_signatures(tag, expected):
    alg = ALGEBRAS[tag]
    G = norm_form(alg)
    assert signature_of_symmetric(G) == expected
    # G[s][t] = Re(conj(e_s) e_t)
    assert G.a == [
        [mul(alg, conj(alg, unit(alg, s)), unit(alg, t))[0] for t in range(alg.dim)]
        for s in range(alg.dim)
    ]


def test_doubling_stops_at_dimension_eight():
    with pytest.raises(DimTooLarge):
        cayley_dickson(O, -1)


def test_algebra_registry_lookup():
    assert algebra_by_tag("H'").dim == 4
    assert algebra_by_tag("O'").dim == 8
    with pytest.raises(Exception):
        algebra_by_tag("X")
