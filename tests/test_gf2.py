import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from equipart.certify import check
from equipart.exceptions import RangeError, ShapeError
from equipart.gf2 import (
    RingShape,
    SignVector,
    TruncatedPolynomial,
    nonzero_vectors_on,
    product_of_forms,
)
from equipart.problems import ConstraintProblem

from oracle import DictPoly, product_of_forms_oracle


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
shapes = st.builds(
    RingShape, k=st.integers(min_value=1, max_value=4), d=st.integers(min_value=0, max_value=6)
)


@st.composite
def shaped_polys(draw, n=1, max_terms=6):
    shape = draw(shapes)
    polys = []
    for _ in range(n):
        terms = draw(
            st.lists(
                st.tuples(*[st.integers(0, shape.d) for _ in range(shape.k)]),
                max_size=max_terms,
            )
        )
        polys.append(TruncatedPolynomial.from_support(shape, terms))
    return (shape, *polys)


@st.composite
def shaped_poly_and_form(draw):
    shape, p = draw(shaped_polys(n=1))
    bits = draw(
        st.lists(st.integers(0, 1), min_size=shape.k, max_size=shape.k).filter(any)
    )
    return shape, p, SignVector(tuple(bits))


def to_oracle(p: TruncatedPolynomial) -> DictPoly:
    return DictPoly(p.shape.k, p.shape.d, p.support())


# ----------------------------------------------------------------------
# constructors and trivia
# ----------------------------------------------------------------------
def test_constants():
    assert TruncatedPolynomial.zero(RingShape(2, 2)).support() == ()
    assert TruncatedPolynomial.one(RingShape(3, 4)).support() == ((0, 0, 0),)
    shape = RingShape(2, 2)
    assert TruncatedPolynomial.monomial(shape, (2, 2)).support() == ((2, 2),)
    shape = RingShape(3, 4)
    assert TruncatedPolynomial.one(shape) == TruncatedPolynomial.monomial(shape, (0, 0, 0))


def test_monomial_out_of_range():
    with pytest.raises(RangeError):
        TruncatedPolynomial.monomial(RingShape(2, 2), (3, 0))
    with pytest.raises(RangeError):
        TruncatedPolynomial.monomial(RingShape(2, 2), (0, -1))


def test_ring_shape_validation_and_cap():
    with pytest.raises(RangeError):
        RingShape(0, 2)
    with pytest.raises(RangeError):
        RingShape(2, -1)
    with pytest.raises(RangeError):
        RingShape(6, 30)  # 31^6 cells, past the dense-representation cap


def test_add_examples():
    shape = RingShape(2, 2)
    u1 = TruncatedPolynomial.monomial(shape, (1, 0))
    u2 = TruncatedPolynomial.monomial(shape, (0, 1))
    assert (u1 + u1).is_zero()
    assert (u1 + u2).support() == ((0, 1), (1, 0))
    assert ((u1 + u2) + u2) == u1


def test_add_shape_mismatch():
    with pytest.raises(ShapeError):
        TruncatedPolynomial.one(RingShape(2, 2)) + TruncatedPolynomial.one(RingShape(2, 3))
    with pytest.raises(ShapeError):
        product_of_forms(RingShape(2, 2), [SignVector((1, 0, 0))])


def test_single_form_product_examples():
    shape = RingShape(2, 2)
    p = TruncatedPolynomial.monomial(shape, (1, 1))
    assert (p * product_of_forms(shape, [SignVector((1, 1))])).support() == ((1, 2), (2, 1))

    shape1 = RingShape(1, 1)
    u1 = TruncatedPolynomial.monomial(shape1, (1,))
    assert (u1 * product_of_forms(shape1, [SignVector((1,))])).is_zero()

    shape3 = RingShape(3, 2)
    assert product_of_forms(shape3, [SignVector((0, 1, 0))]).support() == ((0, 1, 0),)


def test_mul_examples():
    shape = RingShape(2, 3)
    u1 = TruncatedPolynomial.monomial(shape, (1, 0))
    u2 = TruncatedPolynomial.monomial(shape, (0, 1))
    s = u1 + u2
    assert (s * s).support() == ((0, 2), (2, 0))  # cross terms cancel mod 2

    d2 = RingShape(2, 2)
    v1 = TruncatedPolynomial.monomial(d2, (1, 0))
    v2 = TruncatedPolynomial.monomial(d2, (0, 1))
    assert (TruncatedPolynomial.monomial(d2, (2, 1)) * v1).is_zero()
    assert (v1 * v2 * (v1 + v2)).support() == ((1, 2), (2, 1))


def test_is_top_is_zero():
    shape = RingShape(2, 3)
    top = TruncatedPolynomial.monomial(shape, (3, 3))
    assert top.is_top()
    z = TruncatedPolynomial.zero(shape)
    assert z.is_zero() and not z.is_top()
    assert not (top + TruncatedPolynomial.monomial(shape, (3, 0))).is_top()


def test_top_of_d0_ring():
    # d = 0: the ring is GF(2) and the unit is also the top class
    assert TruncatedPolynomial.one(RingShape(2, 0)).is_top()


def test_product_of_forms_single_variable():
    shape = RingShape(1, 1)
    assert product_of_forms(shape, [SignVector((1,))]).is_top()


def test_product_of_forms_cascade_instance():
    # 12 forms of the (1,1,2)-cascade over 3 hyperplanes hit the top class
    forms = (
        nonzero_vectors_on(3, 1)
        + nonzero_vectors_on(3, 2)
        + [SignVector.basis(3, 3)] * 2
    )
    assert len(forms) == 12
    h = product_of_forms(RingShape(3, 4), forms)
    assert h.support() == ((4, 4, 4),)


def test_product_of_forms_full_ortho_negative_control():
    # 3 copies of all 7 nonzero vectors plus the 3 pair forms vanish at d=9
    forms = nonzero_vectors_on(3, 1) * 3 + [
        SignVector.pair(3, 1, 2),
        SignVector.pair(3, 1, 3),
        SignVector.pair(3, 2, 3),
    ]
    assert product_of_forms(RingShape(3, 9), forms).is_zero()


# ----------------------------------------------------------------------
# properties against the brute-force oracle
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(shaped_polys(n=2))
def test_mul_matches_oracle(data):
    shape, p, q = data
    expect = to_oracle(p).mul(to_oracle(q)).sorted_support()
    assert (p * q).support() == expect


@settings(max_examples=60, deadline=None)
@given(shaped_poly_and_form())
def test_single_form_product_matches_oracle_and_general_mul(data):
    shape, p, form = data
    expect = to_oracle(p).mul_form(form.bits).sorted_support()
    h = product_of_forms(shape, [form])
    assert (p * h).support() == expect
    # the product of one form is the form itself, u_i for i in its support
    units = [tuple(int(j == i - 1) for j in range(shape.k)) for i in form.support()]
    assert h == TruncatedPolynomial.from_support(shape, units if shape.d >= 1 else [])


@st.composite
def form_multisets(draw):
    """(k, d, forms): up to 4 distinct forms, each repeated 1..9 times, so
    that the Frobenius passes see every bit of a multiplicity up to 9."""
    k = draw(st.integers(1, 4))
    d = draw(st.integers(0, 6))
    distinct = draw(
        st.lists(
            st.tuples(*[st.integers(0, 1)] * k).filter(any), max_size=4, unique=True
        )
    )
    forms = [bits for bits in distinct for _ in range(draw(st.integers(1, 9)))]
    return k, d, draw(st.permutations(forms))


@settings(max_examples=150, deadline=None)
@given(form_multisets())
def test_product_of_forms_matches_oracle(data):
    k, d, forms = data
    h = product_of_forms(RingShape(k, d), [SignVector(bits) for bits in forms])
    assert h.support() == product_of_forms_oracle(k, d, forms).sorted_support()
    # check's verdicts at every d' that fits the forms agree with the oracle
    problem = ConstraintProblem.of(k, extra=forms)
    for dd in range(1, 7):
        if len(forms) > k * dd:
            continue
        expect = product_of_forms_oracle(k, dd, forms).sorted_support()
        relaxed = check(problem, dd, "relaxed")
        assert relaxed.certified == bool(expect)
        assert relaxed.h_is_top == (expect == ((dd,) * k,))
        if len(forms) == k * dd:
            assert check(problem, dd, "strict").certified == (expect == ((dd,) * k,))


@settings(max_examples=40, deadline=None)
@given(shaped_polys(n=3))
def test_ring_axioms(data):
    shape, p, q, r = data
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert (p + p).is_zero()
    assert TruncatedPolynomial.one(shape) * p == p


@settings(max_examples=40, deadline=None)
@given(shaped_polys(n=1))
def test_frobenius(data):
    shape, p = data
    sq = p * p
    expect = tuple(
        sorted(
            tuple(2 * e for e in exps)
            for exps in p.support()
            if all(2 * e <= shape.d for e in exps)
        )
    )
    assert sq.support() == expect


@settings(max_examples=30, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(1, 4),
    st.integers(2, 8),
    st.randoms(use_true_random=False),
)
def test_product_of_forms_order_independent(k, d, n_forms, rnd):
    forms = []
    for _ in range(n_forms):
        bits = tuple(rnd.randint(0, 1) for _ in range(k))
        forms.append(SignVector(bits if any(bits) else (1,) * k))
    shape = RingShape(k, d)
    base = product_of_forms(shape, forms)
    for _ in range(4):
        rnd.shuffle(forms)
        assert product_of_forms(shape, forms) == base


def test_product_of_forms_hundred_shuffles():
    forms = nonzero_vectors_on(3, 1) + nonzero_vectors_on(3, 2)
    shape = RingShape(3, 5)
    base = product_of_forms(shape, forms)
    rng = np.random.default_rng(42)
    for _ in range(100):
        perm = rng.permutation(len(forms))
        assert product_of_forms(shape, [forms[i] for i in perm]) == base


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.integers(1, 5), st.integers(0, 9), st.randoms(use_true_random=False))
def test_form_products_are_homogeneous(k, d, n_forms, rnd):
    forms = []
    for _ in range(n_forms):
        bits = tuple(rnd.randint(0, 1) for _ in range(k))
        forms.append(SignVector(bits if any(bits) else (1,) * k))
    h = product_of_forms(RingShape(k, d), forms)
    assert h.is_zero() or {sum(e) for e in h.support()} == {n_forms}


# ----------------------------------------------------------------------
# sign vectors
# ----------------------------------------------------------------------
def test_sign_vector_validation():
    with pytest.raises(RangeError):
        SignVector((0, 0))
    with pytest.raises(RangeError):
        SignVector((0, 2))
    with pytest.raises(RangeError):
        SignVector(())


def test_sign_vector_helpers():
    assert SignVector.basis(3, 2).bits == (0, 1, 0)
    assert SignVector.pair(3, 1, 3).bits == (1, 0, 1)
    assert (SignVector((1, 1, 0)) + SignVector((0, 1, 1))).bits == (1, 0, 1)
    assert SignVector((1, 0, 1)).support() == (1, 3)
    assert nonzero_vectors_on(2, 1) == [
        SignVector((1, 0)),
        SignVector((0, 1)),
        SignVector((1, 1)),
    ]
    assert len(nonzero_vectors_on(4, 2)) == 7


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------
def test_json_round_trip_and_digest_stability():
    shape = RingShape(2, 3)
    p = TruncatedPolynomial.from_support(shape, [(1, 2), (0, 0), (3, 3)])
    doc = json.loads(p.canonical_json())
    assert doc == {"k": 2, "d": 3, "support": [[0, 0], [1, 2], [3, 3]]}
    assert TruncatedPolynomial.from_dict(doc) == p
    assert p.digest() == TruncatedPolynomial.from_dict(doc).digest()
    assert p.digest() != (p + TruncatedPolynomial.one(shape)).digest()


def test_str_form():
    shape = RingShape(2, 3)
    p = TruncatedPolynomial.from_support(shape, [(2, 1), (0, 0)])
    assert str(p) == "1 + u1^2*u2"
    assert str(TruncatedPolynomial.zero(shape)) == "0"


def test_immutability():
    p = TruncatedPolynomial.one(RingShape(2, 2))
    with pytest.raises(ValueError):
        p.coeffs[0, 0] = False
    with pytest.raises(AttributeError):
        p.shape = RingShape(2, 3)
