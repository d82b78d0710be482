import dataclasses
import hashlib
import random
import re
import sys
import threading
import time
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from equipart import gf2
from equipart.certify import check
from equipart.exceptions import RangeError, ShapeError
from equipart.gf2 import RingShape, product_of_forms
from equipart.problems import ConstraintProblem, all_pairs, compile_forms

from oracle import product_of_forms_oracle


def forms_of(*bits):
    return list(bits)


# ----------------------------------------------------------------------
# ring shapes and examples
# ----------------------------------------------------------------------
def test_ring_shape_validation_and_cap():
    with pytest.raises(RangeError):
        RingShape(0, 2)
    with pytest.raises(RangeError):
        RingShape(2, -1)
    with pytest.raises(RangeError):
        RingShape(6, 30)  # 31^6 cells, past the ring-size cap of 2^26
    with pytest.raises(RangeError, match="k=10000, d=2"):
        RingShape(10000, 2)  # refused without forming 3^10000
    assert RingShape(4, 70).cells == 71**4
    assert RingShape(10000, 0).cells == 1


@pytest.mark.parametrize("k, d, named", [
    (3, 10**5000, "k=3, d=<16610-bit integer>"),
    (10**5000, 3, "k=<16610-bit integer>, d=3"),
    (3, 2**1_000_000, "k=3, d=<1000001-bit integer>"),
], ids=["d=10^5000", "k=10^5000", "d=2^1000000"])
def test_ring_shape_refuses_huge_integers_by_bit_length(k, d, named):
    # past 4300 digits Python refuses to print an int, so the message names
    # such a k or d by its bit length; the refusal comes from bit lengths,
    # before (d+1)^k is formed
    start = time.perf_counter()
    with pytest.raises(RangeError, match=re.escape(f"ring with {named} has (d+1)^k = ")):
        RingShape(k, d)
    assert time.perf_counter() - start < 0.5


def test_product_of_forms_shape_mismatch():
    with pytest.raises(ShapeError):
        product_of_forms(RingShape(2, 2), [(1, 0, 0)])
    with pytest.raises(ShapeError):
        product_of_forms(RingShape(2, 2), [(1, 1), ()])


@pytest.mark.parametrize("form", [(0, 0, 0), (0, 1, 2), (1, 1, -1)])
def test_product_of_forms_refuses_a_form_that_is_not_nonzero_0_1(form):
    with pytest.raises(RangeError):
        product_of_forms(RingShape(3, 2), [(1, 0, 0), form, form])


def test_constants():
    # the empty product is one
    assert product_of_forms(RingShape(3, 4), []).support() == ((0, 0, 0),)


def test_top_of_d0_ring():
    # d = 0: the ring is GF(2) and the unit is also the top class
    assert product_of_forms(RingShape(2, 0), []).is_top()


def test_single_form_product_examples():
    # u1 * u2 * (u1 + u2)
    h = product_of_forms(RingShape(2, 2), forms_of((1, 0), (0, 1), (1, 1)))
    assert h.support() == ((1, 2), (2, 1))
    assert product_of_forms(RingShape(1, 1), forms_of((1,), (1,))).is_zero()
    assert product_of_forms(RingShape(3, 2), forms_of((0, 1, 0))).support() == ((0, 1, 0),)


def test_mul_examples():
    # (u1 + u2)^2: the cross terms cancel mod 2
    h = product_of_forms(RingShape(2, 3), forms_of((1, 1), (1, 1)))
    assert h.support() == ((0, 2), (2, 0))
    # u1^2 * u2 * u1 passes u1^2 in a d=2 ring
    assert product_of_forms(RingShape(2, 2), forms_of((1, 0), (1, 0), (0, 1), (1, 0))).is_zero()


def test_is_top_is_zero():
    shape = RingShape(2, 3)
    top = product_of_forms(shape, forms_of(*[(1, 0)] * 3, *[(0, 1)] * 3))
    assert top.is_top() and not top.is_zero()
    z = product_of_forms(shape, forms_of(*[(1, 1)] * 4))  # u1^4 + u2^4, both past d
    assert z.is_zero() and not z.is_top()
    # u1^3 * u2 * (u1 + u2) = u1^3 * u2^2, nonzero below the top class
    h = product_of_forms(shape, forms_of(*[(1, 0)] * 3, (0, 1), (1, 1)))
    assert h.support() == ((3, 2),) and not h.is_top()


def test_product_of_forms_single_variable():
    shape = RingShape(1, 1)
    assert product_of_forms(shape, [(1,)]).is_top()


def test_product_of_forms_cascade_instance():
    # 12 forms of the (1,1,2)-cascade over 3 hyperplanes hit the top class
    forms = compile_forms(ConstraintProblem.of(3, m=(1, 1, 2)))
    assert len(forms) == 12 and forms[-2:] == [(0, 0, 1)] * 2
    h = product_of_forms(RingShape(3, 4), forms)
    assert h.support() == ((4, 4, 4),)


def test_product_of_forms_full_ortho_negative_control():
    # 3 copies of all 7 nonzero vectors plus the 3 pair forms vanish at d=9
    forms = compile_forms(ConstraintProblem.of(3, m=(3,), ortho=all_pairs(3)))
    assert forms[-3:] == [(1, 1, 0), (1, 0, 1), (0, 1, 1)]
    assert product_of_forms(RingShape(3, 9), forms).is_zero()


# ----------------------------------------------------------------------
# properties against the brute-force oracle
# ----------------------------------------------------------------------
@st.composite
def shaped_form(draw):
    k = draw(st.integers(1, 5))
    d = draw(st.integers(0, 6 if k < 5 else 3))
    bits = draw(st.lists(st.integers(0, 1), min_size=k, max_size=k).filter(any))
    return RingShape(k, d), tuple(bits)


@settings(max_examples=60, deadline=None)
@given(shaped_form())
def test_single_form_product_matches_oracle(data):
    shape, form = data
    h = product_of_forms(shape, [form])
    expect = product_of_forms_oracle(shape.k, shape.d, [form]).sorted_support()
    assert h.support() == expect


@settings(max_examples=60, deadline=None)
@given(shaped_form(), st.integers(0, 3))
def test_frobenius(data, b):
    # l^(2^b) = sum of u_i^(2^b) over the support of l, the identity the
    # kernel's passes rest on; b = 0 says a one-form product is the form
    shape, form = data
    s = 1 << b
    h = product_of_forms(shape, [form] * s)
    powers = [tuple(s * int(j == i) for j in range(shape.k)) for i, bit in enumerate(form) if bit]
    assert h.support() == (tuple(sorted(powers)) if s <= shape.d else ())


@st.composite
def form_multisets(draw):
    """(k, d, forms): up to 4 distinct forms, each repeated 1..9 times, so
    that the Frobenius passes see every bit of a multiplicity up to 9.
    Five variables get d <= 3, which keeps the oracle fast."""
    k = draw(st.integers(1, 5))
    d = draw(st.integers(0, 6 if k < 5 else 3))
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
    h = product_of_forms(RingShape(k, d), forms)
    assert h.support() == product_of_forms_oracle(k, d, forms).sorted_support()
    assert product_of_forms(RingShape(k, d), Counter(forms)) == h  # the same as a mapping
    # check's verdicts at every d' that fits the forms agree with the oracle
    problem = ConstraintProblem.of(k, extra=forms)
    for dd in range(1, 7 if k < 5 else 4):
        if len(forms) > k * dd:
            continue
        expect = product_of_forms_oracle(k, dd, forms).sorted_support()
        relaxed = check(problem, dd, "relaxed")
        assert relaxed.certified == bool(expect)
        assert relaxed.h_is_top == (expect == ((dd,) * k,))
        if len(forms) == k * dd:
            assert check(problem, dd, "strict").certified == (expect == ((dd,) * k,))


@st.composite
def counted_forms(draw):
    """(k, d, counts): up to 3 distinct forms, each of multiplicity up to
    2^7, so that a product takes up to eight powers.  d reaches 300 for
    one variable and 150 for two, where such multiplicities still leave
    terms; three and four variables get d <= 16 and d <= 6, which keeps
    the oracle fast, and mostly multiplicities below 10, which leave
    terms there."""
    k = draw(st.integers(1, 4))
    d = draw(st.integers(0, (300, 150, 16, 6)[k - 1]))
    distinct = draw(
        st.lists(
            st.tuples(*[st.integers(0, 1)] * k).filter(any),
            min_size=1, max_size=3, unique=True,
        )
    )
    n = st.integers(1, 1 << 7) if k < 3 else st.one_of(st.integers(1, 9), st.integers(1, 1 << 7))
    return k, d, {bits: draw(n) for bits in distinct}


@pytest.mark.parametrize("budget", [gf2.MASK_CACHE_BITS, 0], ids=["kept", "held"])
@settings(max_examples=60, deadline=None)
@given(counted_forms())
def test_counted_product_matches_oracle(budget, data):
    # with no mask budget no ring's masks are kept, so each product holds
    # its own from the first use of a mask in a power to the last
    k, d, counts = data
    forms = [bits for bits, n in counts.items() for _ in range(n)]
    expect = product_of_forms_oracle(k, d, forms).sorted_support()
    with mock.patch.object(gf2, "MASK_CACHE_BITS", budget):
        assert product_of_forms(RingShape(k, d), counts).support() == expect


def test_product_past_the_kept_masks_matches_oracle():
    # a 4^10 = 2^20-cell slice, past the line below which every mask of a
    # ring is kept, so the product holds its masks itself; the forms share
    # axes within a power and across the powers 1 and 2
    k, d = 11, 3
    assert (d + 1) ** (k - 1) + gf2.MASK_ENTRY_BITS > gf2.MASK_CACHE_BITS >> 3

    def form(*coords):
        return tuple(int(i + 1 in coords) for i in range(k))

    counts = {form(1, 2): 3, form(1, 3): 2, form(2, 11): 1, (1,) * k: 1, form(1): 2}
    forms = [bits for bits, n in counts.items() for _ in range(n)]
    h = product_of_forms(RingShape(k, d), counts)
    assert h.terms and h == product_of_forms(RingShape(k, d), forms)
    assert h.support() == product_of_forms_oracle(k, d, forms).sorted_support()


@pytest.mark.parametrize("n", [-1, 0, True, False, 1.5, 2.0, "2", None])
def test_product_of_forms_refuses_a_multiplicity_that_is_not_a_positive_int(n):
    # a Counter keeps a negative count: {(1, 0): -1, (0, 1): 2} once gave
    # the product ((3, 2),)
    with pytest.raises(RangeError, match=re.escape("form (1, 0) needs a positive int multiplicity")):
        product_of_forms(RingShape(2, 3), {(1, 0): n, (0, 1): 2})


@settings(max_examples=100, deadline=None)
@given(form_multisets())
def test_truncate_matches_oracle_at_every_smaller_d(data):
    # reducing mod u_i^(d'+1) is a ring map: the product at d, truncated
    # to d' <= d, is the product at d'
    k, d, forms = data
    h = product_of_forms(RingShape(k, d), forms)
    assert h.truncate(d) is h
    for dd in range(d):
        low = h.truncate(dd)
        assert low.shape == RingShape(k, dd)
        assert low.support() == product_of_forms_oracle(k, dd, forms).sorted_support()
    with pytest.raises(RangeError, match=f"from d={d} up to d={d + 1}"):
        h.truncate(d + 1)


# Products whose live window sits at an edge of the slice.  The live cells
# of a degree-j product have exponent sums in [j-d, j] over u1..u_{k-1}.
WINDOW_EDGES = {
    # j < d: the window starts at cell 0, here the live cell u3^2
    "below-d": (3, 5, [(0, 0, 1)] * 2, ((0, 0, 2),)),
    "below-d-mixed": (3, 5, [(1, 1, 0), (0, 1, 1)], ((0, 1, 1), (0, 2, 0), (1, 0, 1), (1, 1, 0))),
    # j = kd: a one-cell window, the last cell
    "top": (3, 2, [(1, 0, 0)] * 2 + [(0, 1, 1)] * 2 + [(1, 1, 1), (0, 0, 1)], ((2, 2, 2),)),
    "top-zero": (2, 2, [(1, 1)] * 4, ()),
    # j = kd - 1: the window of a drop-one relaxed product
    "drop-one": (3, 2, [(1, 1, 1)] * 3 + [(0, 1, 0), (1, 0, 0)], ((1, 2, 2), (2, 1, 2))),
    # more forms than kd: no cell can be live, though the slice is not empty
    "past-kd": (3, 2, [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1), (0, 1, 0), (1, 0, 0), (1, 1, 0)],
                ()),
    # k = 1: a one-cell slice, the u1 exponent read off j
    "k1": (1, 4, [(1,)] * 3, ((3,),)),
    "k1-top": (1, 4, [(1,)] * 4, ((4,),)),
    "k1-past-d": (1, 2, [(1,)] * 3, ()),
}


@pytest.mark.parametrize("case", sorted(WINDOW_EDGES))
def test_support_window_edges(case):
    k, d, forms, expect = WINDOW_EDGES[case]
    h = product_of_forms(RingShape(k, d), forms)
    assert h.support() == expect == product_of_forms_oracle(k, d, forms).sorted_support()


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
        forms.append(bits if any(bits) else (1,) * k)
    shape = RingShape(k, d)
    base = product_of_forms(shape, forms)
    for _ in range(4):
        rnd.shuffle(forms)
        assert product_of_forms(shape, forms) == base


def test_product_of_forms_hundred_shuffles():
    forms = compile_forms(ConstraintProblem.of(3, m=(1, 1)))
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
        forms.append(bits if any(bits) else (1,) * k)
    h = product_of_forms(RingShape(k, d), forms)
    assert h.is_zero() or {sum(e) for e in h.support()} == {n_forms}


# ----------------------------------------------------------------------
# closed forms past the oracle's reach
# ----------------------------------------------------------------------
def submasks(n):
    """Every i whose set bits are a subset of n's."""
    return [i for i in range(n + 1) if i & n == i]


def binomial_support(n, d):
    """(u1+u2)^n mod 2 truncated at d: by Lucas, C(n, i) is odd iff i and
    n-i share no bit."""
    return tuple((i, n - i) for i in submasks(n) if max(i, n - i) <= d)


def trinomial_support(n, d):
    """(u1+u2+u3)^n mod 2 truncated at d: the multinomial coefficient is
    odd iff the three exponents have pairwise disjoint bits, that is, they
    split the bits of n."""
    return tuple(
        (a, b, n - a - b)
        for a in submasks(n)
        for b in submasks(n - a)
        if max(a, b, n - a - b) <= d
    )


@pytest.mark.parametrize("d", [63, 64, 100, 255])
def test_binomial_powers_match_lucas(d):
    # slices of d+1 = 64, 65, 101 and 256 cells, whole bytes or not
    for n in range(2 * d + 2):
        h = product_of_forms(RingShape(2, d), [(1, 1)] * n)
        assert h.support() == binomial_support(n, d), n


@pytest.mark.parametrize("d", [63, 64, 100, 255])
def test_trinomial_powers_match_disjoint_bits(d):
    # slices of (d+1)^2 cells: 4096, 4225, 10201 and 65536
    for n in [*range(0, 3 * d + 2, 7), d, d + 1, 2 * d, 3 * d]:
        h = product_of_forms(RingShape(3, d), [(1, 1, 1)] * n)
        assert h.support() == trinomial_support(n, d), n


def test_forty_thousand_copies_of_u1_reach_the_top():
    # the u_k exponent 40,000 must come through its column unchanged
    h = product_of_forms(RingShape(1, 40_000), [(1,)] * 40_000)
    assert h.support() == ((40_000,),) and h.is_top()


def test_one_form_in_a_twenty_variable_ring():
    # a 2^19-cell slice: the form itself, u1 + ... + u20
    h = product_of_forms(RingShape(20, 1), [(1,) * 20])
    basis = [tuple(int(j == i) for j in range(20)) for i in range(20)]
    assert h.support() == tuple(sorted(basis))


def test_wide_one_form_product_holds_one_axis_mask():
    # a 2^25-cell slice (4 MB) and 25 axis masks as large; each mask is
    # dropped after its last use, so they are never all held at once
    tracemalloc.start()
    try:
        h = product_of_forms(RingShape(26, 1), [(1,) * 26])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(h.support()) == 26
    assert peak < 64 * 2**20


def clear_masks():
    gf2._masks.clear()
    gf2._mask_bits = 0


def test_kept_axis_masks_equal_fresh_builds():
    # a mask from the cache, cold or warm, is the int a fresh build gives,
    # and that int holds exactly the cells whose u_(ax+1) exponent is <= e
    rnd = random.Random(30)
    clear_masks()
    for _ in range(200):
        k = rnd.randint(2, 5)
        d = rnd.randint(0, 9 if k < 5 else 4)
        ax, e = rnd.randrange(k - 1), rnd.randint(0, d)
        stride = (d + 1) ** (k - 2 - ax)
        expect = sum(
            1 << c for c in range((d + 1) ** (k - 1)) if c // stride % (d + 1) <= e
        )
        assert gf2._axis_mask(k, d, ax, e) == gf2._axis_at_most(k, d, ax, e) == expect
        assert gf2._axis_mask(k, d, ax, e) == expect


def test_mask_cache_stays_within_its_budget():
    # rings large enough to fill the budget several times over: the cache
    # empties itself before it would pass it, and never keeps a mask
    # charged more than an eighth of it
    clear_masks()
    cleared = 0
    for d in range(40, 140, 3):
        for ax in range(3):
            for e in (0, d // 2, d - 1):
                before = len(gf2._masks)
                gf2._axis_mask(4, d, ax, e)
                cleared += len(gf2._masks) < before
                charges = [m.bit_length() + gf2.MASK_ENTRY_BITS for m in gf2._masks.values()]
                assert gf2._mask_bits == sum(charges) <= gf2.MASK_CACHE_BITS
                assert max(charges, default=0) <= gf2.MASK_CACHE_BITS >> 3
    assert cleared


def test_mask_cache_charge_stays_exact_under_threads():
    # four threads filling and emptying the cache, the interpreter
    # switching between them as often as it can: a lost update would leave
    # the charge apart from the masks kept (without the lock, this caught
    # one in about a third of runs)
    clear_masks()
    keys = [(2, d, 0, e) for d in range(200) for e in range(d + 1)]  # 20,100 small masks
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=lambda seed=seed: [
                gf2._axis_mask(*key) for key in random.Random(seed).sample(keys, len(keys))
            ])
            for seed in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    charges = [m.bit_length() + gf2.MASK_ENTRY_BITS for m in gf2._masks.values()]
    assert gf2._mask_bits == sum(charges) <= gf2.MASK_CACHE_BITS


@settings(max_examples=150, deadline=None)
@given(form_multisets())
def test_products_do_not_depend_on_the_mask_cache(data):
    k, d, forms = data
    clear_masks()
    cold = product_of_forms(RingShape(k, d), forms)
    warm = product_of_forms(RingShape(k, d), forms)
    assert cold.support() == warm.support()
    assert cold.digest() == warm.digest()


def test_wide_one_form_product_keeps_no_mask():
    # the 2^25-cell masks are past the cache's per-mask limit: once the
    # product returns, none of them is held
    clear_masks()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        h = product_of_forms(RingShape(26, 1), [(1,) * 26])
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(h.support()) == 26
    assert after - before < 2**20  # one 2^25-bit mask is 4 MB
    assert not [key for key in gf2._masks if key[:2] == (26, 1)]


# ----------------------------------------------------------------------
# digest and immutability
# ----------------------------------------------------------------------
def test_digest_hashes_the_canonical_json():
    h = product_of_forms(RingShape(2, 3), forms_of((1, 1), (1, 1), (1, 1)))
    assert h.support() == ((0, 3), (1, 2), (2, 1), (3, 0))
    canonical = '{"d":3,"k":2,"support":[[0,3],[1,2],[2,1],[3,0]]}'
    assert h.digest() == hashlib.sha256(canonical.encode("ascii")).hexdigest()
    zero = product_of_forms(RingShape(2, 3), forms_of(*[(1, 1)] * 4))
    assert zero.digest() == hashlib.sha256(b'{"d":3,"k":2,"support":[]}').hexdigest()


def canonical_digest(k, d, support):
    cells = ",".join("[" + ",".join(map(str, t)) + "]" for t in support)
    text = f'{{"d":{d},"k":{k},"support":[{cells}]}}'
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def test_strict_digests_come_from_the_memo_and_hash_the_canonical_json():
    # zero and the top monomial, the only products a strict certificate
    # can have, take their digest from a per-ring memo; cold or warm, it
    # is the hash of the canonical JSON
    grid = [(k, d) for k in range(1, 5) for d in range(0, 6)]
    gf2._strict_digest.cache_clear()
    for warm in (False, True):
        for k, d in grid:
            shape = RingShape(k, d)
            unit_forms = [tuple(int(j == i) for j in range(k)) for i in range(k)]
            top = product_of_forms(shape, [f for f in unit_forms for _ in range(d)])
            zero = product_of_forms(shape, [unit_forms[0]] * (d + 1))
            assert top.is_top() and zero.is_zero()
            assert top.digest() == canonical_digest(k, d, [(d,) * k])
            assert zero.digest() == canonical_digest(k, d, [])
        info = gf2._strict_digest.cache_info()
        assert (info.hits, info.misses) == ((2 * len(grid), 2 * len(grid)) if warm else (0, 2 * len(grid)))
    # any other support is hashed as it is
    h = product_of_forms(RingShape(3, 2), [(1, 1, 1)] * 2)
    assert h.digest() == canonical_digest(3, 2, h.support())


def test_immutability():
    h = product_of_forms(RingShape(2, 2), [])
    with pytest.raises(dataclasses.FrozenInstanceError):
        h.shape = RingShape(2, 3)
