from random import Random

import pytest
from hypothesis import given, strategies as st

import khlab as K
from khlab.braid import crossing_ids
from khlab.diagram import Resolver
from khlab.errors import InputError, NonPositiveWordError

from helpers import braid_closure_reference, braid_permutation_reference


@st.composite
def braid_words(draw):
    p = draw(st.integers(1, 5))
    if p == 1:
        return K.BraidWord(1, ())
    letter = st.tuples(st.integers(1, p - 1), st.sampled_from([1, -1]))
    return K.BraidWord(p, tuple(draw(st.lists(letter, max_size=10))))


@given(braid_words())
def test_text_round_trips(w):
    text = w.text()
    assert K.parse_braid(text) == w
    assert K.parse_braid(text).text() == text


def test_parse_simple():
    w = K.parse_braid("1 1 1")
    assert w.strands == 2
    assert w.letters == ((1, 1), (1, 1), (1, 1))


def test_parse_mixed_signs():
    w = K.parse_braid("1 -2 1 -2")
    assert w.strands == 3
    assert w.letters == ((1, 1), (2, -1), (1, 1), (2, -1))


def test_parse_strand_directive():
    w = K.parse_braid("p=4; 1 3 1 3")
    assert w.strands == 4
    assert len(w.letters) == 4


def test_parse_free_strands_allowed():
    assert K.parse_braid("p=5; 1 1").strands == 5


def test_parse_rejects_zero():
    with pytest.raises(InputError):
        K.parse_braid("0 1")


def test_parse_rejects_malformed_token():
    with pytest.raises(InputError):
        K.parse_braid("1 x 2")


def test_parse_rejects_small_explicit_strand_count():
    with pytest.raises(InputError):
        K.parse_braid("p=2; 2")


def test_parse_zero_strands_names_the_strand_count():
    # With no letters there is no generator to name, so the word's own check
    # reports the strand count.
    with pytest.raises(InputError, match=r"^strand count must be >= 1, got 0$"):
        K.parse_braid("p=0;")
    with pytest.raises(InputError, match=r"^strand count 0 too small for generator 1$"):
        K.parse_braid("p=0; 1")


def test_parse_empty_word():
    w = K.parse_braid("p=3;")
    assert w.strands == 3 and w.letters == ()


def test_word_rejects_a_generator_out_of_range():
    with pytest.raises(InputError, match=r"^generator 2 out of range for 2 strands$"):
        K.BraidWord(strands=2, letters=((2, 1),))


def test_word_rejects_a_zero_letter_sign():
    with pytest.raises(InputError, match=r"^letter sign must be \+1 or -1, got 0$"):
        K.BraidWord(strands=2, letters=((1, 0),))


def test_classify_single_generator():
    ids = sorted(crossing_ids(K.parse_braid("1 1 1")))
    assert [(c.generator, c.occurrence) for c in ids] == [(1, 1), (1, 2), (1, 3)]


def test_classify_orders_by_generator_then_occurrence():
    ids = sorted(crossing_ids(K.parse_braid("2 1 2 1")))
    assert [(c.generator, c.occurrence) for c in ids] == \
        [(1, 1), (1, 2), (2, 1), (2, 2)]


def test_classify_empty():
    assert sorted(crossing_ids(K.parse_braid("p=1;"))) == []


def test_classify_is_sorted_and_complete():
    w = K.parse_braid("2 1 3 1 2 2")
    ids = crossing_ids(w)
    assert len(ids) == len(w.letters)
    assert [c.generator for c in ids] == [gen for gen, _ in w.letters]
    assert sorted(ids) == sorted(ids, key=lambda c: (c.generator, c.occurrence))


def test_permutation_trefoil():
    perm = K.braid_permutation(K.parse_braid("1 1 1"))
    assert perm.mapping == (2, 1)
    assert perm.component_count == 1


def test_permutation_four_letters():
    perm = K.braid_permutation(K.parse_braid("1 2 1 2"))
    assert perm.component_count == 1
    assert len(perm.cycles[0]) == 3


def test_permutation_two_component_link():
    perm = K.braid_permutation(K.parse_braid("1 1"))
    assert perm.mapping == (1, 2)
    assert perm.component_count == 2


@given(braid_words(), st.integers(0, 2))
def test_closure_components_are_the_permutation_cycles(w, free):
    # Mixed signs, and letterless strands: those the word skips and `free`
    # more on top, each a free loop of the closure.
    w = K.BraidWord(w.strands + free, w.letters)
    assert K.braid_closure(w).component_count() == K.braid_permutation(w).component_count


def _closure_fields(w):
    """braid_closure's and braid_permutation's fields, shaped as the references'."""
    d, perm = K.braid_closure(w), K.braid_permutation(w)
    crossings = tuple((x.endpoints, x.sign) for x in d.crossings)
    return ((crossings, d.free_loops, d.arc_positions, d.free_loop_positions, d.strands),
            (perm.mapping, perm.cycles))


@given(braid_words(), st.integers(0, 2))
def test_closure_and_permutation_match_the_relabelling_reference(w, free):
    w = K.BraidWord(w.strands + free, w.letters)
    assert _closure_fields(w) == (braid_closure_reference(w), braid_permutation_reference(w))


def test_closure_and_permutation_match_the_reference_on_random_words():
    # Mixed signs, p = 1, strands the word skips and up to 2 more on top.
    rng = Random(2026)
    for _ in range(20_000):
        p = rng.randint(1, 8)
        n = rng.randint(0, 20) if p > 1 else 0
        letters = tuple((rng.randint(1, p - 1), rng.choice((1, -1))) for _ in range(n))
        w = K.BraidWord(p + rng.randint(0, 2), letters)
        assert _closure_fields(w) == (braid_closure_reference(w),
                                      braid_permutation_reference(w)), w


def test_closure_signs_copied():
    d = K.braid_closure(K.parse_braid("1 1 1"))
    assert d.n_plus == 3 and d.n_minus == 0
    assert d.crossing_count == 3


def test_closure_mixed_signs():
    d = K.braid_closure(K.parse_braid("1 -1"))
    assert d.n_plus == 1 and d.n_minus == 1


def test_closure_free_loops():
    d = K.braid_closure(K.parse_braid("p=2;"))
    assert d.crossing_count == 0 and d.free_loops == 2


def test_closure_crossing_count_matches_letters():
    for text in ["1 1 1", "1 2 1 2", "p=4; 1 3 1 3", "1 -2 1 -2"]:
        w = K.parse_braid(text)
        assert K.braid_closure(w).crossing_count == len(w.letters)


def test_closure_zero_resolution_circles_equal_cycle_count():
    # For positive words both equal the strand count.
    for text in ["1 1 1", "1 2 1 2", "p=4; 1 3 1 3", "1 1 2 2"]:
        w = K.parse_braid(text)
        d = K.braid_closure(w)
        assert Resolver(d).circles(0)[1] == w.strands


def test_reduced_trefoil():
    assert K.reduced_diagram(K.parse_braid("1 1 1")).letters == ((1, 1),)


def test_reduced_keeps_each_generator_once():
    r = K.reduced_diagram(K.parse_braid("1 1 2 2"))
    assert r.letters == ((1, 1), (2, 1))


def test_reduced_skips_unused_generators():
    r = K.reduced_diagram(K.parse_braid("p=4; 1 3 1 3"))
    assert r.letters == ((1, 1), (3, 1))
    assert r.strands == 4


def test_reduced_idempotent():
    for text in ["1 1 1", "1 1 2 2", "p=4; 1 3 1 3", "1 2 2 1"]:
        w = K.parse_braid(text)
        once = K.reduced_diagram(w)
        assert K.reduced_diagram(once) == once


def test_reduced_rejects_negative_letters():
    with pytest.raises(NonPositiveWordError):
        K.reduced_diagram(K.parse_braid("1 -1"))
