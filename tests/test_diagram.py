import dataclasses
import re
from collections import Counter
from random import Random

import pytest
from hypothesis import assume, given, settings, strategies as st

import khlab as K
from khlab.diagram import Crossing, Resolver
from khlab.errors import InputError

from helpers import (
    CORPUS,
    classify_edge_reference,
    component_count_reference,
    random_word,
    require_oriented_reference,
    require_planar_reference,
    resolve_reference,
    table_of,
)

HOPF_PD = """\
X[0,1,2,3] +
X[1,0,3,2] +
"""


def test_from_pd_hopf():
    d = K.from_pd(HOPF_PD)
    assert d.n_plus == 2 and d.n_minus == 0
    assert d.component_count() == 2


def test_from_pd_arc_used_once():
    with pytest.raises(InputError):
        K.from_pd("X[1,2,3,4] +\nX[2,1,4,5] +")


def test_from_pd_missing_sign():
    with pytest.raises(InputError):
        K.from_pd("X[1,2,3,4]")


@pytest.mark.parametrize("record", ["X[\u0661,4,2,5] -", "X[1,4,2,\uff15] -", "X[1_0,4,2,5] -"])
def test_from_pd_accepts_only_ascii_integers(record):
    # \d matches other scripts' digits and int() reads them: the KnotAtlas
    # trefoil with one such digit must not parse as the trefoil.
    with pytest.raises(InputError, match="^malformed PD record"):
        K.from_pd(record + "\nX[3,6,4,1] -\nX[5,2,6,3] -\n")


def test_from_pd_empty():
    d = K.from_pd("")
    assert d.crossing_count == 0 and d.component_count() == 0


def test_from_pd_rejects_nonplanar():
    with pytest.raises(InputError, match="planar"):
        K.from_pd("X[1,2,1,2] +")


def test_from_pd_kink():
    d = K.from_pd("X[1,1,2,2] +")
    assert d.crossing_count == 1 and d.component_count() == 1


def test_from_pd_rejects_signs_against_orientation():
    with pytest.raises(InputError, match=r"X\[5,2,6,3\].*orientation"):
        K.from_pd("X[1,4,2,5] +\nX[3,6,4,1] +\nX[5,2,6,3] +\n")
    with pytest.raises(InputError, match="orientation"):
        K.from_pd("X[1,1,2,2] -")


def _verdict(check):
    """None if check() passes, else its InputError's message with the
    crossing that an orientation error names left out."""
    try:
        check()
    except InputError as e:
        return re.sub(r"crossing X\[[-\d,]+\] contradicts", "crossing X[...] contradicts", str(e))
    return None


def test_pd_checks_and_component_count_match_the_corner_dict_reference():
    # Random 1-4 crossing codes whose labels each appear twice: from_pd
    # accepts and rejects exactly what the union-find, corner-dict reference
    # does, with its messages (the contradicting crossing aside), and every
    # closed diagram counts the reference's components.
    rng = Random(22)
    kinds: Counter = Counter()
    for _ in range(3000):
        n = rng.randint(1, 4)
        labels = [a for a in range(1, 2 * n + 1) for _ in range(2)]
        rng.shuffle(labels)
        d = K.Diagram(tuple(Crossing(tuple(labels[4 * x:4 * x + 4]), rng.choice((1, -1)))
                            for x in range(n)))
        want = _verdict(lambda: require_oriented_reference(d, require_planar_reference(d)))
        got = _verdict(lambda: K.from_pd(d.to_pd()))
        assert got == want, d.to_pd()
        assert d.component_count() == component_count_reference(d), d.to_pd()
        kinds["accepted" if want is None else "planar" if "planar" in want else "oriented"] += 1
    assert min(kinds[k] for k in ("accepted", "planar", "oriented")) > 200, kinds


def test_from_pd_knotatlas_trefoil():
    d = K.from_pd("X[1,4,2,5] -\nX[3,6,4,1] -\nX[5,2,6,3] -\n")
    assert K.homology_table(K.build_complex(d)) == table_of("-1 -1 -1")


def test_from_pd_skips_comment_lines():
    commented = "# Hopf link\nX[0,1,2,3] +\n  # both crossings positive\nX[1,0,3,2] +\n"
    assert K.from_pd(commented) == K.from_pd(HOPF_PD)


def test_diagram_rejects_a_zero_crossing_sign():
    with pytest.raises(InputError, match=r"^crossing sign must be \+1 or -1, got 0$"):
        K.Diagram(crossings=(Crossing(endpoints=(1, 1, 2, 2), sign=0),))


@st.composite
def braid_words(draw):
    p = draw(st.integers(2, 6))
    gens = st.integers(1, p - 1).flatmap(lambda g: st.sampled_from([(g, 1), (g, -1)]))
    return K.BraidWord(p, tuple(draw(st.lists(gens, max_size=12))))


@given(braid_words())
def test_braid_closure_pd_is_accepted(w):
    d = K.braid_closure(w)
    text = "".join(
        f"X[{a},{b},{c},{e}] {'+' if x.sign > 0 else '-'}\n"
        for x in d.crossings
        for a, b, c, e in [x.endpoints]
    )
    assert K.from_pd(text).crossings == d.crossings


def test_to_pd_renders_signed_records():
    d = K.from_pd("X[1,4,2,5] -\nX[3,6,4,1] -\nX[5,2,6,3] -\n")
    assert d.to_pd() == "X[1,4,2,5] -\nX[3,6,4,1] -\nX[5,2,6,3] -\n"
    with pytest.raises(InputError, match="free loop"):
        K.braid_closure(K.parse_braid("p=3; 1")).to_pd()


@st.composite
def small_closures(draw):
    p = draw(st.integers(2, 4))
    gens = st.integers(1, p - 1).flatmap(lambda g: st.sampled_from([(g, 1), (g, -1)]))
    return K.braid_closure(K.BraidWord(p, tuple(draw(st.lists(gens, min_size=1, max_size=8)))))


@settings(max_examples=40, deadline=None)
@given(small_closures())
def test_closure_pd_round_trip_keeps_table_and_euler_characteristic(d):
    # The diagram read back has no braid metadata; its homology eliminates
    # crossing 0's edge maps as the closure's does.
    assume(d.free_loops == 0)
    back = K.from_pd(d.to_pd())
    assert back.crossings == d.crossings
    c, c_back = K.build_complex(d), K.build_complex(back)
    assert K.homology_table(c_back) == K.homology_table(c)
    assert K.graded_euler_characteristic(c_back) == K.graded_euler_characteristic(c)


def test_resolve_trefoil_circle_counts():
    # Vertex v has bit j = epsilon[j]: 0b001 is (1, 0, 0).
    circles = Resolver(K.braid_closure(K.parse_braid("1 1 1"))).circles
    assert circles(0b000)[1] == 2
    assert circles(0b001)[1] == 1
    assert circles(0b011)[1] == 2
    assert circles(0b111)[1] == 3


def test_resolve_deterministic_circle_order():
    d = K.braid_closure(K.parse_braid("1 2 1 2"))
    assert Resolver(d).circles(0b1010) == Resolver(d).circles(0b1010)


def test_edge_transition_merge():
    r = Resolver(K.braid_closure(K.parse_braid("1 1 1")))
    kind, _ = r.edge(r.circles(0b000)[0], r.circles(0b001)[0], 0)
    assert kind == "merge"


def test_edge_transition_split():
    r = Resolver(K.braid_closure(K.parse_braid("1 1 1")))
    kind, _ = r.edge(r.circles(0b001)[0], r.circles(0b011)[0], 1)
    assert kind == "split"


def test_every_edge_changes_circle_count_by_one():
    rng = Random(7)
    for _ in range(25):
        d = K.braid_closure(random_word(rng, max_len=8))
        m, r = d.crossing_count, Resolver(d)
        for _ in range(10):
            eps = [rng.randint(0, 1) for _ in range(m)]
            zeros = [k for k, e in enumerate(eps) if e == 0]
            if not zeros:
                continue
            v, j = sum(e << k for k, e in enumerate(eps)), rng.choice(zeros)
            (before, n), (after, n_after) = r.circles(v), r.circles(v | 1 << j)
            kind, _ = r.edge(before, after, j)
            assert abs(n_after - n) == 1
            assert (n_after - n == 1) == (kind == "split")


def test_resolve_and_edges_match_set_oracle():
    # Every vertex's circles and every edge's merge/split indices equal the
    # frozenset union-find and set matching they replaced, and so do the
    # circles build_complex stores, each made from its parent's, on the full
    # cube and on the cube truncated at top = 2.
    rng = Random(11)
    texts = CORPUS + ["p=4; 1", "p=5; 1 -2 -1 2 -1"]
    diagrams = [K.braid_closure(K.parse_braid(t)) for t in texts]
    diagrams += [K.braid_closure(random_word(rng, max_len=8)) for _ in range(20)]
    diagrams += [K.from_pd(t) for t in (
        HOPF_PD, "X[1,4,2,5] -\nX[3,6,4,1] -\nX[5,2,6,3] -\n", "X[1,1,2,2] +"
    )]
    for d in diagrams:
        m, r = d.crossing_count, Resolver(d)
        for v in range(1 << m):
            eps = tuple((v >> j) & 1 for j in range(m))
            before = r.circles(v)
            assert before == resolve_reference(d, eps)
            for j in range(m):
                if not eps[j]:
                    after = resolve_reference(d, eps[:j] + (1,) + eps[j + 1:])[0]
                    assert r.edge(before[0], after, j) == \
                        classify_edge_reference(before[0], after)
        for top in (None, 2):
            stored = {v: entry[1:] for column in K.build_complex(d, top=top).vertices
                      for v, entry in column.items()}
            assert len(stored) == sum(1 for v in range(1 << m) if top is None or
                                      v.bit_count() <= top)
            for v, (circle_of, n) in stored.items():
                eps = tuple((v >> j) & 1 for j in range(m))
                assert (list(circle_of), n) == resolve_reference(d, eps), (d, top, v)


def test_single_one_resolution_of_positive_braid():
    # One 1-resolution at a type-sigma_i crossing leaves p-1 circles.
    w = K.parse_braid("1 2 1 2")
    d = K.braid_closure(w)
    for k in range(d.crossing_count):
        assert Resolver(d).circles(1 << k)[1] == w.strands - 1


def test_free_loops_count_as_circles():
    # Two idle strands: the circles numbered after every arc's circle.
    circle_of, n = Resolver(K.braid_closure(K.parse_braid("p=4; 1"))).circles(0)
    assert n - len(set(circle_of)) == 2
    assert n == 4


def test_permute_crossings_preserves_counts():
    d = K.braid_closure(K.parse_braid("1 -2 1 -2"))
    d2 = dataclasses.replace(d, crossings=tuple(d.crossings[k] for k in [3, 1, 0, 2]))
    assert d2.n_plus == d.n_plus and d2.n_minus == d.n_minus
