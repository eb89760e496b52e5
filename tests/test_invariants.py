import io
import json
import re
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

import khlab as K
from khlab import cli, cube, invariants
from khlab.cube import DEFAULT_CAP, ONE, ChainComplex
from khlab.diagram import Resolver
from khlab.errors import (
    CapExceededError,
    GeneratorBudgetError,
    NonPositiveWordError,
    TruncatedComplexError,
)
from khlab.homology import differential_matrices
from khlab.invariants import LaurentPolynomial

from helpers import (
    CORPUS,
    kernel_structure_reference,
    occurrence_states_reference,
    random_word,
    rational_rank,
    table_of,
    with_records,
)


def chi(text):
    return K.graded_euler_characteristic(
        K.build_complex(K.braid_closure(K.parse_braid(text)))
    )


def jones(text):
    return K.jones_state_sum(K.braid_closure(K.parse_braid(text)))


def test_unknot_polynomial():
    expected = LaurentPolynomial({1: 1, -1: 1})
    assert chi("p=1;") == expected
    assert jones("p=1;") == expected


def test_trefoil_polynomial():
    expected = LaurentPolynomial({1: 1, 3: 1, 5: 1, 9: -1})
    assert chi("1 1 1") == expected
    assert jones("1 1 1") == expected


def test_two_unlink_polynomial():
    expected = LaurentPolynomial({-2: 1, 0: 2, 2: 1})
    assert chi("p=2;") == expected
    assert jones("p=2;") == expected


def test_mirror_trefoil_polynomial():
    expected = LaurentPolynomial({-1: 1, -3: 1, -5: 1, -9: -1})
    assert jones("-1 -1 -1") == expected
    assert jones("-1 -1 -1") == jones("1 1 1").mirror()


def test_mirror_property_random_words():
    rng = Random(23)
    for _ in range(15):
        w = random_word(rng, max_len=7)
        mirrored = " ".join(str(-g * s) for g, s in w.letters)
        assert jones(f"p={w.strands}; {mirrored}") == \
            jones(w.text()).mirror()


def test_state_sum_above_its_cap_raises():
    with pytest.raises(CapExceededError):
        K.jones_state_sum(K.braid_closure(K.parse_braid("1 1 1")), cap=2)


@pytest.mark.parametrize("coeffs, text", [
    ({}, "0"),
    ({0: 2, 3: -2}, "2 - 2*q^3"),
    ({-1: -1, 0: 1, 2: 3}, "-q^-1 + 1 + 3*q^2"),
])
def test_laurent_polynomial_prints(coeffs, text):
    assert str(LaurentPolynomial(coeffs)) == text


def test_euler_characteristic_equals_state_sum_on_corpus():
    for text in CORPUS:
        assert chi(text) == jones(text)


def test_euler_characteristic_refuses_truncated_complex():
    d = K.braid_closure(K.parse_braid("1 2 1 2"))
    for top in range(d.crossing_count):
        with pytest.raises(TruncatedComplexError, match=f"stops at column {top}"):
            K.graded_euler_characteristic(K.build_complex(d, top=top))
    full = K.build_complex(d, top=d.crossing_count)
    assert K.graded_euler_characteristic(full) == K.jones_state_sum(d)


def test_verify_trefoil_all_pass():
    report = K.verify_positive_braid(K.parse_braid("1 1 1"))
    assert report.is_knot
    assert {c.name: c.status for c in report.checks} == {
        "negative_degree_vanishing": "pass",
        "h0_structure": "pass",
        "h1_vanishing": "pass",
        "kernel_structure": "pass",
        "reduction_consistency": "pass",
    }


def test_verify_torus_knot_word():
    report = K.verify_positive_braid(K.parse_braid("1 2 1 2"))
    assert report.all_passed and report.is_knot


def test_verify_builds_each_complex_once(monkeypatch):
    built = []

    def counting_build(d, cap, top=None):
        built.append((d.crossing_count, top))
        return K.build_complex(d, cap=cap, top=top)

    monkeypatch.setattr(invariants, "build_complex", counting_build)
    invariants._reduced_verdict.cache_clear()
    assert K.verify_positive_braid(K.parse_braid("1 1 2 2")).all_passed
    # The closure, then the reduced diagram, each only up to column 2.
    assert built == [(4, 2), (2, 2)]
    # A word with the same reduced diagram builds only its own closure.
    built.clear()
    assert K.verify_positive_braid(K.parse_braid("2 2 1 1 2")).all_passed
    assert built == [(5, 2)]


def test_verify_hopf_link_skips_h0():
    report = K.verify_positive_braid(K.parse_braid("1 1"))
    statuses = {c.name: c.status for c in report.checks}
    assert not report.is_knot
    assert statuses["h0_structure"] == "skip"
    assert statuses["negative_degree_vanishing"] == "pass"
    assert statuses["h1_vanishing"] == "pass"


def test_verify_rejects_negative_word():
    with pytest.raises(NonPositiveWordError):
        K.verify_positive_braid(K.parse_braid("1 -1"))


def test_verify_report_json_shape():
    report = K.verify_positive_braid(K.parse_braid("1 1 1"))
    doc = report.to_json()
    assert set(doc) == {"input", "strands", "crossings", "is_knot", "checks"}
    assert doc["strands"] == 2 and doc["crossings"] == 3
    for check in doc["checks"]:
        assert set(check) == {"name", "status", "details"}


def test_kernel_structure_trefoil():
    ok, witness, _ = K.kernel_structure_check(K.parse_braid("1 1 1"))
    assert ok and witness is None


def test_kernel_structure_two_generators():
    ok, witness, _ = K.kernel_structure_check(K.parse_braid("1 1 2 2"))
    assert ok and witness is None


def test_kernel_structure_vacuous_for_single_occurrences():
    ok, _, details = K.kernel_structure_check(K.parse_braid("1 2"))
    assert ok and "vacuous" in details


def test_kernel_structure_corpus():
    for text in CORPUS:
        ok, witness, _ = K.kernel_structure_check(K.parse_braid(text))
        assert ok, (text, witness)


def test_kernel_structure_names_the_violated_relation(monkeypatch):
    w = K.parse_braid("1 1 1")
    d = K.braid_closure(w)
    c = K.build_complex(d)
    # d^1 without edge records is the zero map, so its kernel is all of C^1.
    # Crossing 0 pairs no vertex through d^1 either: column 1 keeps only the
    # kinds of d^0's targets (side 1) and column 2 only those of d^2's sources.
    rule = cube._kind

    def kind(v, circle_of, n, abc):
        if (v.bit_count(), v & 1) in ((1, 0), (2, 1)):
            return cube._ALL_K, range(1 << n), 0  # all K, so |M_v| = 0
        return rule(v, circle_of, n, abc)
    monkeypatch.setattr(cube, "_kind", kind)
    broken = with_records(c, lambda i, records: [] if i == 1 else records)
    ok, witness, details = invariants._kernel_structure(w, broken, K.homology_table(broken))
    assert not ok
    assert witness == (1, 2, (ONE,))
    assert details.endswith("violates t_(1,1) = t_(1,2) at 1")


def test_kernel_structure_matches_rank_oracle():
    # The d^0 test and the free-H^1 shortcut must give the verdict and the
    # first witness of the rank test on d^1 alone, also on complexes where
    # the constraint fails: another word's occurrence slots, or mixed signs.
    rng = Random(61)
    positive = [K.parse_braid(text) for text in CORPUS]
    positive += [random_word(rng, max_len=8, positive=True) for _ in range(20)]
    cases = [(w, w) for w in positive]
    for _ in range(40):
        w = random_word(rng, max_len=7, positive=True)
        letters = tuple((rng.randint(1, w.strands - 1), 1) for _ in range(w.crossings))
        cases.append((K.BraidWord(w.strands, letters), w))
    cases += [(w, w) for w in (random_word(rng, max_len=7) for _ in range(30))]
    seen = Counter()
    for slots, built in cases:
        c = K.build_complex(K.braid_closure(built), top=2)
        table = K.homology_table(c)
        try:
            expected = kernel_structure_reference(slots, c)
        except AssertionError as exc:
            with pytest.raises(AssertionError, match=f"^{re.escape(str(exc))}$"):
                invariants._kernel_structure(slots, c, table)
            seen["raises"] += 1
            continue
        passed, witness, details = invariants._kernel_structure(slots, c, table)
        assert (passed, witness) == expected, (slots.text(), built.text())
        # Which step decides: free H^1 at each relation's q, read from the table.
        di, dq = c.diagram.shift
        first = {gen: invariants._occurrence_states(c, occ[0], gen)
                 for gen, occ in invariants._repeated_occurrences(slots).items()}
        free1 = {a: table.entry(1 + di, c.q_unnorm[1][a] + dq)[0]
                 for states in first.values() for a in states.values()}
        if passed and free1:
            # The reported nullity, read from the table, is d^1's over Q.
            nullity = c.dims[1] - rational_rank(differential_matrices(c)[1])
            assert details.startswith(f"{nullity} kernel vectors,"), details
        seen["pass"] += passed and bool(free1)
        seen["rank path"] += any(free1.values())
        if not passed:
            gen, _, key = witness
            seen["fail at free H^1 = 0"] += not free1[first[gen][key]]
    assert all(seen[case] for case in ("pass", "rank path", "fail at free H^1 = 0", "raises"))


def test_kernel_check_reduces_nothing_where_free_h1_vanishes(monkeypatch):
    # H^1 = 0 on a positive braid knot, so d^0 alone decides every relation:
    # d^1 is neither expanded nor reduced.
    def no_snf(matrix):
        raise AssertionError("the kernel check reduced a block of d^1")

    blocks = ChainComplex.blocks

    def no_d1(self, i, *args, **kwargs):
        if i == 1:
            raise AssertionError("the kernel check expanded d^1")
        return blocks(self, i, *args, **kwargs)

    w = K.parse_braid("p=4; 1 2 3 1 2 3 1 2 3")  # T(4,3)
    c = K.build_complex(K.braid_closure(w), top=2)
    table = K.homology_table(c)
    monkeypatch.setattr(invariants, "smith_normal_form", no_snf)
    monkeypatch.setattr(ChainComplex, "blocks", no_d1)
    assert invariants._kernel_structure(w, c, table)[:2] == (True, None)


def test_occurrence_states_match_decoded_oracle():
    # Every occurrence of a repeated generator pairs its C^1 states by
    # factor labels as the set-circle oracle on the decoded basis does.
    rng = Random(53)
    words = CORPUS + ["p=4; 1 1", "p=5; 1 1 3 3"]
    words += [random_word(rng, max_len=8, positive=True).text() for _ in range(20)]
    compared = 0
    for text in words:
        w = K.parse_braid(text)
        d = K.braid_closure(w)
        c = K.build_complex(d, top=2)
        for gen, slots in invariants._repeated_occurrences(w).items():
            for k in slots:
                expected = occurrence_states_reference(c, d, k, gen)
                got = invariants._occurrence_states(c, k, gen)
                assert got == expected, (text, k)
                compared += 1
    assert compared > 50


def test_kernel_check_reads_the_complex_circles(monkeypatch):
    # The occurrence states come from the circles the complex stores: the
    # kernel check builds no Resolver and resolves no vertex again.
    w = K.parse_braid("p=3; 1 2 1 2 1 2 1")
    c = K.build_complex(K.braid_closure(w), top=2)
    table = K.homology_table(c)

    def no_resolver(*args):
        raise AssertionError("the kernel check resolved the diagram again")

    monkeypatch.setattr(Resolver, "__init__", no_resolver)
    monkeypatch.setattr(Resolver, "circles", no_resolver)
    assert invariants._kernel_structure(w, c, table)[:2] == (True, None)


@st.composite
def positive_words(draw):
    p = draw(st.integers(2, 4))
    letters = draw(st.lists(st.integers(1, p - 1), max_size=7))
    return K.BraidWord(p, tuple((g, 1) for g in letters))


@settings(max_examples=60, deadline=None)
@given(positive_words())
def test_random_positive_words_pass_verify(w):
    report = K.verify_positive_braid(w)
    assert report.all_passed, [c for c in report.checks if c.status == "fail"]


@st.composite
def long_positive_words(draw):
    p = draw(st.integers(2, 5))
    n = draw(st.integers(0, 40))
    letters = draw(st.lists(st.integers(1, p - 1), min_size=n, max_size=n))
    return K.BraidWord(p, tuple((g, 1) for g in letters))


@settings(max_examples=15, deadline=None)
@given(long_positive_words())
def test_long_positive_words_pass_verify(w):
    # Up to 40 crossings: the 2^40 cube is never built, only its columns 0..2.
    report = K.verify_positive_braid(w, cap=40)
    assert report.all_passed, [c for c in report.checks if c.status == "fail"]


def test_reduction_consistency_trefoil():
    ok, details = K.reduction_consistency(K.parse_braid("1 1 1"))
    assert ok
    assert "dim C^0(D') = 4" in details


def test_reduction_consistency_unlink_case():
    ok, _ = K.reduction_consistency(K.parse_braid("p=4; 1 3 1 3"))
    assert ok


def test_reduction_consistency_empty_word():
    ok, _ = K.reduction_consistency(K.parse_braid("p=1;"))
    assert ok


REFERENCES = Path(__file__).resolve().parent.parent / "perfbench" / "references.json"


def _positive_words(rng: Random, count: int) -> list[str]:
    """Positive words on 1-5 strands, each on a random subset of the generators."""
    words = []
    for _ in range(count):
        p = rng.randint(1, 5)
        used = [g for g in range(1, p) if rng.random() < 0.7]
        letters = [rng.choice(used) for _ in range(rng.randint(0, 8))] if used else []
        words.append(f"p={p}; " + " ".join(map(str, letters)))
    return words


def _verdicts(words: list[str], cold: bool) -> list:
    """Per word, verify --format json at cap 12 and reduction_consistency at
    caps 12 and DEFAULT_CAP; cold clears the reduced-diagram cache before each word."""
    out = []
    for text in words:
        if cold:
            invariants._reduced_verdict.cache_clear()
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = cli.run(["verify", "--braid", text, "--cap", "12", "--format", "json"])
        w = K.parse_braid(text)
        out.append((text, code, stdout.getvalue(), stderr.getvalue(),
                    [K.reduction_consistency(w, cap=cap) for cap in (12, DEFAULT_CAP)]))
    return out


def test_reduced_diagram_verdict_is_the_same_cold_and_warm():
    refs = json.loads(REFERENCES.read_text(encoding="utf-8"))["verify-positive"]
    words = [ref["word"] for ref in refs] + _positive_words(Random(71), 100)
    keys = {(K.reduced_diagram(K.parse_braid(text)), cap)
            for text in words for cap in (12, DEFAULT_CAP)}
    assert len(keys) < len(words)  # the words share reduced diagrams
    assert any(len(key[0].letters) < key[0].strands - 1 for key in keys)
    cold = _verdicts(words, cold=True)
    invariants._reduced_verdict.cache_clear()
    assert _verdicts(words, cold=False) == cold
    # One entry per (reduced word, cap), each made once.
    info = invariants._reduced_verdict.cache_info()
    assert info.currsize == info.misses == len(keys)


@pytest.mark.parametrize("text, cap, error", [
    ("1 1 2 2", 1, CapExceededError),  # D' has two crossings
    ("p=40; 1 1", DEFAULT_CAP, GeneratorBudgetError),  # D' has 38 free loops
])
def test_refused_reduced_diagram_raises_every_time(text, cap, error):
    invariants._reduced_verdict.cache_clear()
    w = K.parse_braid(text)
    for _ in range(2):
        with pytest.raises(error):
            K.reduction_consistency(w, cap=cap)
    info = invariants._reduced_verdict.cache_info()
    assert (info.misses, info.currsize) == (2, 0)


def test_non_positive_word_raises_before_the_cache_is_read():
    invariants._reduced_verdict.cache_clear()
    with pytest.raises(NonPositiveWordError):
        K.reduction_consistency(K.parse_braid("1 -1 1"))
    info = invariants._reduced_verdict.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 0, 0)


def test_convention_toggle_trefoil():
    toggled = K.convention_toggle(table_of("1 1 1"))
    assert toggled.table == {
        (0, -1): (1, ()),
        (0, -3): (1, ()),
        (2, -5): (1, ()),
        (3, -7): (0, (2,)),
        (3, -9): (1, ()),
    }


def test_convention_toggle_empty_and_involution():
    empty = K.BigradedGroup({})
    assert K.convention_toggle(empty).table == {}
    t = table_of("1 2 1 2")
    assert K.convention_toggle(K.convention_toggle(t)) == t
