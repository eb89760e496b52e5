"""Build the benchmark's input pools and their stored references.

Run once, from the repository root, to (re)create perfbench/references.json:

    python3 perfbench/make_references.py

The benchmark itself never calls this script: each run checks the program's
outputs against the stored file, so a later change to the program cannot
move its own reference.  Every table stored here is cross-checked against
independent oracles before it is written:

- per (i, q) block, the engine's Smith normal form rank against a rank over
  the rationals (fractions.Fraction elimination) and its torsion against
  sympy's Smith normal form, both from tests/helpers.py, on every block small
  enough for them to finish;
- Khovanov's closed form for the torus knots T(2, n), n odd;
- the graded Euler characteristic of the table against the Jones state sum.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from random import Random

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import khlab as K  # noqa: E402
from helpers import rational_rank, sympy_snf_diagonal  # noqa: E402
from khlab.homology import differential_matrices  # noqa: E402

import checks  # noqa: E402

POOL_SEED = 20051129
# Oracle size limits, in matrix entries: Fraction elimination and sympy's SNF
# are dense and slow, so the largest blocks are checked by χ = Jones (and the
# closed form, where it applies) only.
RATIONAL_LIMIT = 60_000
SYMPY_LIMIT = 900

# torus-large: closures with 10-11 crossings of the four families the
# benchmark mixes.  Twelve-crossing members (T(3,6), (1 2 3)^4, (1 -2)^6) take
# 6-9 s each on the baseline machine, too long for several whole passes in one
# run, so the 11-crossing extensions of each family stand in for them.
TORUS_WORDS = [
    "p=3; 1 2 1 2 1 2 1 2 1 2",
    "p=3; 1 2 1 2 1 2 1 2 1 2 1",
    "p=2; 1 1 1 1 1 1 1 1 1 1",
    "p=3; 1 -2 1 -2 1 -2 1 -2 1 -2",
    "p=3; 1 -2 1 -2 1 -2 1 -2 1 -2 1",
    "p=4; 1 2 3 1 2 3 1 2 3 1",
    "p=4; 1 2 3 1 2 3 1 2 3 1 2",
]
CORPUS_STRANDS = (2, 3, 4)
CORPUS_CROSSINGS = range(3, 9)
# corpus-small: eight words per (strands, crossings), in two rounds of four;
# verify-positive: two rounds of one word per stratum.  The pools alternate
# rounds, and two rounds give enough words near the median latency that the
# seeded variants move latency_p50_ms little.
CORPUS_ROUND = 4
# verify-positive strata (strands, crossings).  T(2,10) is left out: its
# 4.9 s would be a third of a pass, too coarse a step for whole passes in one
# run; the 3- and 4-strand words with 10 crossings still build three complexes.
VERIFY_STRATA = [(2, m) for m in (7, 8, 9)] + [(p, m) for p in (3, 4) for m in range(7, 11)]


def random_word(rng: Random, strands: int, crossings: int, positive: bool) -> str:
    """A word that uses every generator, so the closure has no free loops."""
    while True:
        letters = [rng.randint(1, strands - 1) for _ in range(crossings)]
        if set(letters) != set(range(1, strands)):
            continue
        if not positive:
            letters = [g * rng.choice((1, -1)) for g in letters]
        return f"p={strands}; " + " ".join(map(str, letters))


def oracle_check(c) -> dict:
    """Compare every small enough SNF block with the independent oracles."""
    mats = differential_matrices(c)
    checked = total = 0
    for i, mat in enumerate(mats):
        for q in sorted(set(c.q_unnorm[i])):
            block = mat.restrict(q)
            if not block.rows or not block.cols:
                continue
            total += 1
            size = block.rows * block.cols
            if size > RATIONAL_LIMIT:
                continue
            snf = K.smith_normal_form(block)
            if rational_rank(block) != snf.rank:
                raise SystemExit(f"rank oracle disagrees at d^{i}, q={q}")
            if size <= SYMPY_LIMIT:
                torsion = tuple(sorted(d for d in sympy_snf_diagonal(block) if d > 1))
                if torsion != tuple(sorted(snf.torsion())):
                    raise SystemExit(f"torsion oracle disagrees at d^{i}, q={q}")
            checked += 1
    return {"blocks": total, "checked": checked}


def reference(text: str) -> dict:
    w = K.parse_braid(text)
    d = K.braid_closure(w)
    c = K.build_complex(d)
    table = K.homology_table(c)
    entries = [[i, j, rank, list(tors)] for (i, j), (rank, tors) in table.entries()]
    jones = {str(e): v for e, v in sorted(K.jones_state_sum(d).coeffs.items())}
    if checks.euler_characteristic(entries) != jones:
        raise SystemExit(f"{text}: χ of the table differs from the Jones state sum")
    closed = checks.torus_2n_table(text)
    if closed is not None and checks.canonical(entries) != closed:
        raise SystemExit(f"{text}: table differs from Khovanov's T(2,n) closed form")
    return {
        "word": text,
        "crossings": d.crossing_count,
        "n_plus": d.n_plus,
        "n_minus": d.n_minus,
        "components": d.component_count(),
        "generators": sum(c.dims),
        "homology": entries,
        "jones": jones,
        "oracle": oracle_check(c) | {"closed_form": closed is not None},
    }


def corpus_round(rng: Random, taken: list[str]) -> list[str]:
    """Four new words per stratum; the first round includes T(2,m) for odd m."""
    words = []
    for p in CORPUS_STRANDS:
        for m in CORPUS_CROSSINGS:
            stratum = []
            if p == 2 and m % 2 and not taken:
                stratum.append("p=2; " + " ".join(["1"] * m))  # T(2,m): closed form
            while len(stratum) < CORPUS_ROUND:
                text = random_word(rng, p, m, positive=False)
                if text not in stratum and text not in taken:
                    stratum.append(text)
            words.extend(stratum)
    return words


def verify_round(rng: Random, taken: list[dict]) -> list[dict]:
    """One new word per stratum; 2 strands have one positive word, drawn once."""
    out = []
    words = {ref["word"] for ref in taken}
    for p, m in VERIFY_STRATA:
        if p == 2 and taken:
            continue
        text = random_word(rng, p, m, positive=True)
        while text in words:
            text = random_word(rng, p, m, positive=True)
        w = K.parse_braid(text)
        components = checks.closure_components(text)
        expected = checks.theorem_verdict(components)
        report = K.verify_positive_braid(w)
        if {c.name: c.status for c in report.checks} != expected:
            raise SystemExit(f"{text}: the verifier disagrees with the theorem")
        out.append({
            "word": text,
            "crossings": m,
            "components": components,
            "generators": sum(K.build_complex(K.braid_closure(w)).dims),
            "checks": expected,
        })
    return out


def main() -> None:
    rng = Random(POOL_SEED)
    started = time.perf_counter()
    corpus = corpus_round(rng, [])
    verify = verify_round(rng, [])
    corpus += corpus_round(rng, corpus)
    verify += verify_round(rng, verify)
    doc = {
        "pool_seed": POOL_SEED,
        "corpus-small": [reference(t) for t in corpus],
        "torus-large": [reference(t) for t in TORUS_WORDS],
        "verify-positive": verify,
    }
    path = Path(__file__).resolve().parent / "references.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {path.name} in {time.perf_counter() - started:.1f} s")


if __name__ == "__main__":
    main()
