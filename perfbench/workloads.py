"""The benchmark's workloads: inputs from a seed, one timed call, output checks.

Every workload draws its inputs from a pool stored in references.json with
a reference for each pool word.  A pass runs every pool word once, in a
seeded order and as a seeded variant (rotation, flip, reversal; see
checks.variant) that has the same link and a cube of the same size, so two
seeds give different inputs but nearly the same work per pass.  The
benchmark repeats whole passes, which keeps the mix of inputs the same in
every run.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import checks

REFERENCES = json.loads((Path(__file__).resolve().parent / "references.json").read_text())


@dataclass(frozen=True)
class Item:
    id: int
    text: str                # braid text, or the PD file's contents
    ref: dict | None         # stored reference; None for invalid input
    path: str | None = None  # PD file passed to the CLI, if the input is a PD


def seeded_variant(rng, ref: dict) -> str:
    rotation = rng.randrange(ref["crossings"])
    return checks.variant(ref["word"], rotation, rng.random() < 0.5, rng.random() < 0.5)


def warmup_ref(pool: list[dict]) -> dict:
    return min(pool, key=lambda ref: ref["generators"])


def table_error(ref: dict, entries, jones) -> str | None:
    """Compare a homology table (lists of i, j, rank, torsion) with its reference."""
    table = checks.canonical(entries)
    if table != checks.canonical(ref["homology"]):
        return "homology table differs from the stored reference"
    if jones != ref["jones"]:
        return "Jones polynomial differs from the stored reference"
    if checks.euler_characteristic(entries) != jones:
        return "graded Euler characteristic of the table differs from the Jones polynomial"
    closed = checks.torus_2n_table(ref["word"])
    if closed is not None and table != closed:
        return "table differs from Khovanov's T(2,n) closed form"
    return None


def render_pd(khlab, text: str) -> str:
    """Signed PD text of a braid closure, from its Diagram.crossings."""
    d = khlab.braid_closure(khlab.parse_braid(text))
    return "".join(
        f"X[{a},{b},{c},{e}] {'+' if x.sign > 0 else '-'}\n"
        for x in d.crossings
        for a, b, c, e in [x.endpoints]
    )


def run_cli(khlab, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = khlab.cli.run(argv)
    return code, out.getvalue(), err.getvalue()


class CorpusSmall:
    """Small braid and PD inputs through the CLI: per-call fixed costs dominate."""

    name = "corpus-small"
    tail_pct = 98
    pd_share = 4  # one word in four of each (strands, crossings) stratum is fed as PD
    malformed_braids = ["1 2 x", "p=2; 1 2", "1 0 -1", "p=3; 1 2.5", "1 - 2", "p=; 1 1"]
    invalid_per_kind = 2
    # Inputs that must exit 1 but do not on the seed commit (ROADMAP, known
    # defects): run once per run, outside the timed loop, and reported apart.
    known_defects = {
        "nonplanar-pd": "X[1,2,1,2] +\n",
        "wrong-sign-trefoil-pd": "X[1,4,2,5] +\nX[3,6,4,1] +\nX[5,2,6,3] +\n",
    }

    def make_inputs(self, rng, khlab, workdir: Path):
        pool = REFERENCES[self.name]
        strata: dict[tuple, list[dict]] = {}
        for ref in pool:
            strata.setdefault((checks.parse_word(ref["word"])[0], ref["crossings"]), []).append(ref)
        items: list[Item] = []

        def add(text, ref, as_pd):
            path = None
            if as_pd:
                path = str(workdir / f"input-{len(items)}.pd")
                Path(path).write_text(text)
            items.append(Item(len(items), text, ref, path))

        for group in strata.values():
            pd_picks = set(rng.sample(range(len(group)), len(group) // self.pd_share))
            for k, ref in enumerate(group):
                text = seeded_variant(rng, ref)
                add(render_pd(khlab, text) if k in pd_picks else text, ref, k in pd_picks)
        for text in rng.sample(self.malformed_braids, self.invalid_per_kind):
            add(text, None, False)
        for ref in rng.sample(pool, self.invalid_per_kind):
            lines = render_pd(khlab, seeded_variant(rng, ref)).splitlines(keepends=True)
            # Relabel the first endpoint: two arcs now appear once each.
            lines[0] = "X[999999," + lines[0].split(",", 1)[1]
            add("".join(lines), None, True)
        rng.shuffle(items)
        warm = warmup_ref(pool)
        warmup = Item(-1, seeded_variant(rng, warm), warm)
        for name, text in self.known_defects.items():
            (workdir / f"{name}.pd").write_text(text)
        return items, warmup

    def run(self, khlab, item: Item):
        source = ["--pd", item.path] if item.path else ["--braid", item.text]
        return [run_cli(khlab, [cmd, *source, "--format", "json"]) for cmd in ("homology", "jones")]

    def check(self, item: Item, outcome) -> str | None:
        (hcode, hout, herr), (jcode, jout, jerr) = outcome
        if item.ref is None:
            if (hcode, jcode) != (1, 1) or hout or jout:
                return f"invalid input gave exit codes {hcode}, {jcode} (expected 1, 1)"
            if not (herr.startswith("error:") and jerr.startswith("error:")):
                return "invalid input did not report 'error:' on stderr"
            return None
        if (hcode, jcode) != (0, 0) or herr or jerr:
            return f"exit codes {hcode}, {jcode}; stderr {(herr + jerr).strip()!r}"
        doc, jones_doc = json.loads(hout), json.loads(jout)
        ref = item.ref
        for key in ("n_plus", "n_minus", "components"):
            if doc[key] != ref[key] or jones_doc[key] != ref[key]:
                return f"{key} differs from the stored reference"
        if doc["euler_characteristic"] != ref["jones"]:
            return "homology's Euler characteristic differs from the stored Jones polynomial"
        entries = [[e["i"], e["j"], e["rank"], e["torsion"]] for e in doc["homology"]]
        return table_error(ref, entries, jones_doc["euler_characteristic"])

    def probe_known_defects(self, khlab, workdir: Path) -> dict[str, str]:
        """Outcome of each known-defect input: 'ok' once it exits 1 cleanly."""
        out = {}
        for name in self.known_defects:
            observed = []
            for cmd in ("homology", "jones"):
                argv = [cmd, "--pd", str(workdir / f"{name}.pd"), "--format", "json"]
                try:
                    code, _, _ = run_cli(khlab, argv)
                    observed.append(f"{cmd} exit {code}")
                except Exception as exc:  # the defect under probe: an escaping exception
                    observed.append(f"{cmd} raised {type(exc).__name__}")
            clean = observed == ["homology exit 1", "jones exit 1"]
            out[name] = "ok" if clean else "defect: " + ", ".join(observed)
        return out


class TorusLarge:
    """10-11 crossing closures through the library: cube assembly and SNF dominate."""

    name = "torus-large"
    tail_pct = 50

    def make_inputs(self, rng, khlab, workdir: Path):
        pool = REFERENCES[self.name]
        items = [Item(k, seeded_variant(rng, ref), ref) for k, ref in enumerate(pool)]
        rng.shuffle(items)
        warm = warmup_ref(pool)
        return items, Item(-1, seeded_variant(rng, warm), warm)

    def run(self, khlab, item: Item):
        d = khlab.braid_closure(khlab.parse_braid(item.text))
        return khlab.homology_table(khlab.build_complex(d))

    def check(self, item: Item, table) -> str | None:
        entries = [[i, j, rank, list(tors)] for (i, j), (rank, tors) in table.entries()]
        return table_error(item.ref, entries, item.ref["jones"])


class VerifyPositive(TorusLarge):
    """The positive-braid verifier: the only workload with the kernel and reduction checks."""

    name = "verify-positive"
    tail_pct = 70

    def run(self, khlab, item: Item):
        return khlab.verify_positive_braid(khlab.parse_braid(item.text))

    def check(self, item: Item, report) -> str | None:
        statuses = {c.name: c.status for c in report.checks}
        if statuses != item.ref["checks"] or not report.all_passed:
            return f"verifier statuses {statuses} differ from the theorem's verdict"
        return None


WORKLOADS = {w.name: w for w in (CorpusSmall(), TorusLarge(), VerifyPositive())}
