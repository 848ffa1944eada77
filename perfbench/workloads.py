"""The benchmark's workloads: seeded inputs and the correctness gate.

Every workload is a sequence of passes, and a pass is a list of items, each
one `mlml` command line with everything needed to judge its output.  The
seed reorders the items of the two exhaustive workloads (`correspond-3w`,
`indiscern-d5`), draws the derivations of `crosscheck-3w`, and draws every
`queries` input.  Inputs depend on nothing but the workload name, the seed
and the pass number.

Expected outputs come from two places.  Exhaustive runs are compared with
counts and stdout digests recorded at the commit that added the benchmark
(`expected.json`).  Each `queries` item comes from a family whose verdict is
known by construction, chiefly `@x1, ..., @xk |- @(x1 & ... & xk)`, which
holds, and the same with one premise dropped, which does not: with the
other variables at 1 and the dropped one at a middle value the conjunction
is a middle value, and its ball is 0.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
EXPECTED = json.loads((HERE / "expected.json").read_text("utf-8"))

WORKLOADS = ("correspond-3w", "crosscheck-3w", "indiscern-d5", "queries")


def frame_count(n: int) -> int:
    """Labelled frames on n worlds: 2**(n*n) relations times 3**n labellings."""
    return (1 << (n * n)) * 3 ** n


FRAMES_UP_TO_3 = sum(frame_count(n) for n in (1, 2, 3))  # 13,974

# The nine correspondences of the acceptance battery, in its order.
CRITERIA = (
    ("reflexive", "[]p -> p"),
    ("transitive", "[]p -> [][]p"),
    ("euclidean", "<>p -> []<>p"),
    ("euclidean", "<>@p -> []<>@p"),
    ("serial", "[]p -> <>p"),
    ("symmetric", "p -> []<>p"),
    ("out_of_bubble", "<>T -> ([]~@p -> ~[]p)"),
    ("transitive_through_equality", "[]p -> [=][=]p"),
    ("transitive_through_difference", "[]p -> [-][=](@p & p)"),
)

# One-variable formulas over ~, &, @, [] with at most five connectives:
# syntax.corpus_size(1, 5).
CORPUS_D5 = 5909

# Groups of bundled derivations whose final judgments have the same variable
# count and whose crosschecks cost the same within 2%: about 0.82 clock
# seconds with one variable, about 2.6 with two.  The seed keeps one of each
# group and orders the two, so every draw has one one-variable and one
# two-variable judgment and the same cost, and a pass is short enough to
# repeat about eight times in a run.
CROSSCHECK_GROUPS = (
    ("ball_negation", "existence_axiom"),
    ("affirming_with_ball", "negating_with_ball"),
)


@dataclass
class Item:
    """One command line and what its result must be."""

    key: str  # identifies the input; repeated passes repeat keys
    argv: list[str]
    expect_exit: int
    expect_lines: tuple[str, ...] = ()  # each must be a whole line of stdout
    expect_sha256: str | None = None
    check: Callable[[str], str | None] | None = None  # further stdout checks
    frames: Callable[[str], int] | int = 0  # labelled frames decided
    formulas: int = 1  # formulas or judgments decided
    files: dict[str, str] = field(default_factory=dict)  # argv names -> contents

    def frames_decided(self, stdout: str) -> int:
        return self.frames(stdout) if callable(self.frames) else self.frames

    def verdict(self, code: int, stdout: str) -> str | None:
        """None when the result is right, else why it is wrong."""
        if code != self.expect_exit:
            return f"exit {code}, expected {self.expect_exit}"
        lines = set(stdout.splitlines())
        for line in self.expect_lines:
            if line not in lines:
                return f"missing output line {line!r}"
        if self.expect_sha256 is not None:
            digest = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
            if digest != self.expect_sha256:
                return f"stdout digest {digest[:12]} differs from the recorded one"
        if self.check is not None:
            return self.check(stdout)
        return None


class Plan:
    """The passes of one workload for one seed."""

    def __init__(self, workload: str, seed: int):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; have {', '.join(WORKLOADS)}")
        self.workload = workload
        self.seed = seed
        self._fixed = None if workload == "queries" else _FIXED[workload](random.Random(seed))

    @property
    def repeating(self) -> bool:
        """Whether every pass runs the same items (all but `queries`)."""
        return self._fixed is not None

    @property
    def min_passes(self) -> int:
        # queries: ten blocks of 100, so that ten latencies lie beyond p99.
        return 1 if self.repeating else 10

    def items(self, index: int) -> list[Item]:
        if self._fixed is not None:
            return self._fixed
        return query_block(random.Random(f"{self.seed}:{index}"), index)


# ---------------------------------------------------------------------------
# Exhaustive workloads
# ---------------------------------------------------------------------------


def correspond_item(prop: str, formula: str, max_worlds: int = 3,
                    mismatches: int | None = None, sha256: str | None = None) -> Item:
    """`correspond --csv` over all ultrafilters, gated on the mismatch count."""
    key = f"{prop}: {formula}"
    if max_worlds == 3 and mismatches is None:
        recorded = EXPECTED["correspond-3w"][key]
        mismatches, sha256 = recorded["mismatches"], recorded["sha256"]
    sizes = [frame_count(n) for n in range(1, max_worlds + 1)]
    counts = "+".join(str(size) for size in sizes)

    def rows_match(stdout: str) -> str | None:
        rows = len(stdout.splitlines()) - 2  # header and summary
        return None if rows == mismatches else f"{rows} CSV rows for {mismatches} mismatches"

    return Item(
        key=key,
        argv=["correspond", "--property", prop, "--formula", formula,
              "--max-worlds", str(max_worlds), "--all-ultrafilters", "--csv"],
        expect_exit=0 if mismatches == 0 else 1,
        expect_lines=(f"{counts} frames x 3 ultrafilters, {mismatches} mismatches",),
        expect_sha256=sha256,
        check=rows_match,
        frames=sum(sizes),
    )


def _correspond(rng: random.Random) -> list[Item]:
    items = [correspond_item(prop, formula) for prop, formula in CRITERIA]
    rng.shuffle(items)
    return items


def crosscheck_draw(rng: random.Random) -> list[str]:
    """Derivation names for one seed: one of each group, in seeded order."""
    names = [rng.choice(group) for group in CROSSCHECK_GROUPS]
    rng.shuffle(names)
    return names


def _bundled_derivations() -> dict[str, dict]:
    path = HERE.parent / "src" / "mlml" / "corpus" / "derivations.json"
    doc = json.loads(path.read_text("utf-8"))
    return {entry["name"]: entry for entry in doc["derivations"]}


def _crosscheck(rng: random.Random) -> list[Item]:
    bundled = _bundled_derivations()
    items = []
    for name in crosscheck_draw(rng):
        recorded = EXPECTED["crosscheck-3w"][name]
        items.append(Item(
            key=name,
            argv=["checkproof", "--proof", f"{name}.json",
                  "--crosscheck", "--crosscheck-worlds", "3"],
            expect_exit=0,
            expect_lines=(f"accepted: {recorded['judgment']}", "crosscheck clean up to 3 worlds"),
            expect_sha256=recorded["sha256"],
            frames=FRAMES_UP_TO_3,
            files={f"{name}.json": json.dumps(bundled[name])},
        ))
    return items


def _indiscern(rng: random.Random) -> list[Item]:
    return [Item(
        key="indiscern depth 5",
        argv=["indiscern", "--corpus-depth", "5"],
        expect_exit=0,
        expect_lines=(f"soob_F and soob_Fprime agree on all {CORPUS_D5} corpus formulas",),
        expect_sha256=EXPECTED["indiscern-d5"]["sha256"],
        frames=2 * CORPUS_D5,
        formulas=CORPUS_D5,
    )]


_FIXED = {
    "correspond-3w": _correspond,
    "crosscheck-3w": _crosscheck,
    "indiscern-d5": _indiscern,
}


# ---------------------------------------------------------------------------
# Interactive queries
# ---------------------------------------------------------------------------

_CARRIER_MIDDLES = {"A": ("e1", "e23"), "B": ("e2", "e13"), "C": ("e3", "e12")}
_FIXTURE_WORLDS = {
    "euc3": ("w", "u", "v"),
    "soob_F": ("w", "w1", "w2", "w1p", "w1pp", "w2p", "w2pp"),
    "soob_Fprime": ("u", "u1", "u2", "u1p", "u1pp", "u2p", "u2pp"),
}


def _names(rng: random.Random, k: int) -> list[str]:
    """k distinct variable names, in random order."""
    out: list[str] = []
    while len(out) < k:
        name = rng.choice("abcdefghijklmnopqrstuvwxyz") + "".join(
            rng.choice("abcdefghijklmnopqrstuvwxyz0123456789_") for _ in range(rng.randrange(3))
        )
        if name not in out:
            out.append(name)
    return out


def _conj(names: list[str]) -> str:
    return " & ".join(names)


def _balls(names: list[str]) -> str:
    return " & ".join("@" + n for n in names)


def _witness(names: list[str], dropped: str) -> str:
    """The first refuting assignment when `dropped` lost its premise: the
    others at 1, the dropped one at a (lowest middle value)."""
    return ", ".join(f"{n}={'a' if n == dropped else '1'}" for n in sorted(names))


def _countermodel_check(worlds: tuple[str, ...] | int) -> Callable[[str], str | None]:
    """The JSON after the verdict line is a model on the expected worlds."""

    def check(stdout: str) -> str | None:
        try:
            got = json.loads(stdout.split("\n", 1)[1])["worlds"]
        except (IndexError, ValueError, TypeError, KeyError):
            return "no countermodel document after the verdict line"
        if isinstance(worlds, int):
            return None if len(got) == worlds else f"countermodel has {len(got)} worlds"
        return None if tuple(got) == worlds else f"countermodel worlds {got}"

    return check


def frames_visited(stdout: str) -> int:
    """Frames `search` enumerated up to and including its countermodel's,
    from the frame it printed: searches run in canonical frame order."""
    doc = json.loads(stdout.split("\n", 1)[1])
    worlds = doc["worlds"]
    n = len(worlds)
    index = {w: i for i, w in enumerate(worlds)}
    bits = 0
    for a, b in doc["edges"]:
        bits |= 1 << (index[a] * n + index[b])
    labels = 0
    for w in worlds:
        labels = labels * 3 + "ABC".index(doc["lattices"][w])
    before = sum(frame_count(m) for m in range(1, n))
    return before + bits * 3 ** n + labels + 1


def _eval_item(rng: random.Random, key: str, n: int, k: int, boxed: bool,
               holds: bool) -> Item:
    worlds = [f"w{i}" for i in range(n)]
    labels = {w: rng.choice("ABC") for w in worlds}
    edges = [[a, b] for a in worlds for b in worlds if rng.random() < 0.5]
    names = _names(rng, k)
    valuation = {w: {x: rng.choice(("0", "1")) for x in names} for w in worlds}
    if boxed:
        target = rng.choice(worlds)
        if not any(a == target for a, _ in edges):
            edges.append([target, rng.choice(worlds)])
        spoiled = rng.choice([b for a, b in edges if a == target])
    else:
        target = spoiled = rng.choice(worlds)
    if not holds:
        # every variable at 1 except one at a middle value of the world's carrier
        for x in names:
            valuation[spoiled][x] = "1"
        valuation[spoiled][rng.choice(names)] = rng.choice(_CARRIER_MIDDLES[labels[spoiled]])
    model = {"worlds": worlds, "lattices": labels, "edges": edges,
             "ultrafilter": rng.choice(("e1", "e2", "e3")), "valuation": valuation}
    formula = ("[]" if boxed else "") + f"@({_conj(names)})"
    return Item(
        key=key,
        argv=["eval", "--model", f"{key}.json", "--world", target, "--formula", formula],
        expect_exit=0,
        expect_lines=("1, designated" if holds else "0, not designated",),
        files={f"{key}.json": json.dumps(model)},
    )


def _valid_item(rng: random.Random, key: str, fixture: str, k: int, holds: bool) -> Item:
    if k == 0:
        # Axiom 5 fails on the Euclidean triangle; its ball-guarded form holds.
        x = _names(rng, 1)[0]
        formula = f"<>@{x} -> []<>@{x}" if holds else f"<>{x} -> []<>{x}"
    else:
        names = _names(rng, k)
        kept = names if holds else names[:-1]
        formula = f"@({_conj(names)})" if not kept else f"{_balls(kept)} -> @({_conj(names)})"
    argv = ["valid", "--frame", f"fixture:{fixture}", "--formula", formula]
    if holds or rng.random() < 0.5:
        argv.append("--all-ultrafilters")
    return Item(
        key=key,
        argv=argv,
        expect_exit=0 if holds else 1,
        expect_lines=("valid",) if holds else ("invalid under ultrafilter e1; countermodel:",),
        check=None if holds else _countermodel_check(_FIXTURE_WORLDS[fixture]),
        frames=1,
    )


def _search_item(rng: random.Random, key: str, boxed: bool, k: int) -> Item:
    names = _names(rng, k)
    if boxed:
        # Global truth of every x does not give [](x1 & ... & xk): the
        # two-world countermodel to p |- []p, other variables at 1.
        premises, goal, worlds = ";".join(names), f"[]({_conj(names)})", 2
    else:
        premises = ";".join("@" + x for x in names[:-1])
        goal, worlds = f"@({_conj(names)})", 1
    return Item(
        key=key,
        argv=["search", "--premises", premises, "--goal", goal, "--max-worlds", "3"],
        expect_exit=1,
        expect_lines=("countermodel found:",),
        check=_countermodel_check(worlds),
        frames=frames_visited,
    )


def _prop4_item(rng: random.Random, key: str, command: str, k: int, holds: bool) -> Item:
    names = _names(rng, k)
    # Dropping the name that sorts last puts the first refuting assignment
    # at the end of the table, so every negative scans all of it, as the
    # positives do, whatever names the seed drew.
    dropped = max(names)
    kept = names if holds else [x for x in names if x != dropped]
    goal = f"@({_conj(names)})"
    if command == "taut4":
        argv = ["taut4", "--formula", f"{_balls(kept)} -> {goal}"]
        positive, negative = "valid", "not valid; witness "
    else:
        argv = ["cons4", "--premises", ";".join("@" + x for x in kept), "--goal", goal]
        positive, negative = "consequence holds", "not a consequence; witness "
    return Item(
        key=key,
        argv=argv,
        expect_exit=0 if holds else 1,
        expect_lines=(positive if holds else negative + _witness(names, dropped),),
    )


def _proof_item(rng: random.Random, key: str, k: int, holds: bool) -> Item:
    """Premises @x1..@xk, a TautCons step concluding their conjunction (k
    opaque atoms), then a BF chain to @(x1 & ... & xk).  Dropping one premise
    breaks the TautCons step, whose truth table then runs to its last rows."""
    names = _names(rng, k)
    dropped = None if holds else rng.randrange(k)
    premises = ["@" + x for i, x in enumerate(names) if i != dropped]
    steps = [{"premises": premises, "conclusion": p, "rule": "Premise", "cites": []}
             for p in premises]
    steps.append({"premises": premises, "conclusion": _balls(names), "rule": "TautCons",
                  "cites": list(range(len(premises)))})
    acc, prev = names[0], 0
    for i in range(1, k):
        acc = f"{acc} & {names[i]}"
        steps.append({"premises": premises, "conclusion": f"@({acc})", "rule": "BF",
                      "cites": [prev, i]})
        prev = len(steps) - 1
    if holds:
        line = f"accepted: {', '.join(sorted(premises))} |- @({_conj(names)})"
    else:
        line = (f"rejected at step {k - 1}: TautCons conclusion is not a tautological "
                "consequence of the cited conclusions")
    return Item(
        key=key,
        argv=["checkproof", "--proof", f"{key}.json"],
        expect_exit=0 if holds else 1,
        expect_lines=(line,),
        files={f"{key}.json": json.dumps({"steps": steps})},
    )


def query_block(rng: random.Random, index: int) -> list[Item]:
    """100 queries in fixed proportions per kind and size, in seeded order.

    The seed draws names, frames, models and the dropped premise; the kind,
    size and verdict of every query are fixed, so each block does about the
    same work.  The two `cons4` queries over eight variables (about 0.3 s
    each) are the slowest 2% by a wide margin, so p99 lies inside one
    homogeneous class.
    """
    items: list[Item] = []

    def key(kind: str) -> str:
        return f"b{index}-{len(items):02d}-{kind}"

    for i in range(26):
        items.append(_eval_item(rng, key("eval"), n=1 + i % 4, k=1 + (i // 2) % 4,
                                boxed=i % 3 == 0, holds=i % 2 == 0))
    # (fixture, variable count); 0 is the axiom 5 pair on the triangle.
    for fixture, k in (("euc3", 1), ("euc3", 2), ("euc3", 0), ("soob_F", 1),
                       ("soob_Fprime", 1), ("euc3", 2), ("euc3", 1), ("soob_F", 1),
                       ("soob_Fprime", 1)):
        for holds in (True, False):
            items.append(_valid_item(rng, key("valid"), fixture, k, holds))
    for k in (1, 2, 3, 1, 2, 3, 2):
        items.append(_search_item(rng, key("search"), boxed=True, k=k))
        items.append(_search_item(rng, key("search"), boxed=False, k=k + 1))
    for k in (4, 4, 4, 4, 5, 5, 5, 5, 6, 6, 6, 6):
        items.append(_prop4_item(rng, key("taut4"), "taut4", k, holds=len(items) % 2 == 0))
    for k in (4, 4, 4, 5, 5, 5, 6, 6, 6, 7, 7, 7, 8, 8):
        items.append(_prop4_item(rng, key("cons4"), "cons4", k, holds=len(items) % 2 == 0))
    for k in (2, 2, 4, 4, 6, 6, 8, 8, 10, 10, 12, 12, 14, 14, 16, 16):
        items.append(_proof_item(rng, key("checkproof"), k, holds=len(items) % 2 == 0))
    rng.shuffle(items)
    return items
