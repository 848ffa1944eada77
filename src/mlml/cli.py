"""Command-line surface.

Subcommands wrap the library operations one-to-one: `eval` and `valid` work
on model/frame documents, `taut4` and `cons4` on the four-valued
propositional semantics, `search` runs the bounded countermodel search,
`correspond`, `enumerate` and `indiscern` drive the frame batteries, and
`checkproof` validates a derivation file.

Exit status: 0 when the query holds (valid, consequence, accepted, no
mismatch, no countermodel), 1 on the semantic negative, 2 on usage, parse or
schema errors, 3 when a resource cap was exceeded or memory ran out.  Output
is a pure function of arguments and input files; nothing is randomized.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from . import algebra, frames, kripke, proofs, prop4, syntax
from ._sweep import DEFAULT_MAX_VALUATIONS, ResourceBudgetExceeded

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


class CliError(Exception):
    pass


def _parse_formula(text: str) -> syntax.Formula:
    try:
        return syntax.parse(text)
    except syntax.ParseError as exc:
        raise CliError(f"formula {text!r}: {exc}") from exc


def _parse_premises(chunks: list[str] | None) -> list[syntax.Formula]:
    out = []
    for chunk in chunks or []:
        for part in chunk.split(";"):
            part = part.strip()
            if part:
                out.append(_parse_formula(part))
    return out


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}") from exc
    except RecursionError as exc:
        raise CliError(f"{path}: JSON nested too deeply") from exc


def _load_frame(spec: str) -> kripke.Frame:
    if spec.startswith("fixture:"):
        name = spec[len("fixture:"):]
        named = frames.fixtures()
        if name not in named:
            raise CliError(f"unknown fixture {name!r}; have {', '.join(sorted(named))}")
        return named[name]
    try:
        return kripke.frame_from_dict(_load_json(spec))
    except ValueError as exc:
        raise CliError(f"{spec}: {exc}") from exc


def _load_model(path: str) -> kripke.Model:
    try:
        return kripke.model_from_dict(_load_json(path))
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from exc


def _property(name: str) -> frames.FrameProperty:
    if name not in frames.PROPERTIES:
        raise CliError(f"unknown property {name!r}; have {', '.join(sorted(frames.PROPERTIES))}")
    return frames.PROPERTIES[name]


def _ultrafilters(args) -> tuple[algebra.Ultrafilter, ...]:
    if getattr(args, "all_ultrafilters", False):
        return algebra.ULTRAFILTERS
    return (algebra.Ultrafilter.from_name(args.ultrafilter),)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_eval(args) -> int:
    model = _load_model(args.model)
    if args.ultrafilter is not None:
        model = kripke.Model(
            model.frame, model.valuation, algebra.Ultrafilter.from_name(args.ultrafilter)
        )
    formula = _parse_formula(args.formula)
    if args.missing_as_zero:
        valuation = dict(model.valuation)
        for world in model.frame.worlds:
            for var in syntax.variables(formula):
                valuation.setdefault((world, var), algebra.BOT)
        model = kripke.Model(model.frame, valuation, model.ultrafilter)
    try:
        value = kripke.eval_formula(model, args.world, formula)
    except (kripke.UnknownWorldError, kripke.UnknownVariableError) as exc:
        raise CliError(str(exc)) from exc
    designated = algebra.is_designated(value, model.ultrafilter)
    print(f"{algebra.element_name(value)}, {'designated' if designated else 'not designated'}")
    return EXIT_OK


def _cmd_valid(args) -> int:
    frame = _load_frame(args.frame)
    formula = _parse_formula(args.formula)
    counter = kripke.find_frame_countermodel(
        frame, formula, _ultrafilters(args), max_valuations=args.max_valuations
    )
    if counter is not None:
        print(f"invalid under ultrafilter {counter.ultrafilter.name}; countermodel:")
        print(json.dumps(kripke.model_to_dict(counter), indent=2))
        return EXIT_NEGATIVE
    print("valid")
    return EXIT_OK


def _cmd_taut4(args) -> int:
    result = prop4.tautology4(_parse_formula(args.formula))
    if result.holds:
        print("valid")
        return EXIT_OK
    print(f"not valid; witness {result.witness_text()}")
    return EXIT_NEGATIVE


def _cmd_cons4(args) -> int:
    premises = _parse_premises(args.premises)
    goal = _parse_formula(args.goal)
    result = prop4.consequence4(premises, goal)
    if result.holds:
        print("consequence holds")
        return EXIT_OK
    print(f"not a consequence; witness {result.witness_text()}")
    return EXIT_NEGATIVE


def _cmd_search(args) -> int:
    premises = _parse_premises(args.premises)
    goal = _parse_formula(args.goal)
    frame_filter = None if args.require_property is None else _property(args.require_property)
    counter = kripke.countermodel_search(
        premises,
        goal,
        args.max_worlds,
        _ultrafilters(args),
        frame_filter=frame_filter,
        max_valuations=args.max_valuations,
        max_frames=args.max_frames,
    )
    if counter is None:
        print(f"no countermodel up to {args.max_worlds} worlds")
        return EXIT_OK
    print("countermodel found:")
    print(json.dumps(kripke.model_to_dict(counter), indent=2))
    return EXIT_NEGATIVE


def _cmd_correspond(args) -> int:
    selected = _ultrafilters(args)
    report = frames.correspondence_check(
        _property(args.property),
        _parse_formula(args.formula),
        args.max_worlds,
        selected,
        max_valuations=args.max_valuations,
        max_frames=args.max_frames,
        time_budget=args.time_budget,
        workers=args.workers,
        keep_rows=args.csv,
    )
    if args.csv:
        print("frame_encoding,property_holds,formula_valid,witness")
        # Line by line: the whole report as one string would double its memory.
        sys.stdout.writelines(report.csv_rows())
    counts = "+".join(str(frames.count_frames(n)) for n in range(1, args.max_worlds + 1))
    print(
        f"{counts} frames x {len(selected)} ultrafilters, "
        f"{report.mismatch_count} mismatches"
    )
    return EXIT_OK if report.clean else EXIT_NEGATIVE


def _cmd_enumerate(args) -> int:
    if args.count and not args.reduce:
        # A count has over 3n²/10 digits: one surely past the interpreter's
        # int-to-str limit (0: none) is not built; one just past it raises.
        limit = getattr(sys, "get_int_max_str_digits", int)()
        with contextlib.suppress(ValueError):
            if not limit or 3 * args.worlds ** 2 <= 10 * limit:
                print(frames.count_frames(args.worlds))
                return EXIT_OK
        raise ResourceBudgetExceeded(f"frame count on {args.worlds} worlds over {limit} digits")
    if args.count:
        print(sum(len(group) for _, group in frames.least_frames(args.worlds)))
        return EXIT_OK
    for frame in frames.enumerate_frames(args.worlds, reduce_isomorphism=args.reduce):
        print(frames.frame_encoding(frame))
    return EXIT_OK


def _cmd_indiscern(args) -> int:
    if args.corpus_depth < 0:
        raise CliError("--corpus-depth must be >= 0")
    report = frames.indiscernibility_check(
        args.corpus_depth, max_valuations=args.max_valuations
    )
    if args.csv:
        print("formula,ultrafilter,valid_soob_F,valid_soob_Fprime")
        for formula, uf, va, vb in report.disagreements:
            print(f"{frames._csv_cell(formula)},{uf},{str(va).lower()},{str(vb).lower()}")
    if report.agree:
        print(
            f"soob_F and soob_Fprime agree on all {report.formulas_checked} corpus formulas"
        )
        return EXIT_OK
    print(f"{len(report.disagreements)} disagreements over {report.formulas_checked} formulas")
    return EXIT_NEGATIVE


def _cmd_checkproof(args) -> int:
    try:
        derivation = proofs.derivation_from_dict(_load_json(args.proof))
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"{args.proof}: bad proof document: {exc}") from exc
    result = proofs.check(derivation)
    if not result.accepted:
        where = "" if result.failed_step is None else f" at step {result.failed_step}"
        print(f"rejected{where}: {result.violation}")
        return EXIT_NEGATIVE
    print(f"accepted: {derivation.final_judgment()}")
    if args.crosscheck:
        report = proofs.semantic_crosscheck(derivation, args.crosscheck_worlds,
                                            args.max_valuations, args.max_frames)
        if not report.sound:
            print("SOUNDNESS ALARM: countermodel to the final judgment:")
            print(json.dumps(kripke.model_to_dict(report.countermodel), indent=2))
            return EXIT_NEGATIVE
        print(f"crosscheck clean up to {args.crosscheck_worlds} worlds")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument plumbing
# ---------------------------------------------------------------------------


def _add_ultrafilter_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--ultrafilter", default="e1", choices=("e1", "e2", "e3"))
    parser.add_argument("--all-ultrafilters", action="store_true")


def _add_cap_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--max-valuations", type=int, default=DEFAULT_MAX_VALUATIONS,
        help="cap on the per-frame valuation count",
    )
    parser.add_argument("--max-frames", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlml",
        description="Evaluate, validate and search the ball-operator modal semantics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a formula at a world of a model file")
    p.add_argument("--model", required=True)
    p.add_argument("--world", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--ultrafilter", default=None, choices=("e1", "e2", "e3"))
    p.add_argument("--missing-as-zero", action="store_true",
                   help="default unassigned variables to 0 instead of failing")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("valid", help="check frame validity of a formula")
    p.add_argument("--frame", required=True, help="frame file or fixture:<name>")
    p.add_argument("--formula", required=True)
    _add_ultrafilter_flags(p)
    p.add_argument("--max-valuations", type=int, default=DEFAULT_MAX_VALUATIONS)
    p.set_defaults(func=_cmd_valid)

    p = sub.add_parser("taut4", help="four-valued propositional validity")
    p.add_argument("--formula", required=True)
    p.set_defaults(func=_cmd_taut4)

    p = sub.add_parser("cons4", help="four-valued propositional consequence")
    p.add_argument("--premises", action="append", default=[],
                   help="premise formula; repeatable, ';' separates several")
    p.add_argument("--goal", required=True)
    p.set_defaults(func=_cmd_cons4)

    p = sub.add_parser("search", help="bounded countermodel search for a global consequence")
    p.add_argument("--premises", action="append", default=[])
    p.add_argument("--goal", required=True)
    p.add_argument("--max-worlds", type=int, default=2)
    p.add_argument("--require-property", default=None,
                   help="restrict the search to frames with this property")
    _add_ultrafilter_flags(p)
    _add_cap_flags(p)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("correspond", help="frame-correspondence battery")
    p.add_argument("--property", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--max-worlds", type=int, default=3)
    p.add_argument("--csv", action="store_true")
    p.add_argument("--time-budget", type=float, default=None)
    p.add_argument("--workers", type=int, default=1)
    _add_ultrafilter_flags(p)
    _add_cap_flags(p)
    p.set_defaults(func=_cmd_correspond)

    p = sub.add_parser("enumerate", help="enumerate all frames of a given size")
    p.add_argument("--worlds", type=int, required=True)
    p.add_argument("--count", action="store_true")
    p.add_argument("--reduce", action="store_true",
                   help="keep one frame per world-permutation orbit")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("indiscern", help="corpus agreement of the two bubble fixtures")
    p.add_argument("--corpus-depth", type=int, default=3)
    p.add_argument("--csv", action="store_true")
    p.add_argument("--max-valuations", type=int, default=DEFAULT_MAX_VALUATIONS)
    p.set_defaults(func=_cmd_indiscern)

    p = sub.add_parser("checkproof", help="check a derivation file")
    p.add_argument("--proof", required=True)
    p.add_argument("--crosscheck", action="store_true",
                   help="also search for countermodels to the final judgment")
    p.add_argument("--crosscheck-worlds", type=int, default=2)
    _add_cap_flags(p)
    p.set_defaults(func=_cmd_checkproof)

    return parser


def _validate_caps(args) -> None:
    for name in ("max_valuations", "max_frames", "workers", "max_worlds", "worlds",
                 "crosscheck_worlds", "time_budget"):
        value = getattr(args, name, None)
        if value is not None and not value > 0:  # true for NaN too
            raise CliError(f"--{name.replace('_', '-')} must be positive")


_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    # Built on the first call, not at import, and reused: parse_args leaves
    # the parser as it was.
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        _validate_caps(args)
        return args.func(args)
    except (CliError, prop4.ModalOperatorError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceBudgetExceeded as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError:
        print("resource cap exceeded: out of memory", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
