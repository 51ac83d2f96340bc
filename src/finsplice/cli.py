"""Command-line front end.

Exit codes: 0 success (a formula mismatch is a finding, not a failure),
2 input and output errors (unreadable or invalid space files, a path that
`fixtures export` cannot write, a closed standard output), 3 usage errors
(bad flags, unknown fixtures, not exactly one of `--fixture`, `--input`
and `--random`, `--random` below 1, zero `--length`, negative
`--max-degree`), 4 internal errors (any other exception, reported as one
line on stderr instead of a traceback).

The argument parser is built once per process, on the first `main` call,
and shared by every later call; each call parses into a fresh namespace,
so nothing derived from one call's input reaches the next.  A plain command
line is read from the parser's own option table (`_Parser.parse_args`);
everything else, help and every usage error included, goes to argparse.

The reports' JSON shape is built here alone, each report's groups in one
`_group_dicts` call; `homology` and `splice` return plain values, `compare`
a verdict per degree, from which the theorem rows and summary are built here.
`spliced --verify-theorem` checks the claim stated for the length-3 splice of
(poset, relative) whatever `--length` and its sign; only the direct column
follows `--length`.

Every run starts a fresh interpreter, so importing this module loads
nothing that no command needs; a guard test in `tests/test_cli.py` names
the standard-library modules that must stay unloaded.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Iterable, Sequence

from .complexes import cochain
from .fixtures import FIXTURES, random_space
from .homology import GroupPresentation, all_groups
from .io import (
    REPORT_FORMAT,
    SpaceFormatError,
    dump_space,
    dumps,
    load_space,
    space_to_dict,
)
from .pipeline import POSET_WARNING, PipelineData, build_pipeline
from .spaces import InvalidPreorder, Preorder, TopologyError
from .splice import MATCH, MISMATCH, compare, splice, splice_negative, spliced_cohomology, theorem_claimed_groups

USAGE_ERROR = 3
INPUT_ERROR = 2
INTERNAL_ERROR = 4


def _defaults(parser: argparse.ArgumentParser) -> dict:
    """What argparse puts in the parser's fresh namespace before it reads a word, string defaults converted."""
    values = {}
    for a in parser._actions:
        if a.dest is not argparse.SUPPRESS and a.default is not argparse.SUPPRESS:
            values.setdefault(a.dest, parser._get_value(a, a.default) if isinstance(a.default, str) else a.default)
    return {**parser._defaults, **values}


class _Parser(argparse.ArgumentParser):
    def parse_args(self, args=None, namespace=None):
        """argparse's `parse_args`, but a plain command line is read from the parsers' own tables.

        Plain means all of:
        - the first word names a subcommand, the top parser's only positional,
          whose parser has no positional, required option or exclusive group;
        - each later word is that parser's exact option string for a store-true
          action, or for a one-value store action followed by a value that passes
          its type and choices and starts with no `-`, unless it is a negative
          number and the parser has no option that looks like one.
        Anything else (`--len`, `--opt=value`, `-h`, `--`, a missing, unknown
        or bad value) goes to argparse, which writes help, usage and every error.
        """
        argv = sys.argv[1:] if args is None else list(args)
        values = self._plain_values(argv) if namespace is None else None
        return super().parse_args(argv, namespace) if values is None else argparse.Namespace(**values)

    def _plain_values(self, argv: list[str]) -> dict | None:
        first = [a for a in self._actions if not a.option_strings or a.required]
        chooser = first[0] if len(first) == 1 and isinstance(first[0], argparse._SubParsersAction) else None
        sub = chooser.choices.get(argv[0]) if chooser and argv else None
        if sub is None or sub._mutually_exclusive_groups or any(not a.option_strings or a.required for a in sub._actions):
            return None
        words = iter(argv[1:])
        try:
            values = {**_defaults(self), chooser.dest: argv[0], **_defaults(sub)}
            for word in words:
                action = sub._option_string_actions.get(word)
                if type(action) is argparse._StoreTrueAction:
                    values[action.dest] = action.const
                    continue
                value = next(words, None)
                if type(action) is not argparse._StoreAction or action.nargs is not None or value is None:
                    return None
                dashed = value.startswith(tuple(sub.prefix_chars))
                if dashed and (sub._has_negative_number_optionals or not sub._negative_number_matcher.match(value)):
                    return None
                values[action.dest] = sub._get_value(action, value)
                sub._check_value(action, values[action.dest])
        except argparse.ArgumentError:
            return None
        return values

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _input_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("input")
    group.add_argument("--fixture", metavar="NAME", help="bundled example space")
    group.add_argument("--input", metavar="PATH", help="space file (JSON)")
    group.add_argument("--random", metavar="K", type=int, help="random space on K points")
    group.add_argument("--seed", metavar="S", type=int, default=0, help="seed for --random")
    parser.add_argument("--format", choices=("table", "json"), default="table")


@functools.cache
def build_parser() -> _Parser:
    """The shared parser: built on the first call, the same object after that.

    Callers must not mutate it (add arguments, change defaults); every
    later `main` call in the process would see the change.
    """
    parser = _Parser(prog="finsplice", description="(co)homology of finite topological spaces")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="poset part, complementary part, classes")
    _input_options(p)

    p = sub.add_parser("homology", help="(co)homology table of one pipeline complex")
    _input_options(p)
    p.add_argument("--complex", dest="which", choices=("poset", "ambient", "relative"), default="poset")
    p.add_argument("--theory", choices=("homology", "cohomology"), default="homology")

    p = sub.add_parser("spliced", help="spliced cohomology, optionally verified against the formula table")
    _input_options(p)
    p.add_argument("--length", type=int, default=3, help="block length, nonzero; negative swaps the sources")
    p.add_argument("--max-degree", type=int, default=11)
    claim = "compare with the groups claimed for the length-3 splice of (poset, relative), whatever --length"
    p.add_argument("--verify-theorem", action="store_true", help=claim)

    p = sub.add_parser("fixtures", help="list, show, or export bundled spaces")
    fix_sub = p.add_subparsers(dest="action", required=True)
    fix_sub.add_parser("list")
    show = fix_sub.add_parser("show")
    show.add_argument("name")
    export = fix_sub.add_parser("export")
    export.add_argument("name")
    export.add_argument("path")
    return parser


def _resolve_space(args, parser: _Parser) -> Preorder:
    chosen = [
        name
        for name, value in (("--fixture", args.fixture), ("--input", args.input), ("--random", args.random))
        if value is not None
    ]
    if len(chosen) != 1:
        parser.error("exactly one of --fixture, --input, or --random is required")
    if args.fixture is not None:
        if args.fixture not in FIXTURES:
            parser.error(f"unknown fixture {args.fixture!r} (see 'finsplice fixtures list')")
        return FIXTURES[args.fixture]
    if args.random is not None:
        if args.random < 1:
            parser.error("--random needs at least one point")
        return random_space(args.random, seed=args.seed)
    return load_space(args.input)


_NAME_ESCAPES = str.maketrans(
    {"\\": "\\\\", ",": "\\,", "{": "\\{", "}": "\\}"}
    | {c: f"\\u{ord(c):04x}" for c in "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"}
)


def escape_names(names: Iterable[str]) -> list[str]:
    """Each name with a `\\` before each `\\`, `,`, `{` and `}`, and each character
    at which `str.splitlines` breaks written as `\\u` and four hex digits, so
    the `decompose` table's lines read back uniquely."""
    return [v.translate(_NAME_ESCAPES) for v in names]


def _group_dicts(groups: Sequence[GroupPresentation]) -> list[dict]:
    """The groups' report dicts in order; equal groups share one, made fresh on each call.

    Sharing lets `io.dumps` write each distinct group once per place.

    >>> zero, z, again = _group_dicts([GroupPresentation(), GroupPresentation(1), GroupPresentation()])
    >>> again is zero, z
    (True, {'rank': 1, 'torsion': [], 'pretty': 'Z'})
    >>> _group_dicts([GroupPresentation()])[0] is zero
    False
    """
    made = {g: {"rank": g.rank, "torsion": list(g.torsion), "pretty": str(g)} for g in dict.fromkeys(groups)}
    return [made[g] for g in groups]


def _group_row(degree: int, group: GroupPresentation) -> str:
    return f"{degree:>6}  {group}"


def _space_block(data: PipelineData) -> dict:
    return {
        "points": list(data.preorder.points),
        "point_count": len(data.preorder.points),
        "t0": data.t0,
        "poset_warning": POSET_WARNING if data.t0 else None,
    }


def _decomposition_block(data: PipelineData) -> dict:
    dec = data.decomposition
    return {
        "classes": [list(cls) for cls in dec.classes],
        "representatives": list(dec.representatives),
        "complementary": list(dec.complementary),
    }


def _warning_lines(data: PipelineData) -> list[str]:
    return [f"warning: {POSET_WARNING}"] if data.t0 else []


def cmd_decompose(args, parser: _Parser) -> int:
    data = build_pipeline(_resolve_space(args, parser))
    report = {
        "format": REPORT_FORMAT,
        "command": "decompose",
        "space": _space_block(data),
        "decomposition": _decomposition_block(data),
        "complex_sizes": data.complex_sizes,
    }
    if args.format == "json":
        sys.stdout.write(dumps(report))
        return 0
    lines = [f"points: {len(data.preorder.points)} (T0: {'yes' if data.t0 else 'no'})"]
    lines += _warning_lines(data)
    dec = data.decomposition
    lines.append("classes: " + " ".join("{" + ", ".join(escape_names(cls)) + "}" for cls in dec.classes))
    lines.append("representatives: " + ", ".join(escape_names(dec.representatives)))
    lines.append("complementary: " + (", ".join(escape_names(dec.complementary)) or "(none)"))
    print("\n".join(lines))
    return 0


def cmd_homology(args, parser: _Parser) -> int:
    data = build_pipeline(_resolve_space(args, parser))
    chain = getattr(data, f"{args.which}_chain")
    if args.theory == "cohomology":
        chain = cochain(chain)
    groups = all_groups(chain)
    report = {
        "format": REPORT_FORMAT,
        "command": "homology",
        "space": _space_block(data),
        "complex": args.which,
        "theory": args.theory,
        "complex_sizes": data.complex_sizes,
        "groups": _group_dicts(groups),
    }
    if args.format == "json":
        sys.stdout.write(dumps(report))
        return 0
    lines = _warning_lines(data)
    lines.append(f"complex: {args.which}  theory: {args.theory}")
    lines.append("degree  group")
    if groups:
        lines.extend(_group_row(k, g) for k, g in enumerate(groups))
    else:
        lines.append("(zero complex)")
    print("\n".join(lines))
    return 0


def cmd_spliced(args, parser: _Parser) -> int:
    if args.length == 0:
        parser.error("--length must be nonzero")
    if args.max_degree < 0:
        parser.error("--max-degree must be nonnegative")
    data = build_pipeline(_resolve_space(args, parser))
    if args.length > 0:
        spliced = splice(data.sources, args.length)
    else:
        spliced = splice_negative(data.sources, args.length)
    direct = spliced_cohomology(spliced, args.max_degree)
    claimed = theorem_claimed_groups(*data.sources, args.max_degree) if args.verify_theorem else ()
    verdicts = compare(direct, claimed) if args.verify_theorem else ()
    # Every degree has a claimed group, so "uncovered" is always 0; it stays
    # in the summary so that `finsplice-report/1` reports keep their bytes.
    counts = {v: verdicts.count(v) for v in (MATCH, MISMATCH)} | {"uncovered": 0}
    dicts = _group_dicts(direct + claimed)
    report = {
        "format": REPORT_FORMAT,
        "command": "spliced",
        "space": _space_block(data),
        "decomposition": _decomposition_block(data),
        "complex_sizes": data.complex_sizes,
        "length": args.length,
        "max_degree": args.max_degree,
        "groups": dicts[: len(direct)],
    }
    if args.verify_theorem:
        pairs = enumerate(zip(verdicts, dicts, dicts[len(direct) :]))
        rows = [{"degree": k, "direct": d, "claimed": c, "verdict": v} for k, (v, d, c) in pairs]
        report["theorem"] = {"rows": rows, "summary": counts}
    if args.format == "json":
        sys.stdout.write(dumps(report))
        return 0
    lines = _warning_lines(data)
    lines.append(f"spliced cohomology, length {args.length}, max degree {args.max_degree}")
    lines.append("degree  group")
    lines.extend(_group_row(k, g) for k, g in enumerate(direct))
    if args.verify_theorem:
        width = max(len(text) for text in ("direct", *map(str, direct)))
        lines.append("")
        lines.append(f"degree  {'direct':<{width}}  claimed     verdict")
        for k, (d, c, v) in enumerate(zip(direct, claimed, verdicts)):
            lines.append(f"{k:>6}  {str(d):<{width}}  {str(c):<10}  {v}")
        lines.append("summary: " + " / ".join(f"{n} {v}" for v, n in counts.items()))
    print("\n".join(lines))
    return 0


def cmd_fixtures(args, parser: _Parser) -> int:
    if args.action == "list":
        for name in FIXTURES:
            print(name)
        return 0
    if args.name not in FIXTURES:
        parser.error(f"unknown fixture {args.name!r}")
    space = FIXTURES[args.name]
    if args.action == "show":
        sys.stdout.write(dumps(space_to_dict(space)))
        return 0
    dump_space(space, args.path)
    print(f"wrote {args.path}")
    return 0


_COMMANDS = {
    "decompose": cmd_decompose,
    "homology": cmd_homology,
    "spliced": cmd_spliced,
    "fixtures": cmd_fixtures,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = _COMMANDS[args.command](args, parser)
        sys.stdout.flush()  # a closed standard output fails here, not at exit
        return code
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    except (SpaceFormatError, TopologyError, InvalidPreorder, OSError) as exc:
        print(f"finsplice: input error: {exc}", file=sys.stderr)
        if isinstance(exc, BrokenPipeError):  # drop the unread bytes, so the exit flush cannot fail again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return INPUT_ERROR
    except Exception as exc:
        message = " ".join(str(exc).splitlines())
        print(f"finsplice: internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
