"""Command-line front door.

Subcommands: catalog, quiver, relations, monad, count, series, character,
compare.  Exit codes: 0 success, 1 verification mismatch, 2 usage error,
141 when the reader of stdout goes away (128 + SIGPIPE, the status of a
process the signal ends).  JSON output is deterministic (sorted keys, fixed
separators).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import warnings
from fractions import Fraction

from . import catalog, characters, checks, framing, monad, partitions
from .qseries import coefficients_in_single_var, format_terms


def _emit_json(data) -> None:
    print(json.dumps(data, sort_keys=True, separators=(",", ":")))


def _rational(where: str, value) -> Fraction:
    try:
        return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError):
        raise ValueError(f"{where}: {value!r} is not a rational number") from None


def _read_json(path: str):
    """The JSON value in the file at ``path``; a parse fault names the file."""
    with open(path) as handle:
        try:
            return json.load(handle)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def _load_framing(fq, path: str | None):
    """The framing structure of a ``--framing`` file (none given reads as
    ``{}``): ranks default to 1 and marked-arrow matrices to zero."""
    data = {} if path is None else _read_json(path)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: a framing file holds a JSON object with 'ranks' and 'arrows'")
    for key in data:
        if key not in ("ranks", "arrows"):
            raise ValueError(f"{path}: unknown key {key!r} (expected 'ranks', 'arrows')")
    arrows, given_ranks = data.get("arrows", {}), data.get("ranks", {})
    marked = [a.name for a in fq.quiver.arrows if a.marked]
    for key, entries, allowed, what in (
        ("arrows", arrows, marked, "marked arrow"),
        ("ranks", given_ranks, sorted(fq.framing_vertices), "framing vertex"),
    ):
        if not isinstance(entries, dict):
            raise ValueError(f"{path}: {key!r} must be a JSON object")
        for name in entries:
            if name not in allowed:
                raise ValueError(
                    f"{path}: {key} key {name!r} is not a {what} of {fq.label} "
                    f"(expected one of {', '.join(allowed)})"
                )
    matrices = {}
    for name, rows in arrows.items():
        where = f"{path}: arrows[{name!r}]"
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise ValueError(f"{where}: a matrix is a list of rows, got {rows!r}")
        matrices[name] = tuple(tuple(_rational(where, x) for x in row) for row in rows)
    ranks = dict.fromkeys(fq.framing_vertices, 1)
    for v, r in given_ranks.items():
        if not str(r).isdecimal():
            raise ValueError(f"{path}: ranks[{v!r}] = {r!r} is not a non-negative integer")
        ranks[v] = int(r)
    zero = framing.FramingStructure.zero(fq, ranks)
    return framing.FramingStructure(ranks, {**zero.matrices, **matrices})


def _load_points(path: str) -> list[tuple[Fraction, Fraction]]:
    """Plane points of a ``--numeric`` file: the C3 point witness has
    B3 = 0, so every point is an [x, y] pair (z = 0)."""
    data = _read_json(path)
    if not isinstance(data, dict) or "points" not in data:
        raise ValueError(f"{path}: no 'points' key")
    if not isinstance(data["points"], list):
        raise ValueError(f"{path}: 'points' must be a list of [x, y] pairs, got {data['points']!r}")
    if not data["points"]:
        raise ValueError(f"{path}: 'points' is empty, so there is no point to check")
    points = []
    for k, p in enumerate(data["points"]):
        where = f"{path}: points[{k}]"
        if not isinstance(p, list) or len(p) != 2:
            raise ValueError(
                f"{where} = {p!r} is not an [x, y] pair (the point witness has B3 = 0, "
                "so points lie in the plane z = 0)"
            )
        points.append((_rational(where, str(p[0])), _rational(where, str(p[1]))))
    return points


# -- subcommands -------------------------------------------------------------


def cmd_catalog(args) -> int:
    if _unread_option(args, args.action, {"id": ("show",), "--json": ("show",)}):
        return 2
    if args.action == "list":
        for g in catalog.geometry_ids():
            print(f"geometry  {g}")
        for e in catalog.framed_example_ids():
            print(f"framed    {e}")
        for t in catalog.monad_template_ids():
            print(f"monad     {t}")
        return 0
    if args.id is None:
        print("usage: quiverdt catalog show <id> [--json]", file=sys.stderr)
        return 2
    entry = catalog.get_entry(args.id)
    if args.json:
        _emit_json(
            {
                "geometry": entry.geometry,
                "quiver": entry.quiver.to_json(),
                "potential": entry.potential.to_json(),
                "simples": list(entry.simples),
                "curve_classes": list(entry.curve_classes),
            }
        )
    else:
        print(f"geometry {entry.geometry}")
        print(f"  quiver: vertices {', '.join(entry.quiver.vertices)}")
        for a in entry.quiver.arrows:
            print(f"    {a.name}: {a.src} -> {a.tgt}")
        print(f"  potential: {entry.potential.render()}")
    return 0


def cmd_quiver(args) -> int:
    if args.framed:
        fq = catalog.get_framed_example(args.id)
        if not fq.framing_vertices:
            raise catalog.NotInCatalog(args.id)
        q = fq.quiver
    else:
        q, _ = catalog.get_quiver_with_potential(args.id)
    if args.dot:
        print(q.to_dot())
    else:
        _emit_json(q.to_json())
    return 0


def cmd_relations(args) -> int:
    fq = catalog.get_framed_example(args.id)
    if args.framing is not None and not fq.framing_vertices:
        msg = f"usage: --framing needs a framed example; {args.id!r} is an unframed geometry"
        print(msg, file=sys.stderr)
        return 2
    structure = _load_framing(fq, args.framing)
    rels = framing.framed_relations(framing.specialize(fq, structure)).relations
    if args.json:
        _emit_json(
            [
                {
                    "arrow": r.arrow,
                    "src": r.src,
                    "tgt": r.tgt,
                    "terms": [
                        {"word": list(p.arrows), "coeff": str(c)}
                        for p, c in sorted(
                            r.poly.terms.items(), key=lambda pc: pc[0].sort_key(rels.quiver)
                        )
                    ],
                }
                for r in rels
            ]
        )
    else:
        for r in rels:
            print(f"d/d{r.arrow}: {r.poly.render(rels.quiver)} = 0    ({r.src} -> {r.tgt})")
    return 0


def cmd_monad(args) -> int:
    c, rels = catalog.monad_case(args.id)
    if args.numeric:
        points = _load_points(args.numeric)
        rep, dims, cyclic = framing.numeric_solution_builder(points)
        unbound = [a.name for a in c.quiver.arrows if a.name not in rep]
        if unbound:
            raise ValueError(
                f"no numeric witness for template {c.label}: "
                f"unbound arrows {', '.join(unbound)}"
            )
    report = monad.certify_d_squared(c, rels)
    payload = {
        "template": c.label,
        "certified": report.certified,
        "components": len(report.entries),
        "failures": [
            {"stage": f.stage, "row": f.row, "col": f.col, "exps": list(f.exps)}
            for f in report.failures
        ],
        "membership": report.membership,
        "phases": report.phases,
    }
    if args.numeric:
        rep = {name: m for name, m in rep.items() if rels.quiver.has_arrow(name)}
        tables = []
        for p in points:
            try:
                res = monad.evaluate(
                    c, rep, dims, (p[0], p[1], 0), relations=rels, resolution_certified=True
                )
            except monad.RelationsViolated as exc:
                print(f"numeric witness of {c.label}: {exc}", file=sys.stderr)
                return 1
            if not res.d_squared_zero:
                msg = f"numeric witness of {c.label}: d^2 != 0 at ({p[0]}, {p[1]}, 0)"
                print(msg, file=sys.stderr)
                return 1
            tables.append(
                {
                    "point": [str(x) for x in (p[0], p[1], 0)],
                    "fiber": res.fiber_cohomology,
                    "sheaf": res.sheaf_fibers,
                }
            )
        payload["numeric"] = {"cyclic": cyclic, "cohomology": tables}
    if args.json:
        _emit_json(payload)
    else:
        print(f"template {c.label}: {'certified' if report.certified else 'FAILED'}")
        for f in report.failures:
            print(f"  failure at stage {f.stage} entry ({f.row},{f.col})")
        for t in payload.get("numeric", {}).get("cohomology", []):
            print(f"  point {t['point']}: sheaf cohomology {t['sheaf']}")
    return 0 if report.certified else 1


def _unread_option(args, choice: str, readers: dict[str, tuple[str, ...]]) -> bool:
    """Whether ``args`` sets an argument that ``choice`` does not read, after
    printing a usage line that names it; ``readers`` maps each argument, as
    spelled on the command line, to the choices that read it."""
    for option, choices in readers.items():
        if getattr(args, option.lstrip("-")) is not None and choice not in choices:
            only = " and ".join(choices)
            msg = f"usage: {args.command} {option} applies only to {only}, not to {choice}"
            print(msg, file=sys.stderr)
            return True
    return False


def cmd_count(args) -> int:
    family = args.family
    readers = {"--rank": ("tuples", "nested"), "--colors": ("plane",), "--pit": ("plane",)}
    if _unread_option(args, family, readers):
        return 2
    rank = 1 if args.rank is None else args.rank
    if family == "partitions":
        series = partitions.partition_series(args.order)
    elif family == "tuples":
        series = partitions.tuple_series(rank, args.order)
    elif family == "nested":
        series = partitions.nested_series(rank, args.order)
    elif family == "plane":
        series = partitions.plane_partition_series(args.order, colors=args.colors, pit=args.pit)
    elif family == "pyramid":
        series = partitions.pyramid_series(args.order)
    else:
        series = partitions.blowup_series(args.order)
    if args.json:
        _emit_json(series.to_json())
    else:
        print(format_terms(series))
    return 0


def cmd_series(args) -> int:
    from .qseries import euler_factor, macmahon

    if _unread_option(args, args.formula, {"--power": ("macmahon-power",)}):
        return 2
    if args.formula in ("macmahon", "macmahon-power"):
        series = macmahon(args.order, 1 if args.power is None else args.power)
    else:
        series = euler_factor(args.order, -1 if args.formula == "eta-inverse" else 1)
    if args.json:
        _emit_json(series.to_json())
    else:
        print(format_terms(series))
    return 0


def cmd_character(args) -> int:
    if args.divisor is not None:
        shift = catalog.divisor_to_shift_matrix(args.m, args.n, *args.divisor)
    else:
        sub = (0,) * (args.m + args.n - 1) if args.shift is None else args.shift
        shift = catalog.ShiftMatrix(args.m, args.n, sub)
    series = characters.character_from_shift(shift, args.t, args.order)
    if args.json:
        _emit_json(
            {
                "m": shift.m,
                "n": shift.n,
                "sub": list(shift.sub),
                "t": args.t,
                "series": series.to_json(),
            }
        )
    else:
        coeffs = coefficients_in_single_var(series)
        print(f"shift {shift.sub} (m={shift.m}, n={shift.n}), t={args.t}")
        print(",".join(str(c) for c in coeffs))
    return 0


def _pit(text: str) -> tuple[int, int]:
    """The ``--pit`` value ``M,N``: exactly two comma-separated integers."""
    try:
        m, n = map(int, text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected M,N (two comma-separated integers), got {text!r}"
        ) from None
    return m, n


def _shift(text: str) -> tuple[int, ...]:
    """The ``--shift`` value: subdiagonal integers separated by ``;`` or ``,``."""
    try:
        return tuple(int(v) for v in text.replace(";", ",").split(",") if v != "")
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected integers separated by ';' or ',', got {text!r}"
        ) from None


def _divisor(text: str) -> tuple[list[int], list[int]]:
    """The ``--divisor`` value ``mu=P nu=Q``: the partitions mu and nu."""
    parts: dict[str, list[int]] = {"mu": [], "nu": []}
    for piece in text.split():
        key, _, values = piece.partition("=")
        try:
            if key not in parts:
                raise ValueError(key)
            parts[key] = [int(v) for v in values.split(",") if v != ""]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"bad divisor component {piece!r} (expected mu=P or nu=Q, "
                "each a list of comma-separated integers)"
            ) from None
    return parts["mu"], parts["nu"]


def cmd_compare(args) -> int:
    orderless = args.target != "all" and checks.COMPARE_TARGETS[args.target][0] is None
    if orderless and args.order is not None:
        print(f"usage: compare target {args.target!r} takes no --order", file=sys.stderr)
        return 2
    names = list(checks.COMPARE_TARGETS) if args.target == "all" else [args.target]
    results = [checks.run_check(name, args.order) for name in names]
    if args.json:
        _emit_json(
            [
                {
                    "name": r.name,
                    "equal": r.equal,
                    "order": r.order,
                    "mismatch": None
                    if r.mismatch is None
                    else {"exp": list(r.mismatch[0]), "a": r.mismatch[1], "b": r.mismatch[2]},
                    **({"detail": r.detail} if r.detail else {}),
                }
                for r in results
            ]
        )
    else:
        for r in results:
            print(r.describe())
    return 0 if all(r.equal for r in results) else 1


# -- parser ------------------------------------------------------------------


def _add_catalog(sub) -> None:
    p = sub.add_parser("catalog", help="list or show catalog entries")
    p.add_argument("action", choices=["list", "show"])
    p.add_argument("id", nargs="?", help="geometry id for 'show'")
    p.add_argument("--json", action="store_true", default=None, help="'show' only")
    p.set_defaults(fn=cmd_catalog)


def _add_quiver(sub) -> None:
    p = sub.add_parser("quiver", help="emit a quiver as JSON or DOT")
    p.add_argument("id")
    p.add_argument("--framed", action="store_true", help="treat id as a framed example")
    p.add_argument("--dot", action="store_true")
    p.set_defaults(fn=cmd_quiver)


def _add_relations(sub) -> None:
    p = sub.add_parser("relations", help="print the relation set of an entry")
    p.add_argument("id", help="geometry or framed example id")
    p.add_argument("--framing", help="framing-structure JSON file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_relations)


def _add_monad(sub) -> None:
    p = sub.add_parser("monad", help="verify a monad template")
    p.add_argument("action", choices=["verify"])
    p.add_argument("id")
    p.add_argument("--numeric", help="JSON file with plane points for rank checks")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_monad)


def _add_count(sub) -> None:
    p = sub.add_parser("count", help="fixed-point enumerators")
    p.add_argument("family", choices=["partitions", "tuples", "nested", "plane", "pyramid", "blowup"])
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--rank", type=int, help="tuples and nested only (default 1)")
    p.add_argument("--colors", type=int, help="plane only")
    p.add_argument("--pit", type=_pit, help="M,N (plane only)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_count)


def _add_series(sub) -> None:
    p = sub.add_parser("series", help="closed-form series expansions")
    p.add_argument("formula", choices=["macmahon", "macmahon-power", "eta", "eta-inverse"])
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--power", type=int, help="macmahon-power only (default 1)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_series)


def _add_character(sub) -> None:
    p = sub.add_parser("character", help="vacuum character from a shift matrix")
    source = p.add_mutually_exclusive_group()
    source.add_argument(
        "--shift", type=_shift, help='subdiagonal entries, e.g. "0;1" (default: m + n - 1 zeros)'
    )
    source.add_argument("--divisor", type=_divisor, help='partitions, e.g. "mu=3,1 nu=2"')
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_character)


def _add_compare(sub) -> None:
    p = sub.add_parser("compare", help="run a named enumerator-vs-formula check")
    p.add_argument("target", choices=sorted(checks.COMPARE_TARGETS) + ["all"])
    p.add_argument("--order", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_compare)


# each subcommand's parser adder, in the order the top-level help lists them
SUBCOMMANDS = {
    "catalog": _add_catalog,
    "quiver": _add_quiver,
    "relations": _add_relations,
    "monad": _add_monad,
    "count": _add_count,
    "series": _add_series,
    "character": _add_character,
    "compare": _add_compare,
}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose ``expected one argument`` error says how to
    give a value that starts with ``-``: argparse reads such a word as an
    option unless it is a plain number, so a negative ``--pit`` or
    ``--shift`` entry must be joined to its option with ``=``.  The
    subcommands' parsers are of this class too."""

    def error(self, message):
        if message.endswith(": expected one argument"):
            option = message.split()[1].rstrip(":")
            message += f" (a value that starts with '-' is given as {option}=VALUE)"
        super().error(message)


@functools.cache
def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``quiverdt`` argument parser with every subcommand (``command``
    None) or with ``command`` alone, built on the first call with that
    argument and the same object on every later one (``parse_args``
    returns a fresh namespace each time, so nothing carries over between
    parses).  The cache is keyed on the call's arguments as written:
    ``build_parser()`` and ``build_parser(None)`` are two entries.

    Two things are read when a subcommand's parser is first built: its
    handler, bound by ``set_defaults(fn=cmd_*)``, and, for ``compare``,
    the target choices, taken from ``checks.COMPARE_TARGETS``.  A test that
    patches a ``cmd_*`` handler or adds a ``COMPARE_TARGETS`` key must call
    ``build_parser.cache_clear()`` before and after.
    """
    parser = _Parser(
        prog="quiverdt",
        description="Quivers with potential, fixed-point counts, and vacuum characters",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SUBCOMMANDS if command is None else (command,):
        SUBCOMMANDS[name](sub)
    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """Print a warning as one ``warning: ...`` line on stderr, without the
    source path and line of the package code that raised it."""
    print(f"warning: {message}", file=sys.stderr)


def run(argv=None) -> int:
    """Run one ``quiverdt`` command line (``sys.argv[1:]`` when ``argv`` is
    None) and return its exit code.

    When the first word names a subcommand, only that subcommand's parser
    is built (:func:`build_parser` with its name), by the first such call
    in the process, and reused by every later one.  Anything that parser
    leaves over, and any other command line (empty, ``-h``, an unknown
    word), goes to the full parser, so help and every top-level error
    print the usage line that lists all the subcommands.  A subcommand's
    handler and, for ``compare``, the ``checks.COMPARE_TARGETS`` choices
    are read when that subcommand's parser is first built.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        if argv and argv[0] in SUBCOMMANDS:
            args, extra = build_parser(argv[0]).parse_known_args(argv)
            if extra:
                args = build_parser().parse_args(argv)
        else:
            args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader went away: say nothing.  Point the descriptor at devnull
        # so the interpreter's final flush of what is still buffered is
        # silent too.
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError, ValueError):
            return 141  # no descriptor, so nothing is flushed at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
        return 141
    except catalog.NotInCatalog as exc:
        print(f"not in catalog: {exc}", file=sys.stderr)
        return 2
    except Warning as exc:  # a warning the interpreter was told to raise
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
