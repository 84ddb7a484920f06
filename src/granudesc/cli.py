"""Command-line interface.

Subcommands: ``concepts`` (enumerate a concept family), ``define``
(definability verdict for a granule), ``approx`` (tightest definable
bounds), ``convert`` (complement / negation apposition), ``validate``
(parse and check a context file).

Exit codes: 0 success or definable, 1 indefinable, 2 input or usage
errors, 3 size-guard refusal, 4 inapplicable.

Each subcommand imports the modules it runs, so a call loads only those:
``validate`` and ``convert`` need nothing beyond parsing.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence
from typing import TYPE_CHECKING

from granudesc.context import (
    CompoundContext,
    Flavor,
    FormalContext,
    _parse_any,
    appose_negation,
    complement_context,
    make_cn_context,
    serialize_compound,
    serialize_context,
)
from granudesc.errors import (
    ContextFormatError,
    GranuleDescError,
    Inapplicable,
    SizeGuardExceeded,
)

if TYPE_CHECKING:  # names of annotations only; each handler imports what it runs
    from granudesc.definability import Mode
    from granudesc.formula import Description

EXIT_OK = 0
EXIT_INDEFINABLE = 1
EXIT_INPUT = 2
EXIT_GUARD = 3
EXIT_INAPPLICABLE = 4


class _CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_INPUT):
        super().__init__(message)
        self.code = code


def _input_name(path: str) -> str:
    return "stdin" if path == "-" else path


def _read_text(path: str) -> str:
    """The input's bytes as UTF-8 text; the parsers drop a leading byte
    order mark.

    Decoding the bytes whole, BOM included, keeps the offset of a bad
    byte an offset into the input.
    """
    name = _input_name(path)
    try:
        if path == "-":
            data = sys.stdin.buffer.read()
        else:
            with open(path, "rb") as fh:
                data = fh.read()
    except OSError as exc:
        raise _CliError(f"cannot read {name}: {exc.strerror or exc}") from None
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _CliError(
            f"cannot read {name}: not UTF-8 at byte {exc.start} ({exc.reason})"
        ) from None


def _load_any(path: str) -> FormalContext | CompoundContext:
    """The context in the input; a parse error names the input, as a
    command may read two."""
    text = _read_text(path)
    try:
        return _parse_any(text)
    except ContextFormatError as exc:
        raise _CliError(f"{_input_name(path)}: {exc}") from None


def _as_formal(loaded: object, what: str) -> FormalContext:
    if isinstance(loaded, FormalContext):
        return loaded
    raise _CliError(f"{what} needs a plain formal context")


def _context_for(
    loaded: FormalContext | CompoundContext,
    flavor: Flavor | None,
    compound_path: str | None,
    what: str,
) -> FormalContext | CompoundContext:
    """The context of the kind a mode or variant reads (plain when
    ``flavor`` is None), built from the input and --compound."""
    if flavor is None:
        if compound_path:
            raise _CliError(f"{what} takes no --compound")
        return _as_formal(loaded, what)
    if isinstance(loaded, CompoundContext):
        if loaded.flavor is not flavor:
            raise _CliError(
                f"expected a {flavor.value} compound, got {loaded.flavor.value}"
            )
        if compound_path:
            raise _CliError("--compound conflicts with a compound input file")
        return loaded
    if flavor is Flavor.THREE_WAY:
        if compound_path:
            raise _CliError("three-way mode derives its compound; drop --compound")
        return appose_negation(loaded)
    if not compound_path:
        raise _CliError(
            "this mode needs a second attribute block: pass a compound JSON "
            "input or --compound PATH"
        )
    second = _load_any(compound_path)
    return make_cn_context(loaded, _as_formal(second, "--compound"))


def _parse_granule(spec: str, objects: tuple[str, ...]) -> frozenset[int]:
    chosen = set()
    for token in (t.strip() for t in spec.split(",")):
        if not token:
            continue
        # an index is ASCII digits: int() also reads '٣' and fails on '²'
        as_index = int(token) - 1 if token.isascii() and token.isdigit() else -1
        if token in objects:
            idx = objects.index(token)
            if 0 <= as_index < len(objects) and as_index != idx:
                print(
                    f"warning: {token!r} matches both an object name and a "
                    "1-based index; using the name",
                    file=sys.stderr,
                )
            chosen.add(idx)
        elif 0 <= as_index < len(objects):
            chosen.add(as_index)
        else:
            raise _CliError(f"unknown object {token!r}")
    return frozenset(chosen)


def _pick_format(requested: str | None) -> str:
    """The ``--format`` argparse accepted, else text on a tty and JSON in a pipe."""
    return requested or ("text" if sys.stdout.isatty() else "json")


def _names(objects: tuple[str, ...], granule: frozenset[int]) -> str:
    if not granule:
        return "∅"
    return "{" + ",".join(objects[i] for i in sorted(granule)) + "}"


def _one_based(granule: frozenset[int]) -> list[int]:
    return [i + 1 for i in sorted(granule)]


def _description_json(d: Description | None) -> dict | None:
    from granudesc.formula import _parts

    if d is None:
        return None
    conj, disj = _parts(d)
    # atoms are stored in canonical order: plain before negated, by index
    return {
        "conj": [a.name for a in conj if not a.negated],
        "disj": [a.name for a in disj],
        "negated": [a.name for a in conj if a.negated],
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_concepts(args: argparse.Namespace) -> int:
    from granudesc import lattice
    from granudesc.definability import _RULES

    loaded = _load_any(args.input)
    variant = args.variant.replace("-", "_")
    fmt = _pick_format(args.format)
    rule = next((r for r in _RULES.values() if r.family == variant), None)
    if rule is None:
        raise _CliError(f"unknown variant {args.variant!r}")
    what = f"variant {variant.replace('_', '-')}"
    ctx = _context_for(loaded, rule.flavor, args.compound, what)
    family = getattr(lattice, f"enumerate_{variant}")(ctx, args.force)
    if isinstance(family, lattice.ConceptLattice):
        concepts = family.concepts
    else:
        concepts, family = tuple(family), None
    if fmt == "dot":
        if family is None:
            raise _CliError("the cn family carries no lattice; use text or json")
        sys.stdout.write(lattice.lattice_to_dot(family, args.ascii))
    elif fmt == "json":
        payload = [lattice.concept_json_obj(c) for c in concepts]
        sys.stdout.write(json.dumps(payload, ensure_ascii=False) + "\n")
    else:
        sys.stdout.write(lattice.concepts_to_text(concepts, args.ascii))
    return EXIT_OK


def _mode_context(
    args: argparse.Namespace,
) -> tuple[Mode, FormalContext | CompoundContext]:
    """The mode named by --mode and the context it reads."""
    from granudesc.definability import _RULES, Mode

    loaded = _load_any(args.input)
    try:
        mode = Mode(args.mode.replace("-", "_"))
    except ValueError:
        names = ", ".join(m.value.replace("_", "-") for m in Mode)
        raise _CliError(f"mode must be one of {names}; got {args.mode!r}") from None
    flavor = _RULES[mode].flavor
    return mode, _context_for(loaded, flavor, args.compound, f"mode {mode.value}")


def _cmd_define(args: argparse.Namespace) -> int:
    from granudesc import definability as defin
    from granudesc.formula import render

    mode, ctx = _mode_context(args)
    granule = _parse_granule(args.granule, ctx.objects)
    fmt = _pick_format(args.format)
    try:
        verdict = getattr(defin, f"is_{mode.value}_definable")(ctx, granule)
    except ValueError as exc:
        raise _CliError(str(exc)) from None
    payload = {
        "status": verdict.status.value,
        "description": _description_json(verdict.description),
        "reason": verdict.reason.value if verdict.reason else None,
        "witness": _one_based(verdict.witness) if verdict.witness is not None else None,
    }
    if verdict.status is defin.Status.DEFINABLE:
        lines = [f"definable: {render(verdict.description, args.ascii)}"]
    elif verdict.status is defin.Status.INDEFINABLE:
        lines = [f"indefinable (closure {_names(ctx.objects, verdict.witness)})"]
    else:
        lines = [f"inapplicable: {verdict.reason.value}"]
    if args.minimal and verdict.status is defin.Status.DEFINABLE:
        minimal = defin.minimal_descriptions(ctx, granule, mode.value)
        payload["minimal"] = [render(d, args.ascii) for d in minimal]
        lines.extend(f"minimal: {render(d, args.ascii)}" for d in minimal)
    if fmt == "json":
        sys.stdout.write(json.dumps(payload, ensure_ascii=False) + "\n")
    else:
        sys.stdout.write("\n".join(lines) + "\n")
    exit_code = {
        defin.Status.DEFINABLE: EXIT_OK,
        defin.Status.INDEFINABLE: EXIT_INDEFINABLE,
        defin.Status.INAPPLICABLE: EXIT_INAPPLICABLE,
    }
    return exit_code[verdict.status]


def _cmd_approx(args: argparse.Namespace) -> int:
    from granudesc import approximation as approx_ops
    from granudesc.formula import render

    mode, ctx = _mode_context(args)
    granule = _parse_granule(args.granule, ctx.objects)
    fmt = _pick_format(args.format)
    op = getattr(approx_ops, f"{args.direction}_{mode.value}", None)
    if op is None:
        raise _CliError(
            f"no {args.direction} approximation is defined for mode {args.mode}"
        )
    try:
        result = op(ctx, granule)
    except ValueError as exc:
        raise _CliError(str(exc)) from None
    payload = {
        "direction": result.direction.value,
        "mode": result.mode.value,
        "exact": result.exact,
        "results": [
            {
                "granule": _one_based(g),
                "description": render(d, args.ascii) if d is not None else None,
            }
            for g, d in result.granules
        ],
    }
    if fmt == "json":
        sys.stdout.write(json.dumps(payload, ensure_ascii=False) + "\n")
    else:
        lines = [f"exact: {'true' if result.exact else 'false'}"]
        for g, d in result.granules:
            text = render(d, args.ascii) if d is not None else "(no description)"
            lines.append(f"{_names(ctx.objects, g)}: {text}")
        if not result.granules:
            lines.append("(no granules)")
        sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_convert(args: argparse.Namespace) -> int:
    loaded = _load_any(args.input)
    ctx = _as_formal(loaded, f"convert --op {args.op}")
    fmt = args.format or "cxt"
    if args.op == "complement":
        out_ctx = complement_context(ctx, args.prefix)
        text = serialize_context(out_ctx, fmt)
    else:  # "appose", the only other choice argparse admits
        cctx = appose_negation(ctx, args.prefix)
        if fmt == "cxt":
            text = serialize_context(cctx.flattened, "cxt")
        else:
            text = serialize_compound(cctx)
    if args.output and args.output != "-":
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise _CliError(f"cannot write {args.output}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    loaded = _load_any(args.input)
    if isinstance(loaded, CompoundContext):
        table = loaded.flattened
        shape = (
            f"{loaded.flavor.value} compound, {len(loaded.objects)} objects, "
            f"{len(loaded.a_attributes)}+{len(loaded.b_attributes)} attributes"
        )
    else:
        table = loaded
        shape = f"{loaded.n_objects} objects, {loaded.n_attributes} attributes"
    cells = sum(m.bit_count() for m in table.row_masks)
    sys.stdout.write(f"ok: {shape}, {cells} incidences\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="granudesc",
        description="Definability and descriptions of object sets in binary tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, formats: tuple[str, ...]) -> None:
        p.add_argument("input", help="context file (cxt or JSON); '-' for stdin")
        p.add_argument("--format", choices=formats, default=None)
        p.add_argument("--ascii", action="store_true", help="ASCII connectives")

    p = sub.add_parser("concepts", help="enumerate a concept family")
    common(p, ("text", "json", "dot"))
    p.add_argument(
        "--variant",
        default="formal",
        help="formal, object-oriented, three-way or cn",
    )
    p.add_argument("--compound", help="second attribute block for the cn variant")
    p.add_argument("--force", action="store_true", help="override the size guard")
    p.set_defaults(func=_cmd_concepts)

    p = sub.add_parser("define", help="definability verdict for a granule")
    common(p, ("text", "json"))
    p.add_argument("--granule", required=True, help="comma list of names or 1-based indices")
    p.add_argument("--mode", required=True, help="wedge, three-way, vee or cn")
    p.add_argument("--compound", help="second attribute block for cn mode")
    p.add_argument("--minimal", action="store_true", help="also list minimal descriptions")
    p.set_defaults(func=_cmd_define)

    p = sub.add_parser("approx", help="tightest definable bounds for a granule")
    common(p, ("text", "json"))
    p.add_argument("--granule", required=True, help="comma list of names or 1-based indices")
    p.add_argument("--mode", required=True, help="wedge, three-way, vee or cn")
    p.add_argument("--direction", required=True, choices=("upper", "lower"))
    p.add_argument("--compound", help="second attribute block for cn mode")
    p.set_defaults(func=_cmd_approx)

    p = sub.add_parser("convert", help="derive the complement or apposed table")
    p.add_argument("input", help="context file (cxt or JSON); '-' for stdin")
    p.add_argument("--op", required=True, choices=("complement", "appose"))
    p.add_argument("--format", choices=("cxt", "json"), default=None)
    p.add_argument("--output", help="output path; stdout when omitted")
    p.add_argument("--prefix", default="not_", help="name prefix for complemented attributes")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("validate", help="parse a context file and report its shape")
    p.add_argument("input", help="context file (cxt or JSON); '-' for stdin")
    p.set_defaults(func=_cmd_validate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.input == "-" == getattr(args, "compound", None):
            raise _CliError("--compound - conflicts with input -: stdin is read once")
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except SizeGuardExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except Inapplicable as exc:
        reason = getattr(exc.reason, "value", exc.reason)
        print(f"inapplicable: {exc.message} ({reason})", file=sys.stderr)
        return EXIT_INAPPLICABLE
    except GranuleDescError as exc:  # context-kind mismatches, blocks that disagree
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def console() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console()
