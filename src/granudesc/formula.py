"""Logical descriptions of granules and their evaluation.

A description is a conjunction of atoms, a disjunction of atoms, or a
conjunction with one parenthesized disjunct.  Atoms name attributes; a
negated atom is only meaningful against a three-way compound, where it
evaluates through the complement block.  Descriptions carry enough
information to be rendered on their own and are re-checked against the
context they are evaluated on.

A context builds its atoms once, one row per block and polarity.  The
builders (``conj_of``, ``disj_of``, ``three_way_conj``, ``conj_disj``)
check their indices and take the atoms from those rows in order, so
their output is trusted and skips the constructors' validation; a
description built by hand or parsed is validated.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from collections.abc import Iterable, Sequence

from granudesc._bits import set_of
from granudesc.context import CompoundContext, Flavor, FormalContext, ObjectSet
from granudesc.derivation import _require_flavor
from granudesc.errors import GranuleDescError


class Block(Enum):
    A = "a"
    B = "b"


@dataclass(frozen=True)
class Atom:
    block: Block
    index: int
    name: str
    negated: bool = False


@dataclass(frozen=True)
class Conj:
    """All atoms must hold."""

    atoms: tuple[Atom, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "atoms", _canonical_atoms(self.atoms))


@dataclass(frozen=True)
class Disj:
    """At least one atom must hold; negation is not allowed here."""

    atoms: tuple[Atom, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "atoms", _canonical_atoms(self.atoms))
        if any(a.negated for a in self.atoms):
            raise GranuleDescError("disjunctions take positive atoms only")


@dataclass(frozen=True)
class ConjDisj:
    """Conjunction of a-block atoms, and-ed with one b-block disjunct."""

    conj_atoms: tuple[Atom, ...]
    disj_atoms: tuple[Atom, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "conj_atoms", _canonical_atoms(self.conj_atoms))
        object.__setattr__(self, "disj_atoms", _canonical_atoms(self.disj_atoms))
        if any(a.negated for a in self.conj_atoms + self.disj_atoms):
            raise GranuleDescError("two-part descriptions take positive atoms only")
        if any(a.block is not Block.A for a in self.conj_atoms):
            raise GranuleDescError("the conjunctive part must use a-block atoms")
        if any(a.block is not Block.B for a in self.disj_atoms):
            raise GranuleDescError("the disjunctive part must use b-block atoms")


Description = Conj | Disj | ConjDisj


def _canonical_atoms(atoms: Sequence[Atom]) -> tuple[Atom, ...]:
    """Validate and sort atoms so equal descriptions compare equal."""
    if not atoms:
        raise GranuleDescError("a description needs at least one atom")
    seen = set()
    for a in atoms:
        key = (a.block, a.index, a.negated)
        if key in seen:
            raise GranuleDescError(f"duplicate atom {a.name!r}")
        seen.add(key)
    return tuple(sorted(atoms, key=lambda a: (a.negated, a.block.value, a.index)))


# ---------------------------------------------------------------------------
# construction helpers
# ---------------------------------------------------------------------------


def _names(ctx: FormalContext | CompoundContext, block: Block) -> tuple[str, ...]:
    if isinstance(ctx, FormalContext):
        return ctx.attributes
    return ctx.a_attributes if block is Block.A else ctx.b_attributes


def _row(
    ctx: FormalContext | CompoundContext, block: Block = Block.A, negated: bool = False
) -> tuple[Atom, ...]:
    """The context's atoms of one block and polarity, by attribute index,
    built on first use and kept in the instance dict as the cached masks
    are, where equality, hashing and repr of the context do not see them."""
    key = ("_atoms_not_" if negated else "_atoms_") + block._value_
    row = ctx.__dict__.get(key)
    if row is None:
        row = tuple(
            Atom(block, j, name, negated) for j, name in enumerate(_names(ctx, block))
        )
        ctx.__dict__[key] = row
    return row


def _pick(
    row: tuple[Atom, ...], attrs: Iterable[int], what: str = "attribute"
) -> tuple[Atom, ...]:
    """The atoms of the given indices, in index order."""
    idx = sorted(set(attrs))
    if idx and not (0 <= idx[0] and idx[-1] < len(row)):
        j = next(j for j in idx if not 0 <= j < len(row))
        raise ValueError(f"{what} index {j} out of range")
    return tuple(map(row.__getitem__, idx))


def _trusted(cls: type, *parts: tuple[Atom, ...]) -> Description:
    """A description of atom tuples taken in order from the context's rows;
    they are sorted and distinct already, so ``__post_init__`` is skipped."""
    if not all(parts):
        raise GranuleDescError("a description needs at least one atom")
    d = object.__new__(cls)
    for field, atoms in zip(cls.__dataclass_fields__, parts):
        object.__setattr__(d, field, atoms)
    return d


def conj_of(ctx: FormalContext, attrs: Iterable[int]) -> Conj:
    _require_flavor(ctx, None, "conj_of")
    return _trusted(Conj, _pick(_row(ctx), attrs))


def disj_of(ctx: FormalContext, attrs: Iterable[int]) -> Disj:
    _require_flavor(ctx, None, "disj_of")
    return _trusted(Disj, _pick(_row(ctx), attrs))


def three_way_conj(cctx: CompoundContext, flat_attrs: Iterable[int]) -> Conj:
    """Conjunction over flattened indices; the b-block half becomes negated
    atoms, which keep the base name and index of their a-attribute."""
    _require_flavor(cctx, Flavor.THREE_WAY, "three_way_conj")
    row = _row(cctx) + _row(cctx, negated=True)
    return _trusted(Conj, _pick(row, flat_attrs, "flattened attribute"))


def conj_disj(
    cctx: CompoundContext, a_attrs: Iterable[int], b_attrs: Iterable[int]
) -> ConjDisj:
    _require_flavor(cctx, Flavor.COMMON_NECESSARY, "conj_disj")
    return _trusted(
        ConjDisj, _pick(_row(cctx), a_attrs), _pick(_row(cctx, Block.B), b_attrs)
    )


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def _atom_column(ctx: FormalContext | CompoundContext, atom: Atom) -> int:
    """Object mask of the atom, checking that it resolves in this context."""
    if isinstance(ctx, FormalContext):
        if atom.negated:
            raise GranuleDescError(
                f"negated atom {atom.name!r} needs a three-way compound"
            )
        if atom.block is not Block.A:
            raise GranuleDescError(f"atom {atom.name!r} names a missing block")
        names, cols = ctx.attributes, ctx.column_masks
    elif atom.block is Block.A:
        if atom.negated:
            if ctx.flavor is not Flavor.THREE_WAY:
                raise GranuleDescError(
                    f"negated atom {atom.name!r} needs a three-way compound"
                )
            # negated atoms keep the base attribute name; the column is the
            # paired complement column at the same index
            names, cols = ctx.a_attributes, ctx.b_block.column_masks
        else:
            names, cols = ctx.a_attributes, ctx.a_block.column_masks
    else:
        names, cols = ctx.b_attributes, ctx.b_block.column_masks
    if not 0 <= atom.index < len(names) or names[atom.index] != atom.name:
        raise GranuleDescError(f"atom {atom.name!r} does not resolve in this context")
    return cols[atom.index]


def _satisfying(ctx: FormalContext | CompoundContext, d: Description) -> int:
    """Mask of the objects satisfying the description."""
    full = (1 << ctx.n_objects) - 1
    if isinstance(d, Conj):
        m = full
        for a in d.atoms:
            m &= _atom_column(ctx, a)
        return m
    if isinstance(d, Disj):
        m = 0
        for a in d.atoms:
            m |= _atom_column(ctx, a)
        return m
    if isinstance(d, ConjDisj):
        _require_flavor(ctx, Flavor.COMMON_NECESSARY, "a two-part description")
        m = full
        for a in d.conj_atoms:
            m &= _atom_column(ctx, a)
        dm = 0
        for a in d.disj_atoms:
            dm |= _atom_column(ctx, a)
        return m & dm
    raise TypeError(f"not a description: {d!r}")


def evaluate(ctx: FormalContext | CompoundContext, d: Description) -> ObjectSet:
    """Objects satisfying the description."""
    return set_of(_satisfying(ctx, d))


# ---------------------------------------------------------------------------
# rendering and parsing
# ---------------------------------------------------------------------------

_UNICODE_OPS = {"and": " ∧ ", "or": " ∨ ", "not": "¬"}
_ASCII_OPS = {"and": " & ", "or": " | ", "not": "!"}


def render(d: Description, ascii_ops: bool = False) -> str:
    """Deterministic text form, atoms in their canonical order; unicode
    connectives unless asked otherwise."""
    ops = _ASCII_OPS if ascii_ops else _UNICODE_OPS

    def atom_text(a: Atom) -> str:
        return (ops["not"] + a.name) if a.negated else a.name

    if isinstance(d, Conj):
        return ops["and"].join(atom_text(a) for a in d.atoms)
    if isinstance(d, Disj):
        return ops["or"].join(atom_text(a) for a in d.atoms)
    if isinstance(d, ConjDisj):
        conj = ops["and"].join(atom_text(a) for a in d.conj_atoms)
        disj = ops["or"].join(atom_text(a) for a in d.disj_atoms)
        return f"{conj}{ops['and']}({disj})"
    raise TypeError(f"not a description: {d!r}")


# every non-space character starts some token, so scanning with findall
# loses nothing but whitespace
_TOKEN = re.compile(r"\s*(\(|\)|∧|∨|¬|&|\||!|[^\s()&|!∧∨¬]+)")


def _resolve(ctx: FormalContext | CompoundContext, name: str, negated: bool) -> Atom:
    plain = isinstance(ctx, FormalContext)
    if negated and (plain or ctx.flavor is not Flavor.THREE_WAY):
        raise GranuleDescError("negation needs a three-way compound")
    for block in (Block.A,) if plain else (Block.A, Block.B):
        try:
            j = _names(ctx, block).index(name)
        except ValueError:
            continue
        if negated and block is Block.B:
            raise GranuleDescError(f"cannot negate complement attribute {name!r}")
        return _row(ctx, block, negated)[j]
    raise GranuleDescError(f"unknown attribute {name!r}")


def _negation(tokens: list[str], i: int) -> tuple[int, bool]:
    """Skip an optional negation sign at tokens[i]: the next index, and
    whether there was one.  A run of signs is refused rather than read as
    one negation; ``render`` never writes one."""
    if tokens[i] not in ("¬", "!"):
        return i, False
    i += 1
    if i >= len(tokens):
        raise GranuleDescError("dangling negation")
    if tokens[i] in ("¬", "!"):
        raise GranuleDescError(
            f"repeated negation {tokens[i - 1] + tokens[i]!r}: "
            "an atom takes at most one negation sign"
        )
    return i, True


def parse_description(text: str, ctx: FormalContext | CompoundContext) -> Description:
    """Parse one connective level: atoms joined by all-and or all-or, with
    an optional single parenthesized disjunct inside a conjunction."""
    tokens = _TOKEN.findall(text)
    if not tokens:
        raise GranuleDescError("empty description")

    # items: ("atom", Atom) or ("group", [Atom, ...]); ops: "and"/"or"
    items: list[tuple[str, object]] = []
    ops: list[str] = []
    expecting_term = True
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if expecting_term:
            i, negated = _negation(tokens, i)
            tok = tokens[i]
            if tok == "(":
                depth_names: list[tuple[str, bool]] = []
                if negated:
                    raise GranuleDescError("cannot negate a group")
                i += 1
                expect_name = True
                while i < len(tokens) and tokens[i] != ")":
                    inner = tokens[i]
                    if expect_name:
                        i, neg = _negation(tokens, i)
                        inner = tokens[i]
                        if inner in ("(", ")", "∧", "∨", "&", "|"):
                            raise GranuleDescError(f"expected a name, got {inner!r}")
                        depth_names.append((inner, neg))
                    else:
                        if inner not in ("∨", "|"):
                            raise GranuleDescError(
                                "a parenthesized group must be a disjunction"
                            )
                    expect_name = not expect_name
                    i += 1
                if i >= len(tokens):
                    raise GranuleDescError("unclosed parenthesis")
                if expect_name or not depth_names:
                    raise GranuleDescError("malformed parenthesized group")
                items.append(("group", depth_names))
            elif tok in (")", "∧", "∨", "&", "|"):
                raise GranuleDescError(f"expected a name, got {tok!r}")
            else:
                items.append(("atom", (tok, negated)))
            expecting_term = False
        else:
            if tok in ("∧", "&"):
                ops.append("and")
            elif tok in ("∨", "|"):
                ops.append("or")
            else:
                raise GranuleDescError(f"expected a connective, got {tok!r}")
            expecting_term = True
        i += 1
    if expecting_term:
        raise GranuleDescError("description ends with a connective")
    if ops and len(set(ops)) > 1:
        raise GranuleDescError("mixing ∧ and ∨ needs parentheses")

    groups = [it for it in items if it[0] == "group"]
    plain = [it[1] for it in items if it[0] == "atom"]
    if groups:
        if len(groups) > 1:
            raise GranuleDescError("at most one parenthesized group is allowed")
        if not plain or (ops and ops[0] != "and"):
            raise GranuleDescError("a parenthesized disjunct must sit in a conjunction")
        conj_atoms = tuple(_resolve(ctx, n, neg) for n, neg in plain)
        disj_atoms = tuple(_resolve(ctx, n, neg) for n, neg in groups[0][1])
        if not isinstance(ctx, CompoundContext) or ctx.flavor is not Flavor.COMMON_NECESSARY:
            raise GranuleDescError(
                "a conjunction with a disjunct needs a common_necessary compound"
            )
        return ConjDisj(conj_atoms, disj_atoms)
    atoms = tuple(_resolve(ctx, n, neg) for n, neg in plain)
    if ops and ops[0] == "or":
        return Disj(atoms)
    return Conj(atoms)
