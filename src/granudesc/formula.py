"""Logical descriptions of granules and their evaluation.

A description is a conjunction of atoms, a disjunction of atoms, or a
conjunction with one parenthesized disjunct.  Atoms name attributes; a
negated atom is only meaningful against a three-way compound, where it
evaluates through the complement block.  Descriptions carry enough
information to be rendered on their own and are re-checked against the
context they are evaluated on.

Each context keeps one table of the atom kinds it admits, and building,
reading and evaluating all resolve atoms through it.  The builders
(``conj_of``, ``disj_of``, ``three_way_conj``, ``conj_disj``) check their
indices and take their atoms from it in order, so their output is trusted
and skips the constructors' validation; a description built by hand or
parsed is validated.  ``parse_description`` reads the text in one pass; a
name is a run of non-operator characters, inner whitespace kept."""

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


def _kinds(ctx: FormalContext | CompoundContext) -> dict[tuple[str, bool], tuple]:
    """The atom kinds the context admits, keyed by (block value, negated),
    each with its names, object columns and atoms by attribute index:
    positive a on a plain table, positive a and b on a compound, and on a
    three-way compound also negated a, which keeps the a-names and reads
    the paired b column.  Built on first use and kept in the instance dict
    as the cached masks are, where equality, hashing and repr of the
    context do not see it."""
    kinds = ctx.__dict__.get("_atom_kinds")
    if kinds is None:
        if isinstance(ctx, FormalContext):
            spec = [("a", False, ctx, ctx)]
        else:
            a, b = ctx.a_block, ctx.b_block
            spec = [("a", False, a, a), ("b", False, b, b)]
            if ctx.flavor is Flavor.THREE_WAY:
                spec.append(("a", True, a, b))
        kinds = {
            (v, neg): (
                names.attributes,
                cols.column_masks,
                tuple(Atom(Block(v), j, n, neg) for j, n in enumerate(names.attributes)),
            )
            for v, neg, names, cols in spec
        }
        ctx.__dict__["_atom_kinds"] = kinds
    return kinds


def _row(
    ctx: FormalContext | CompoundContext, block: str = "a", negated: bool = False
) -> tuple[Atom, ...]:
    """The context's atoms of one block and polarity, by attribute index."""
    return _kinds(ctx)[block, negated][2]


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
        ConjDisj, _pick(_row(cctx), a_attrs), _pick(_row(cctx, "b"), b_attrs)
    )


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def _atom_column(ctx: FormalContext | CompoundContext, atom: Atom) -> int:
    """Object mask of the atom, checking that its kind, index and name
    resolve in this context."""
    kind = _kinds(ctx).get((atom.block._value_, atom.negated))
    if kind is None or not 0 <= atom.index < len(kind[0]) or kind[0][atom.index] != atom.name:
        raise GranuleDescError(f"atom {atom.name!r} does not resolve in this context")
    return kind[1][atom.index]


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


_SYMBOLS = "()&|!∧∨¬"
_NOT = ("¬", "!")
_AND = ("∧", "&")
_OR = ("∨", "|")
# every non-space character starts some token, so scanning with findall
# loses nothing but whitespace; a name is a run of non-operator
# characters, its inner whitespace kept
_TOKEN = re.compile(rf"\s*([{_SYMBOLS}]|[^\s{_SYMBOLS}](?:[^{_SYMBOLS}]*[^\s{_SYMBOLS}])?)")


def _resolve(ctx: FormalContext | CompoundContext, name: str, negated: bool) -> Atom:
    kinds = _kinds(ctx)
    if negated and ("a", True) not in kinds:
        raise GranuleDescError("negation needs a three-way compound")
    for (block, neg), (names, _, _) in kinds.items():
        if not neg and name in names:
            kind = kinds.get((block, negated))
            if kind is None:
                raise GranuleDescError(f"cannot negate complement attribute {name!r}")
            return kind[2][names.index(name)]
    raise GranuleDescError(f"unknown attribute {name!r}")


def _name(tokens: list[str], i: int) -> tuple[int, tuple[str, bool]]:
    """Read an optionally negated name at tokens[i]: the index of the name
    and the name with whether it was negated.  A run of signs is refused
    rather than read as one negation; ``render`` never writes one."""
    negated = tokens[i] in _NOT
    if negated:
        i += 1
        if i == len(tokens):
            raise GranuleDescError("dangling negation")
        if tokens[i] in _NOT:
            raise GranuleDescError(
                f"repeated negation {tokens[i - 1] + tokens[i]!r}: "
                "an atom takes at most one negation sign"
            )
    if tokens[i] in _SYMBOLS:
        raise GranuleDescError(f"expected a name, got {tokens[i]!r}")
    return i, (tokens[i], negated)


def parse_description(text: str, ctx: FormalContext | CompoundContext) -> Description:
    """Read one connective level in one left-to-right pass: atoms joined by
    all-and or all-or, with an optional single parenthesized disjunct
    inside a conjunction.  Names resolve once the whole text has been
    read, so a syntax error is reported before an unknown name."""
    tokens = _TOKEN.findall(text)
    if not tokens:
        raise GranuleDescError("empty description")
    plain: list[tuple[str, bool]] = []
    groups: list[list[tuple[str, bool]]] = []
    group = None  # the open parenthesized group, while inside one
    ops = set()  # the top-level connectives, as "and"/"or"
    term = True  # whether a name or a group comes next
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if term and group is None and tok == "(":
            group = []
            groups.append(group)
        elif term and group is None and tok in _NOT and tokens[i + 1 : i + 2] == ["("]:
            raise GranuleDescError("cannot negate a group")
        elif term and group is not None and tok == ")":
            raise GranuleDescError("malformed parenthesized group")
        elif term:
            i, atom = _name(tokens, i)
            (plain if group is None else group).append(atom)
            term = False
        elif group is not None and tok == ")":
            group = None
        elif group is not None:
            if tok not in _OR:
                raise GranuleDescError("a parenthesized group must be a disjunction")
            term = True
        elif tok in _AND or tok in _OR:
            ops.add("and" if tok in _AND else "or")
            term = True
        else:
            raise GranuleDescError(f"expected a connective, got {tok!r}")
        i += 1
    if group is not None:
        raise GranuleDescError("unclosed parenthesis")
    if term:
        raise GranuleDescError("description ends with a connective")
    if len(ops) > 1:
        raise GranuleDescError("mixing ∧ and ∨ needs parentheses")

    if len(groups) > 1:
        raise GranuleDescError("at most one parenthesized group is allowed")
    if groups and (not plain or "or" in ops):
        raise GranuleDescError("a parenthesized disjunct must sit in a conjunction")
    atoms = tuple(_resolve(ctx, *n) for n in plain)
    if not groups:
        return Disj(atoms) if "or" in ops else Conj(atoms)
    disj_atoms = tuple(_resolve(ctx, *n) for n in groups[0])
    if not isinstance(ctx, CompoundContext) or ctx.flavor is not Flavor.COMMON_NECESSARY:
        raise GranuleDescError("a conjunction with a disjunct needs a common_necessary compound")
    return ConjDisj(atoms, disj_atoms)
