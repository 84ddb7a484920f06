"""Binary object-attribute tables and their file formats.

A formal context is a finite set of objects, a finite set of attributes
and an incidence relation between them.  A compound context carries two
attribute blocks over the same objects; the ``THREE_WAY`` flavor pairs
each attribute with its complement, the ``COMMON_NECESSARY`` flavor keeps
two independent blocks (the first read conjunctively, the second
disjunctively).

Two serializations are supported: a fixed-layout ``cxt`` text format and
a JSON shape.  Parsing reports the offending line/column.
"""

from __future__ import annotations

import json
from enum import Enum
from collections.abc import Sequence
from itertools import chain, compress
from operator import add, eq, not_

from granudesc._bits import flags_mask
from granudesc.errors import ContextFormatError

ObjectSet = frozenset[int]
AttributeSet = frozenset[int]


class _once:
    """A method turned into an attribute computed on first use.

    The value goes into the instance ``__dict__``, which shadows this
    non-data descriptor from then on.  Equality, hash and repr ignore it,
    unless it stands for a field, as a listed concept's ``extent`` and
    ``intent`` do; such a record reads its fields by attribute.  Unlike
    the standard library's cached property on Python 3.10 and 3.11, it
    takes no lock on a first read, which every new context and concept
    makes for its masks or its sorted parts.  Two threads reading first
    may both compute a value; each reads it whole.
    """

    def __init__(self, fn):
        self.fn = fn
        self.name = fn.__name__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


class _Record:
    """Base of the package's immutable records.

    A subclass lists its fields as class annotations, in order.  Unless it
    writes its own ``__init__`` to check or normalise its arguments, it
    gets one here: a parameter per field, in order, each stored into the
    instance dict, with the field's class-body value as its default (a
    ``_once`` is no default); a subclass that adds no field keeps its
    parent's.  As on a frozen dataclass, equality needs
    the same class and compares the fields as a tuple, the hash is that
    tuple's, the repr reads ``Name(field=value)`` and assigning or
    deleting an attribute raises ``AttributeError``; the methods are
    written once here, where the ``dataclasses`` import and the code it
    generates for each class cost every process several milliseconds.
    Pickling and copying carry the fields alone, so a clone rebuilds its
    cached masks, atom maps and sorted parts on first use instead of
    sharing them.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        own = tuple(cls.__dict__.get("__annotations__", ()))
        cls._fields += own
        cls.__match_args__ = cls._fields
        if own and "__init__" not in cls.__dict__:
            cls.__init__ = _storing_init(cls)

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __getstate__(self) -> dict[str, object]:
        return dict(zip(self._fields, self._values()))


def _storing_init(cls: type) -> object:
    """A constructor that stores ``cls._fields``, in order, into the
    instance dict.  Its source names only the fields; a default reaches it
    as the value its namespace binds to the field's name, never as text."""
    ns: dict[str, object] = {}
    params = []
    for name in cls._fields:
        value = getattr(cls, name, _once)  # no class-body value, or a _once: no default
        if value is _once or isinstance(value, _once):
            if ns:
                raise TypeError(f"{cls.__qualname__}.{name} has no default but follows one")
            params.append(name)
        else:
            ns[name] = value
            params.append(f"{name}={name}")
    stores = "".join(f"\n    d[{name!r}] = {name}" for name in cls._fields)
    exec(f"def __init__(self, {', '.join(params)}):\n    d = self.__dict__{stores}", ns)
    init = ns["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    return init


class FormalContext(_Record):
    """Immutable object-attribute table.

    ``incidence[i][j]`` is True when object i has attribute j.  Names must
    be unique, non-empty and free of newlines; the table must be
    non-degenerate (at least one object and one attribute).
    """

    objects: tuple[str, ...]
    attributes: tuple[str, ...]
    incidence: tuple[tuple[bool, ...], ...]

    def __init__(
        self,
        objects: tuple[str, ...],
        attributes: tuple[str, ...],
        incidence: tuple[tuple[bool, ...], ...],
    ) -> None:
        d = self.__dict__
        d["objects"] = objects = tuple(objects)
        d["attributes"] = attributes = tuple(attributes)
        d["incidence"] = incidence = tuple([tuple(map(bool, row)) for row in incidence])
        _check_names(objects, "object")
        _check_names(attributes, "attribute")
        if len(incidence) != len(objects):
            raise ContextFormatError(
                f"expected {len(objects)} incidence rows, got {len(incidence)}"
            )
        if set(map(len, incidence)) - {len(attributes)}:
            i, row = next((i, r) for i, r in enumerate(incidence) if len(r) != len(attributes))
            raise ContextFormatError(
                f"row {i + 1} has {len(row)} cells, expected {len(attributes)}"
            )

    @property
    def n_objects(self) -> int:
        return len(self.objects)

    @property
    def n_attributes(self) -> int:
        return len(self.attributes)

    @_once
    def row_masks(self) -> tuple[int, ...]:
        """Per object, the mask of its attributes."""
        return tuple(map(flags_mask, self.incidence))

    @_once
    def column_masks(self) -> tuple[int, ...]:
        """Per attribute, the mask of objects having it."""
        return tuple(map(flags_mask, zip(*self.incidence)))

    @_once
    def column_union(self) -> int:
        """The mask of objects having some attribute."""
        return flags_mask(map(any, self.incidence))

    @_once
    def empty_columns(self) -> int:
        """The mask of attributes no object has."""
        return flags_mask(map(not_, self.column_masks))

    @property
    def full_object_mask(self) -> int:
        return (1 << self.n_objects) - 1

    @property
    def full_attribute_mask(self) -> int:
        return (1 << self.n_attributes) - 1

    def attribute_index(self, name: str) -> int:
        try:
            return self.attributes.index(name)
        except ValueError:
            raise KeyError(f"unknown attribute {name!r}") from None


class Flavor(Enum):
    THREE_WAY = "three_way"
    COMMON_NECESSARY = "common_necessary"


class CompoundContext(_Record):
    """Two attribute blocks over a shared object set."""

    objects: tuple[str, ...]
    a_attributes: tuple[str, ...]
    b_attributes: tuple[str, ...]
    a_incidence: tuple[tuple[bool, ...], ...]
    b_incidence: tuple[tuple[bool, ...], ...]
    flavor: Flavor

    def __init__(
        self,
        objects: tuple[str, ...],
        a_attributes: tuple[str, ...],
        b_attributes: tuple[str, ...],
        a_incidence: tuple[tuple[bool, ...], ...],
        b_incidence: tuple[tuple[bool, ...], ...],
        flavor: Flavor,
    ) -> None:
        # the blocks check their own shapes; the compound shares their fields
        a = FormalContext(objects, a_attributes, a_incidence)
        b = FormalContext(a.objects, b_attributes, b_incidence)
        d = self.__dict__
        d["objects"], d["a_attributes"], d["b_attributes"] = a.objects, a.attributes, b.attributes
        d["a_incidence"], d["b_incidence"], d["flavor"] = a.incidence, b.incidence, flavor
        d["a_block"], d["b_block"] = a, b
        overlap = set(a.attributes) & set(b.attributes)
        if overlap:
            raise ContextFormatError(
                f"attribute names shared between blocks: {sorted(overlap)!r}"
            )
        if flavor is Flavor.THREE_WAY:
            if len(a.attributes) != len(b.attributes):
                raise ContextFormatError(
                    "a three-way compound needs equally sized blocks"
                )
            # the row-major index of the first cell equal in both blocks
            width = len(a.attributes)
            cells = chain.from_iterable(a.incidence), chain.from_iterable(b.incidence)
            same = next(compress(range(len(a.objects) * width), map(eq, *cells)), None)
            if same is not None:
                i, k = divmod(same, width)
                raise ContextFormatError(
                    "three-way blocks must be complementary; "
                    f"object {i + 1}, attribute pair {k + 1} is not"
                )

    @_once
    def a_block(self) -> FormalContext:
        return FormalContext(self.objects, self.a_attributes, self.a_incidence)

    @_once
    def b_block(self) -> FormalContext:
        return FormalContext(self.objects, self.b_attributes, self.b_incidence)

    @_once
    def flattened(self) -> FormalContext:
        """Single table with the b-block columns appended after the a-block.

        Its fields are the blocks' checked fields joined, and its column
        masks the blocks' masks side by side, so no cell is read again."""
        a, b = self.a_block, self.b_block
        flat = FormalContext.__new__(FormalContext)
        d = flat.__dict__
        d["objects"], d["attributes"] = a.objects, a.attributes + b.attributes
        d["incidence"] = tuple(map(add, a.incidence, b.incidence))
        d["column_masks"] = a.column_masks + b.column_masks
        return flat

    @property
    def n_objects(self) -> int:
        return len(self.objects)


def _check_names(names: Sequence[str], kind: str, line: int | None = None) -> None:
    """Refuse the first empty, multi-line or repeated name, in order, at
    its own line when ``line``, the first name's, is given.  The names are
    walked only when one bulk test finds a fault."""
    if not names:
        raise ContextFormatError(f"a context needs at least one {kind}")
    joined = "".join(names)
    if "\n" not in joined and "\r" not in joined and "" not in names:
        if len(set(names)) == len(names):
            return
    seen: dict[str, int] = {}
    for idx, name in enumerate(names):
        at = line and line + idx
        if not name:
            raise ContextFormatError(f"{kind} {idx + 1} has an empty name", at)
        if "\n" in name or "\r" in name:
            raise ContextFormatError(f"{kind} name {name!r} contains a newline", at)
        if name in seen:
            raise ContextFormatError(
                f"duplicate {kind} name {name!r} (positions {seen[name] + 1} and {idx + 1})", at
            )
        seen[name] = idx


# ---------------------------------------------------------------------------
# cxt format
# ---------------------------------------------------------------------------
#
# line 1: "B"; line 2: blank; lines 3-4: object and attribute counts;
# line 5: blank; then object names, attribute names and one row of
# 'X'/'.' cells per object.  Trailing newline optional on input; CRLF
# line ends are accepted.

_CXT_CELLS = bytes.maketrans(b"X.", b"\1\0")  # a checked row, as 0/1 bytes


def _parse_cxt(text: str) -> FormalContext:
    lines = text.replace("\r\n", "\n").split("\n")
    if lines and lines[-1] == "":
        lines.pop()

    def need(idx: int, what: str) -> str:
        if idx >= len(lines):
            raise ContextFormatError(f"unexpected end of input, expected {what}", line=idx + 1)
        return lines[idx]

    if need(0, "header 'B'") != "B":
        raise ContextFormatError("expected header 'B'", line=1)
    if need(1, "blank line") != "":
        raise ContextFormatError("expected a blank line after the header", line=2)

    def count(idx: int, what: str) -> int:
        raw = need(idx, what)
        digits = raw.strip()  # int() would also read '٢', '２', '0_2' and '+1'
        if not (digits.isascii() and digits.isdigit()):
            raise ContextFormatError(f"expected {what}, got {raw!r}", line=idx + 1)
        value = int(digits)
        if value <= 0:
            raise ContextFormatError(f"{what} must be positive, got {value}", line=idx + 1)
        return value

    n_obj = count(2, "object count")
    n_att = count(3, "attribute count")
    if need(4, "blank line") != "":
        raise ContextFormatError("expected a blank line after the counts", line=5)

    base = 5
    row_base = base + n_obj + n_att
    if len(lines) < row_base:
        need(len(lines), "an object name" if len(lines) < base + n_obj else "an attribute name")
    objects, attributes = lines[base:base + n_obj], lines[base + n_obj:row_base]
    rows = []
    for at, raw in enumerate(lines[row_base:row_base + n_obj], row_base + 1):
        if len(raw) != n_att:
            raise ContextFormatError(
                f"incidence row has {len(raw)} cells, expected {n_att}", line=at
            )
        bad = raw.lstrip("X.")  # from the first cell that is neither
        if bad:
            raise ContextFormatError(
                f"illegal incidence character {bad[0]!r}", line=at, column=n_att - len(bad) + 1
            )
        rows.append(raw.encode().translate(_CXT_CELLS))
    if len(rows) < n_obj:
        need(len(lines), "an incidence row")
    extra = row_base + n_obj
    if extra < len(lines):
        raise ContextFormatError("unexpected trailing content", line=extra + 1)
    _check_names(objects, "object", base + 1)
    _check_names(attributes, "attribute", base + n_obj + 1)
    return FormalContext(objects, attributes, rows)


def _serialize_cxt(ctx: FormalContext) -> str:
    out = ["B", "", str(ctx.n_objects), str(ctx.n_attributes), ""]
    out.extend(ctx.objects)
    out.extend(ctx.attributes)
    for row in ctx.incidence:
        out.append("".join("X" if v else "." for v in row))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# JSON formats
# ---------------------------------------------------------------------------


def _load_json(text: str) -> dict:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ContextFormatError(exc.msg, line=exc.lineno, column=exc.colno) from None
    except RecursionError:
        raise ContextFormatError("JSON nested too deeply") from None
    if not isinstance(data, dict):
        raise ContextFormatError("expected a JSON object at the top level")
    return data


def _json_names(data: dict, key: str) -> tuple[str, ...]:
    value = data.get(key)
    if not isinstance(value, list) or not {str}.issuperset(map(type, value)):
        raise ContextFormatError(f"field {key!r} must be a list of strings")
    return tuple(value)


def _json_rows(data: dict, key: str) -> list[list[int]]:
    value = data.get(key)
    if not isinstance(value, list):
        raise ContextFormatError(f"field {key!r} must be a list of rows")
    for i, row in enumerate(value):
        # 1.0 == 1 in Python, so the type is checked too (bool is an int)
        if not isinstance(row, list) or not (
            {int, bool}.issuperset(map(type, row)) and {0, 1}.issuperset(row)
        ):
            raise ContextFormatError(f"field {key!r}, row {i + 1} must hold 0/1 cells")
    return value


def _context_from_json(data: dict) -> FormalContext:
    return FormalContext(
        _json_names(data, "objects"),
        _json_names(data, "attributes"),
        _json_rows(data, "incidence"),
    )


def parse_context(text: str) -> FormalContext:
    """Parse a formal context from cxt or JSON text (auto-detected; one
    leading byte order mark is dropped).

    JSON with a top-level ``flavor`` key is a compound context; it is
    refused with a pointer to ``parse_compound``.
    """
    ctx = _parse_any(text)
    if isinstance(ctx, CompoundContext):
        raise ContextFormatError(
            "this is a compound context (it has a 'flavor' field); "
            "read it with parse_compound"
        )
    return ctx


def serialize_context(ctx: FormalContext, format: str = "cxt") -> str:
    """Render a context as cxt or JSON text; both round-trip exactly."""
    if format == "cxt":
        return _serialize_cxt(ctx)
    if format == "json":
        payload = {
            "objects": list(ctx.objects),
            "attributes": list(ctx.attributes),
            "incidence": [[1 if v else 0 for v in row] for row in ctx.incidence],
        }
        return json.dumps(payload, ensure_ascii=False) + "\n"
    raise ValueError(f"unknown format {format!r}")


def parse_compound(text: str) -> CompoundContext:
    """Parse a compound context from its JSON shape; one leading byte
    order mark is dropped."""
    return _compound_from_json(_load_json(text.removeprefix("\ufeff")))


def _compound_from_json(data: dict) -> CompoundContext:
    raw_flavor = data.get("flavor")
    try:
        flavor = Flavor(raw_flavor)
    except ValueError:
        raise ContextFormatError(
            f"field 'flavor' must be 'three_way' or 'common_necessary', got {raw_flavor!r}"
        ) from None
    return CompoundContext(
        _json_names(data, "objects"),
        _json_names(data, "a_attributes"),
        _json_names(data, "b_attributes"),
        _json_rows(data, "a_incidence"),
        _json_rows(data, "b_incidence"),
        flavor,
    )


def _parse_any(text: str) -> FormalContext | CompoundContext:
    """A compound when the text is a JSON object with a top-level
    ``flavor`` key, a plain context otherwise.  One leading byte order
    mark, which ``str.lstrip`` keeps, is dropped first."""
    text = text.removeprefix("\ufeff")
    if not text.lstrip().startswith("{"):
        return _parse_cxt(text)
    data = _load_json(text)
    if "flavor" in data:
        return _compound_from_json(data)
    return _context_from_json(data)


def serialize_compound(cctx: CompoundContext) -> str:
    payload = {
        "objects": list(cctx.objects),
        "a_attributes": list(cctx.a_attributes),
        "b_attributes": list(cctx.b_attributes),
        "a_incidence": [[1 if v else 0 for v in row] for row in cctx.a_incidence],
        "b_incidence": [[1 if v else 0 for v in row] for row in cctx.b_incidence],
        "flavor": cctx.flavor.value,
    }
    return json.dumps(payload, ensure_ascii=False) + "\n"


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


def complement_context(ctx: FormalContext, prefix: str = "not_") -> FormalContext:
    """Same objects, every incidence bit flipped, attributes renamed.

    The prefix toggles: applying the complement twice restores the
    original names along with the original incidence.
    """
    rows = [map(not_, row) for row in ctx.incidence]
    names = tuple(
        a[len(prefix):] if prefix and a.startswith(prefix) else prefix + a
        for a in ctx.attributes
    )
    return FormalContext(ctx.objects, names, rows)


def appose_negation(ctx: FormalContext, prefix: str = "not_") -> CompoundContext:
    """Compound context pairing each attribute with its complement."""
    comp = complement_context(ctx, prefix)
    return CompoundContext(
        ctx.objects,
        ctx.attributes,
        comp.attributes,
        ctx.incidence,
        comp.incidence,
        Flavor.THREE_WAY,
    )


def make_cn_context(a_block: FormalContext, b_block: FormalContext) -> CompoundContext:
    """Join two tables over the same objects into a conjunctive/disjunctive pair."""
    if a_block.objects != b_block.objects:
        raise ContextFormatError(
            "blocks disagree on objects: "
            f"{list(a_block.objects)!r} vs {list(b_block.objects)!r}"
        )
    return CompoundContext(
        a_block.objects,
        a_block.attributes,
        b_block.attributes,
        a_block.incidence,
        b_block.incidence,
        Flavor.COMMON_NECESSARY,
    )
