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
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from collections.abc import Iterable, Sequence

from granudesc._bits import mask_of
from granudesc.errors import ContextFormatError

ObjectSet = frozenset[int]
AttributeSet = frozenset[int]


def _freeze_rows(rows: Iterable[Iterable[object]]) -> tuple[tuple[bool, ...], ...]:
    return tuple(tuple(bool(v) for v in row) for row in rows)


@dataclass(frozen=True)
class FormalContext:
    """Immutable object-attribute table.

    ``incidence[i][j]`` is True when object i has attribute j.  Names must
    be unique, non-empty and free of newlines; the table must be
    non-degenerate (at least one object and one attribute).
    """

    objects: tuple[str, ...]
    attributes: tuple[str, ...]
    incidence: tuple[tuple[bool, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "objects", tuple(self.objects))
        object.__setattr__(self, "attributes", tuple(self.attributes))
        object.__setattr__(self, "incidence", _freeze_rows(self.incidence))
        _check_names(self.objects, "object")
        _check_names(self.attributes, "attribute")
        if len(self.incidence) != len(self.objects):
            raise ContextFormatError(
                f"expected {len(self.objects)} incidence rows, got {len(self.incidence)}"
            )
        for i, row in enumerate(self.incidence):
            if len(row) != len(self.attributes):
                raise ContextFormatError(
                    f"row {i + 1} has {len(row)} cells, expected {len(self.attributes)}"
                )

    @property
    def n_objects(self) -> int:
        return len(self.objects)

    @property
    def n_attributes(self) -> int:
        return len(self.attributes)

    @cached_property
    def row_masks(self) -> tuple[int, ...]:
        """Per object, the mask of its attributes."""
        return tuple(
            mask_of(j for j, v in enumerate(row) if v) for row in self.incidence
        )

    @cached_property
    def column_masks(self) -> tuple[int, ...]:
        """Per attribute, the mask of objects having it."""
        return tuple(
            mask_of(i for i in range(self.n_objects) if self.incidence[i][j])
            for j in range(self.n_attributes)
        )

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


@dataclass(frozen=True)
class CompoundContext:
    """Two attribute blocks over a shared object set."""

    objects: tuple[str, ...]
    a_attributes: tuple[str, ...]
    b_attributes: tuple[str, ...]
    a_incidence: tuple[tuple[bool, ...], ...]
    b_incidence: tuple[tuple[bool, ...], ...]
    flavor: Flavor

    def __post_init__(self) -> None:
        object.__setattr__(self, "objects", tuple(self.objects))
        object.__setattr__(self, "a_attributes", tuple(self.a_attributes))
        object.__setattr__(self, "b_attributes", tuple(self.b_attributes))
        object.__setattr__(self, "a_incidence", _freeze_rows(self.a_incidence))
        object.__setattr__(self, "b_incidence", _freeze_rows(self.b_incidence))
        # block-level shape checks are delegated to the FormalContext views
        self.a_block, self.b_block
        overlap = set(self.a_attributes) & set(self.b_attributes)
        if overlap:
            raise ContextFormatError(
                f"attribute names shared between blocks: {sorted(overlap)!r}"
            )
        if self.flavor is Flavor.THREE_WAY:
            if len(self.a_attributes) != len(self.b_attributes):
                raise ContextFormatError(
                    "a three-way compound needs equally sized blocks"
                )
            for i in range(len(self.objects)):
                for k in range(len(self.a_attributes)):
                    if self.a_incidence[i][k] == self.b_incidence[i][k]:
                        raise ContextFormatError(
                            "three-way blocks must be complementary; "
                            f"object {i + 1}, attribute pair {k + 1} is not"
                        )

    @cached_property
    def a_block(self) -> FormalContext:
        return FormalContext(self.objects, self.a_attributes, self.a_incidence)

    @cached_property
    def b_block(self) -> FormalContext:
        return FormalContext(self.objects, self.b_attributes, self.b_incidence)

    @cached_property
    def flattened(self) -> FormalContext:
        """Single table with the b-block columns appended after the a-block."""
        rows = tuple(
            tuple(self.a_incidence[i]) + tuple(self.b_incidence[i])
            for i in range(len(self.objects))
        )
        return FormalContext(self.objects, self.a_attributes + self.b_attributes, rows)

    @property
    def n_objects(self) -> int:
        return len(self.objects)


def _check_names(names: Sequence[str], kind: str) -> None:
    if not names:
        raise ContextFormatError(f"a context needs at least one {kind}")
    seen: dict[str, int] = {}
    for idx, name in enumerate(names):
        if not name:
            raise ContextFormatError(f"{kind} {idx + 1} has an empty name")
        if "\n" in name or "\r" in name:
            raise ContextFormatError(f"{kind} name {name!r} contains a newline")
        if name in seen:
            raise ContextFormatError(
                f"duplicate {kind} name {name!r} (positions {seen[name] + 1} and {idx + 1})"
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
        try:
            value = int(raw)
        except ValueError:
            raise ContextFormatError(f"expected {what}, got {raw!r}", line=idx + 1) from None
        if value <= 0:
            raise ContextFormatError(f"{what} must be positive, got {value}", line=idx + 1)
        return value

    n_obj = count(2, "object count")
    n_att = count(3, "attribute count")
    if need(4, "blank line") != "":
        raise ContextFormatError("expected a blank line after the counts", line=5)

    base = 5
    objects = [need(base + i, "an object name") for i in range(n_obj)]
    attributes = [need(base + n_obj + k, "an attribute name") for k in range(n_att)]
    rows = []
    row_base = base + n_obj + n_att
    for i in range(n_obj):
        raw = need(row_base + i, "an incidence row")
        if len(raw) != n_att:
            raise ContextFormatError(
                f"incidence row has {len(raw)} cells, expected {n_att}",
                line=row_base + i + 1,
            )
        bad = next((col for col, ch in enumerate(raw) if ch not in "X."), None)
        if bad is not None:
            raise ContextFormatError(
                f"illegal incidence character {raw[bad]!r}",
                line=row_base + i + 1,
                column=bad + 1,
            )
        rows.append(tuple(ch == "X" for ch in raw))
    extra = row_base + n_obj
    if extra < len(lines):
        raise ContextFormatError("unexpected trailing content", line=extra + 1)
    try:
        return FormalContext(tuple(objects), tuple(attributes), tuple(rows))
    except ContextFormatError as exc:
        # name-level problems: point at the name section
        raise ContextFormatError(exc.message, line=base + 1) from None


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
    if not isinstance(data, dict):
        raise ContextFormatError("expected a JSON object at the top level")
    return data


def _json_names(data: dict, key: str) -> tuple[str, ...]:
    value = data.get(key)
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ContextFormatError(f"field {key!r} must be a list of strings")
    return tuple(value)


def _json_rows(data: dict, key: str) -> tuple[tuple[bool, ...], ...]:
    value = data.get(key)
    if not isinstance(value, list):
        raise ContextFormatError(f"field {key!r} must be a list of rows")
    rows = []
    for i, row in enumerate(value):
        # 1.0 == 1 in Python, so the type is checked too (bool is an int)
        if not isinstance(row, list) or not all(
            isinstance(v, int) and v in (0, 1) for v in row
        ):
            raise ContextFormatError(f"field {key!r}, row {i + 1} must hold 0/1 cells")
        rows.append(tuple(bool(v) for v in row))
    return tuple(rows)


def _context_from_json(data: dict) -> FormalContext:
    return FormalContext(
        _json_names(data, "objects"),
        _json_names(data, "attributes"),
        _json_rows(data, "incidence"),
    )


def parse_context(text: str) -> FormalContext:
    """Parse a formal context from cxt or JSON text (auto-detected).

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
    """Parse a compound context from its JSON shape."""
    return _compound_from_json(_load_json(text))


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
    ``flavor`` key, a plain context otherwise."""
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
    rows = tuple(tuple(not v for v in row) for row in ctx.incidence)
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
