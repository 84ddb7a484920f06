"""The records behave as the frozen dataclasses they replaced.

Each record of the package is checked against ``oracles.frozen_twin``, the
same fields in a class made by ``dataclasses.make_dataclass(frozen=True)``:
equality, hash and repr, refused assignment and deletion, and pickle,
copy and deepcopy round-trips.  A clone carries the fields alone, so it
rebuilds what the original cached on first use.
"""

from __future__ import annotations

import copy
import inspect
import pickle

import pytest

from granudesc import (
    Atom,
    Block,
    CnIntent,
    Conj,
    CoverProblem,
    Disj,
    Mode,
    Status,
    Verdict,
    conj_disj,
    conj_of,
    disj_of,
    enumerate_cn,
    enumerate_formal,
    enumerate_three_way,
    is_cn_definable,
    is_wedge_definable,
    lower_wedge,
    three_way_conj,
    upper_wedge,
)
from granudesc.context import _once, _Record
from granudesc.definability import _RULES, _CnRule, _Rule
from granudesc.lattice import Concept, System, concept_label

from .oracles import frozen_twin

CLONES = {
    "pickle": lambda r: pickle.loads(pickle.dumps(r)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


@pytest.fixture(scope="module")
def records(table1, table3, table5) -> list[object]:
    """One or more instances of each of the 13 record classes, with every
    value they cache on first use computed, and a listed concept whose
    sets no one has read before the first test does."""
    lattice = enumerate_formal(table1)
    cn = enumerate_cn(table5)
    for c in (*lattice.concepts, *cn):
        concept_label(c)
    b = table5.b_block
    b.column_union, b.empty_columns, table3.flattened.row_masks  # noqa: B018
    return [
        table1,
        table3,
        table5,
        Atom(Block.A, 0, "a1"),
        Atom(Block.A, 0, "a1", negated=True),
        conj_of(table1, [0, 1]),
        Conj((Atom(Block.A, 1, "a2"), Atom(Block.A, 0, "a1"))),
        Disj((Atom(Block.A, 1, "a2"), Atom(Block.A, 0, "a1"))),
        disj_of(table1, [2, 4]),
        three_way_conj(table3, [0, 6]),
        conj_disj(table5, [0], [1, 2]),
        CnIntent(frozenset({0}), frozenset({1, 2})),
        CnIntent(frozenset({0}), frozenset(), no_b_cover=True),
        is_wedge_definable(table1, [1, 6]),
        is_wedge_definable(table1, [0]),
        is_cn_definable(table5, [0, 1]),
        Verdict(Status.INDEFINABLE, witness=frozenset({3})),
        upper_wedge(table1, [1, 2]),
        lower_wedge(table1, [1, 2, 6]),
        CoverProblem(((0, frozenset({1})), (1, frozenset({1, 2}))), frozenset({1})),
        lattice.concepts[0],
        lattice.concepts[3],
        cn[0],
        enumerate_three_way(table3).concepts[4],
        lattice,
        _RULES[Mode.WEDGE],
        _RULES[Mode.CN],
    ]


def test_the_records_cover_every_record_class(records) -> None:
    names = {type(r).__name__ for r in records}
    assert names == {
        "Approximation", "Atom", "CnIntent", "CompoundContext", "Concept",
        "ConceptLattice", "Conj", "ConjDisj", "CoverProblem", "Disj",
        "FormalContext", "Verdict", "_Rule", "_CnRule",
    }


def test_equality_hash_and_repr_match_the_dataclass(records) -> None:
    twins = [frozen_twin(r) for r in records]
    for r, t in zip(records, twins):
        assert repr(r) == repr(t)
        assert hash(r) == hash(t)
        assert type(r).__match_args__ == type(t).__match_args__
        assert r == r and not r != r
    for r1, t1 in zip(records, twins):
        for r2, t2 in zip(records, twins):
            assert (r1 == r2) == (t1 == t2)
            assert (r1 != r2) == (t1 != t2)


def test_equality_needs_the_same_class() -> None:
    atoms = (Atom(Block.A, 0, "a1"),)
    assert Conj(atoms) != Disj(atoms) and frozen_twin(Conj(atoms)) != frozen_twin(Disj(atoms))
    assert Conj(atoms).__eq__(Disj(atoms)) is NotImplemented
    assert Conj(atoms).__eq__(frozen_twin(Conj(atoms))) is NotImplemented
    assert Verdict(Status.DEFINABLE) != (Status.DEFINABLE, None, None, None)
    rule = _RULES[Mode.CN]
    plain = type(_RULES[Mode.WEDGE])(*(getattr(rule, f) for f in rule._fields))
    assert rule != plain and hash(rule) == hash(plain)


def _refusal(action, *args) -> str:
    with pytest.raises(AttributeError) as info:
        action(*args)
    return str(info.value)


def test_assignment_and_deletion_are_refused_as_by_the_dataclass(records) -> None:
    for r in records:
        twin = frozen_twin(r)
        for name in (*type(r)._fields, "other", "column_masks"):
            for action, args in ((setattr, (name, 1)), (delattr, (name,))):
                before = dict(r.__dict__)
                assert _refusal(action, r, *args) == _refusal(action, twin, *args)
                assert r.__dict__ == before


@pytest.mark.parametrize("how", sorted(CLONES))
def test_clones_are_equal_and_carry_the_fields_alone(records, how) -> None:
    clone = CLONES[how]
    for r in records:
        if how == "pickle" and isinstance(r, _Rule):
            continue  # its fields are lambdas, which no dataclass pickles either
        c = clone(r)
        assert type(c) is type(r) and c is not r
        assert c == r and hash(c) == hash(r) and repr(c) == repr(r)
        assert frozen_twin(c) == frozen_twin(r)
        if how != "pickle":
            assert repr(clone(frozen_twin(r))) == repr(c)
        assert list(c.__dict__) == list(type(r)._fields)


def test_cloned_contexts_rebuild_equal_masks(table5) -> None:
    b = table5.b_block
    want = (b.column_masks, b.column_union, b.empty_columns)
    for clone in CLONES.values():
        cb = clone(table5).b_block
        assert (cb.column_masks, cb.column_union, cb.empty_columns) == want


DEFAULTS = {
    Verdict: {"description": None, "reason": None, "witness": None},
    _Rule: {"needs_granule": False},
    _CnRule: {"needs_granule": False},
    CnIntent: {"no_b_cover": False},
    Atom: {"negated": False},
}


def test_constructors_take_their_fields_by_keyword(records) -> None:
    for r in records:
        assert type(r)(**{f: getattr(r, f) for f in r._fields}) == r
    assert Verdict(Status.DEFINABLE) == Verdict(Status.DEFINABLE, None, None, None)
    assert Atom(Block.B, 2, "b3") == Atom(Block.B, 2, "b3", False)
    assert CnIntent(frozenset(), frozenset()) == CnIntent(frozenset(), frozenset(), False)
    classes = _record_classes()
    assert len(classes) == 14 and set(DEFAULTS) <= set(classes)
    for cls in classes:
        params = inspect.signature(cls).parameters.values()
        assert [p.name for p in params] == list(cls._fields)
        assert {p.kind for p in params} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}
        defaults = {p.name: p.default for p in params if p.default is not p.empty}
        assert defaults == DEFAULTS.get(cls, {})
        owner = next(k for k in cls.__mro__ if "__init__" in vars(k))
        assert cls.__init__.__qualname__ == f"{owner.__qualname__}.__init__"
        assert cls.__init__.__module__ == owner.__module__ == cls.__module__
    assert _CnRule.__init__ is _Rule.__init__
    with pytest.raises(TypeError) as err:
        Verdict()
    assert str(err.value) == "Verdict.__init__() missing 1 required positional argument: 'status'"


def test_a_record_without_a_constructor_gets_one_that_stores_its_fields() -> None:
    class Local(_Record):
        lazy: int
        flag: bool = True

        @_once
        def lazy(self) -> int:
            return 0

    assert [(p.name, p.default) for p in inspect.signature(Local).parameters.values()] == [
        ("lazy", inspect.Parameter.empty),
        ("flag", True),
    ]
    assert Local(5).__dict__ == {"lazy": 5, "flag": True}
    assert Local(flag=False, lazy=6).__dict__ == {"lazy": 6, "flag": False}
    assert Local.__init__.__qualname__ == f"{Local.__qualname__}.__init__"
    assert Local.__init__.__module__ == __name__
    with pytest.raises(TypeError, match=r"<locals>\.Late\.plain has no default but follows one$"):

        class Late(_Record):
            flag: bool = True
            plain: int


def _record_classes() -> list[type]:
    """The package's record classes, not those a test makes."""
    found, todo = [], [_Record]
    while todo:
        subs = todo.pop().__subclasses__()
        found += subs
        todo += subs
    return [cls for cls in found if cls.__module__.startswith("granudesc.")]


def test_lazy_fields_are_read_by_attribute(table1, table5) -> None:
    """A field that is also a ``_once`` on its class stays out of the
    instance dict until its first read, so equality, hash, repr and
    ``__getstate__`` must read it by attribute, never from the dict."""
    unread = {
        Concept: lambda: [*enumerate_formal(table1).concepts, *enumerate_cn(table5)],
    }
    lazy = {
        cls: [f for f in cls._fields if isinstance(getattr(cls, f, None), _once)]
        for cls in _record_classes()
    }
    assert {cls for cls, fields in lazy.items() if fields} == set(unread)
    reads = {
        "eq": lambda r, eager: r == eager and eager == r,
        "hash": lambda r, eager: hash(r) == hash(eager) == hash(frozen_twin(eager)),
        "repr": lambda r, eager: repr(r) == repr(eager) == repr(frozen_twin(eager)),
        "getstate": lambda r, eager: r.__getstate__() == eager.__getstate__(),
    }
    for cls, make in unread.items():
        eager = [cls(*(getattr(r, f) for f in cls._fields)) for r in make()]
        for name, read in reads.items():
            fresh = make()
            assert not [f for r in fresh for f in lazy[cls] if f in r.__dict__]
            assert all(read(r, e) for r, e in zip(fresh, eager)), name


def test_concept_constructor_keeps_the_sets_it_is_given(table1, table5) -> None:
    ext, att = frozenset({1, 6}), frozenset({0, 1})
    c = Concept(ext, att, System.FORMAL, table1)
    assert c.extent is ext and c.intent is att
    two = CnIntent(frozenset({0}), frozenset({1, 2}))
    c = Concept(ext, two, System.COMMON_NECESSARY, table5)
    assert c.extent is ext and c.intent is two
