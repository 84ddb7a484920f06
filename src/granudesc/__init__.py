"""Definability and logical descriptions of object sets in binary tables.

The package decides whether a set of objects (a granule) of an
object-attribute table can be described exactly by a conjunction, by a
conjunction with negated attributes, by a disjunction, or by a
conjunction and-ed with a disjunct over a second attribute block; it
synthesizes the describing formula when one exists and computes the
tightest definable bounds when none does.

``import granudesc`` runs no submodule.  It puts each one in
``sys.modules`` and here as it would be after an eager import, but
unrun: a submodule runs on the first read of any of its attributes,
however it is reached (``granudesc.lattice``, ``import``, ``vars``), and
then binds its public names here, so a public name is a plain attribute
read from then on.  Code that looks the submodules up in ``sys.modules``
after ``import granudesc`` finds them there, as before.
"""

import sys
from importlib.util import find_spec, module_from_spec
from threading import RLock
from types import ModuleType

__version__ = "0.1.0"

# each public name under the module that defines it
_EXPORTS = {
    "_kernel": ("backend_name",),
    "approximation": (
        "Approximation", "CoverProblem", "Direction", "enumerate_minimal_covers",
        "lower_three_way", "lower_vee", "lower_wedge", "upper_cn", "upper_three_way",
        "upper_vee", "upper_wedge",
    ),
    "context": (
        "AttributeSet", "CompoundContext", "Flavor", "FormalContext", "ObjectSet",
        "appose_negation", "complement_context", "make_cn_context",
        "parse_compound", "parse_context", "serialize_compound", "serialize_context",
    ),
    "definability": (
        "Mode", "Reason", "Status", "Verdict", "find_covering_elements",
        "intersect_descriptions", "is_cn_definable", "is_three_way_definable",
        "is_vee_definable", "is_wedge_definable", "minimal_descriptions",
        "union_vee_descriptions",
    ),
    "derivation": (
        "CnIntent", "cn_extent", "cn_intent", "compound_extent", "compound_intent",
        "extent", "intent", "necessity", "possibility",
    ),
    "errors": (
        "ContextFormatError", "FlavorMismatch", "GranuleDescError", "Inapplicable",
        "SizeGuardExceeded",
    ),
    "formula": (
        "Atom", "Block", "Conj", "ConjDisj", "Description", "Disj", "conj_disj",
        "conj_of", "disj_of", "evaluate", "parse_description", "render",
        "three_way_conj",
    ),
    "lattice": (
        "Concept", "ConceptLattice", "System", "concept_join", "concept_leq",
        "concept_meet", "enumerate_cn", "enumerate_formal",
        "enumerate_object_oriented", "enumerate_three_way", "lattice_to_dot",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)

_run_lock = RLock()  # one submodule runs at a time, as under the import lock
_running: set[str] = set()


class _Unrun(ModuleType):
    """A submodule that runs on the first read of one of its attributes.

    Another thread waits until the run is over; a read from within the
    run (a circular import) sees the module as it fills, as an import
    would.
    """

    def __getattribute__(self, attr: str) -> object:
        get = super().__getattribute__
        with _run_lock:
            name = get("__name__")
            if type(self) is _Unrun and name not in _running:
                _running.add(name)
                try:
                    get("__spec__").loader.exec_module(self)
                finally:
                    _running.discard(name)
                self.__class__ = ModuleType
                names = _EXPORTS.get(name.rpartition(".")[2], ())
                globals().update({n: get("__dict__")[n] for n in names})
        return get(attr)


for _name in ("_bits", *_EXPORTS):
    _spec = find_spec(f"{__name__}.{_name}")
    _module = module_from_spec(_spec)
    _module.__class__ = _Unrun
    sys.modules[_spec.name] = globals()[_name] = _module
del _name, _spec, _module


def __getattr__(name: str) -> object:
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)  # the run binds it here


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
