"""AST for the paper's XPath class (Sections 2.2 and 7.1).

Path expressions denote binary predicates over tree nodes; qualifiers denote
unary predicates.  Nodes are immutable and hashable so deciders can memoize
on (subquery, element type) pairs, exactly like the paper's dynamic
programs index their ``reach``/``sat`` tables.

Deciders hash the same subtrees over and over (memo keys, the
``first_cases`` LRU), so composite nodes compute their structural hash
once, lazily, and :func:`repro.xpath.fragments.features_of` caches its
result on the node it was asked about — in the spirit of the hash-consed
formula DAGs of Genevès/Layaïda (arXiv:0812.3550), but without
interning.  Both caches live in the instance ``__dict__`` under the
class-level ``None`` defaults below and never cross a pickle boundary
(a process started with ``spawn`` salts ``str`` hashes differently).

The concrete ASCII rendering produced by ``str()`` round-trips through
:func:`repro.xpath.parser.parse_query`:

========================  ==========================
paper                      ASCII
========================  ==========================
``ε``                      ``.``
``l`` (label step)         ``l``
``↓`` (wildcard child)     ``*``
``↓*``                     ``**``
``↑``                      ``^``
``↑*``                     ``^*``
``→`` / ``→*``             ``>`` / ``>*``
``←`` / ``←*``             ``<`` / ``<*``
``p1/p2``                  ``p1/p2``
``p1 ∪ p2``                ``p1 | p2``
``p[q]``                   ``p[q]``
``lab() = A``              ``lab() = A``
``p/@a = 'c'``             ``p/@a = 'c'``
``p/@a ≠ p'/@b``           ``p/@a != p'/@b``
``∧`` / ``∨`` / ``¬``      ``and`` / ``or`` / ``not(...)``
========================  ==========================
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Iterator, Literal

CompareOp = Literal["=", "!="]

#: per-node cache attributes (class-level ``None`` defaults below)
_NODE_CACHES = ("_hash", "_features")


def _getstate(node) -> dict:
    """Pickled (and copied) state: the dataclass fields, never the caches."""
    return {name: getattr(node, name) for name in node.__dataclass_fields__}


_set = object.__setattr__     # frozen nodes: caches bypass __setattr__


def _self_hashing(cls):
    """Give a composite dataclass node a structural hash computed once,
    on first use (the dataclass-generated one re-walks the subtree on
    every call).  Equal nodes hash equal: the hash covers the class and
    exactly the fields ``__eq__`` compares."""
    key = attrgetter(*(field.name for field in fields(cls)))
    salt = cls.__name__

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = hash((salt, key(self)))
            # not via __dict__, which would materialize the instance dict
            _set(self, "_hash", cached)
        return cached

    cls.__hash__ = __hash__
    # enter the cache names into the class's shared instance-dict keys,
    # in a fixed order, before any real node exists: CPython sizes each
    # instance's attribute storage from those keys and shrinks the spare
    # room as instances are created, so a cache name first set later
    # would cost every cached node a full dict (~250 B), not one slot
    prototype = object.__new__(cls)
    for name in [field.name for field in fields(cls)] + list(_NODE_CACHES):
        _set(prototype, name, None)
    return cls


class Path:
    """Base class of path expressions (binary predicates)."""

    __slots__ = ()
    _hash = None
    _features = None
    __getstate__ = _getstate

    def children_paths(self) -> tuple["Path", ...]:
        return ()

    def children_qualifiers(self) -> tuple["Qualifier", ...]:
        return ()

    def walk(self) -> Iterator["Path | Qualifier"]:
        """This node and all subexpressions (paths and qualifiers)."""
        yield self
        for path in self.children_paths():
            yield from path.walk()
        for qualifier in self.children_qualifiers():
            yield from qualifier.walk()

    def size(self) -> int:
        """``|p|``: the number of AST nodes."""
        return sum(1 for _ in self.walk())

    def __str__(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


class Qualifier:
    """Base class of qualifiers (unary predicates)."""

    __slots__ = ()
    _hash = None
    _features = None
    __getstate__ = _getstate

    def children_paths(self) -> tuple[Path, ...]:
        return ()

    def children_qualifiers(self) -> tuple["Qualifier", ...]:
        return ()

    def walk(self) -> Iterator["Path | Qualifier"]:
        yield self
        for path in self.children_paths():
            yield from path.walk()
        for qualifier in self.children_qualifiers():
            yield from qualifier.walk()

    def size(self) -> int:
        return sum(1 for _ in self.walk())

    def __str__(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


# ---------------------------------------------------------------------------
# Axis steps
# ---------------------------------------------------------------------------

@dataclass(frozen=True, repr=False)
class Empty(Path):
    """``ε`` — the self axis."""

    def __str__(self) -> str:
        return "."


@dataclass(frozen=True, repr=False)
class Label(Path):
    """``l`` — move to a child labeled ``l``."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, repr=False)
class Wildcard(Path):
    """``↓`` — move to any child."""

    def __str__(self) -> str:
        return "*"


@dataclass(frozen=True, repr=False)
class DescOrSelf(Path):
    """``↓*`` — descendant-or-self."""

    def __str__(self) -> str:
        return "**"


@dataclass(frozen=True, repr=False)
class Parent(Path):
    """``↑`` — parent."""

    def __str__(self) -> str:
        return "^"


@dataclass(frozen=True, repr=False)
class AncOrSelf(Path):
    """``↑*`` — ancestor-or-self."""

    def __str__(self) -> str:
        return "^*"


@dataclass(frozen=True, repr=False)
class RightSib(Path):
    """``→`` — immediate right sibling (Section 7.1)."""

    def __str__(self) -> str:
        return ">"


@dataclass(frozen=True, repr=False)
class RightSibStar(Path):
    """``→*`` — self or any right sibling."""

    def __str__(self) -> str:
        return ">*"


@dataclass(frozen=True, repr=False)
class LeftSib(Path):
    """``←`` — immediate left sibling."""

    def __str__(self) -> str:
        return "<"


@dataclass(frozen=True, repr=False)
class LeftSibStar(Path):
    """``←*`` — self or any left sibling."""

    def __str__(self) -> str:
        return "<*"


# ---------------------------------------------------------------------------
# Composite paths
# ---------------------------------------------------------------------------

@_self_hashing
@dataclass(frozen=True, repr=False)
class Seq(Path):
    """``p1/p2`` — composition."""

    left: Path
    right: Path

    def children_paths(self) -> tuple[Path, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        left = f"({self.left})" if isinstance(self.left, Union) else str(self.left)
        right = f"({self.right})" if isinstance(self.right, Union) else str(self.right)
        return f"{left}/{right}"


@_self_hashing
@dataclass(frozen=True, repr=False)
class Union(Path):
    """``p1 ∪ p2``."""

    left: Path
    right: Path

    def children_paths(self) -> tuple[Path, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"{self.left} | {self.right}"


@_self_hashing
@dataclass(frozen=True, repr=False)
class Filter(Path):
    """``p[q]`` — path with qualifier."""

    path: Path
    qualifier: "Qualifier"

    def children_paths(self) -> tuple[Path, ...]:
        return (self.path,)

    def children_qualifiers(self) -> tuple["Qualifier", ...]:
        return (self.qualifier,)

    def __str__(self) -> str:
        base = f"({self.path})" if isinstance(self.path, (Union, Seq)) else str(self.path)
        return f"{base}[{self.qualifier}]"


# ---------------------------------------------------------------------------
# Qualifiers
# ---------------------------------------------------------------------------

@_self_hashing
@dataclass(frozen=True, repr=False)
class PathExists(Qualifier):
    """``p`` as a qualifier: some node is reachable via ``p``."""

    path: Path

    def children_paths(self) -> tuple[Path, ...]:
        return (self.path,)

    def __str__(self) -> str:
        return str(self.path)


@dataclass(frozen=True, repr=False)
class LabelTest(Qualifier):
    """``lab() = A``."""

    name: str

    def __str__(self) -> str:
        return f"lab() = {self.name}"


@_self_hashing
@dataclass(frozen=True, repr=False)
class AttrConstCmp(Qualifier):
    """``p/@a op 'c'``."""

    path: Path
    attr: str
    op: CompareOp
    value: str

    def children_paths(self) -> tuple[Path, ...]:
        return (self.path,)

    def __str__(self) -> str:
        prefix = "" if isinstance(self.path, Empty) else f"{_paren_for_attr(self.path)}/"
        return f"{prefix}@{self.attr} {self.op} '{self.value}'"


@_self_hashing
@dataclass(frozen=True, repr=False)
class AttrAttrCmp(Qualifier):
    """``p/@a op p'/@b`` — a data-value join."""

    left_path: Path
    left_attr: str
    op: CompareOp
    right_path: Path
    right_attr: str

    def children_paths(self) -> tuple[Path, ...]:
        return (self.left_path, self.right_path)

    def __str__(self) -> str:
        left_prefix = "" if isinstance(self.left_path, Empty) else f"{_paren_for_attr(self.left_path)}/"
        right_prefix = "" if isinstance(self.right_path, Empty) else f"{_paren_for_attr(self.right_path)}/"
        return (
            f"{left_prefix}@{self.left_attr} {self.op} "
            f"{right_prefix}@{self.right_attr}"
        )


@_self_hashing
@dataclass(frozen=True, repr=False)
class And(Qualifier):
    left: Qualifier
    right: Qualifier

    def children_qualifiers(self) -> tuple[Qualifier, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"{_paren_q(self.left)} and {_paren_q(self.right)}"


@_self_hashing
@dataclass(frozen=True, repr=False)
class Or(Qualifier):
    left: Qualifier
    right: Qualifier

    def children_qualifiers(self) -> tuple[Qualifier, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"{_paren_q(self.left, in_or=True)} or {_paren_q(self.right, in_or=True)}"


@_self_hashing
@dataclass(frozen=True, repr=False)
class Not(Qualifier):
    inner: Qualifier

    def children_qualifiers(self) -> tuple[Qualifier, ...]:
        return (self.inner,)

    def __str__(self) -> str:
        return f"not({self.inner})"


def _paren_q(qualifier: Qualifier, in_or: bool = False) -> str:
    """Parenthesize operands so that ``str`` output re-parses identically
    under 'and binds tighter than or'."""
    needs = isinstance(qualifier, Or) if not in_or else False
    text = str(qualifier)
    return f"({text})" if needs else text


def _paren_for_attr(path: Path) -> str:
    return f"({path})" if isinstance(path, Union) else str(path)



# ---------------------------------------------------------------------------
# Helpers shared by deciders
# ---------------------------------------------------------------------------

def seq_of(*parts: Path) -> Path:
    """Right-nested composition of the parts, dropping redundant ``ε``."""
    useful = [part for part in parts if not isinstance(part, Empty)]
    if not useful:
        return Empty()
    result = useful[-1]
    for part in reversed(useful[:-1]):
        result = Seq(part, result)
    return result


def union_of(*parts: Path) -> Path:
    if not parts:
        raise ValueError("union_of requires at least one part")
    result = parts[-1]
    for part in reversed(parts[:-1]):
        result = Union(part, result)
    return result


def and_of(*parts: Qualifier) -> Qualifier:
    if not parts:
        raise ValueError("and_of requires at least one qualifier")
    result = parts[-1]
    for part in reversed(parts[:-1]):
        result = And(part, result)
    return result


def or_of(*parts: Qualifier) -> Qualifier:
    if not parts:
        raise ValueError("or_of requires at least one qualifier")
    result = parts[-1]
    for part in reversed(parts[:-1]):
        result = Or(part, result)
    return result


def labels_mentioned(query: Path | Qualifier) -> frozenset[str]:
    """All labels occurring as label steps or label tests (Prop 3.1 uses
    this to build the universal DTD family ``D_p``)."""
    labels: set[str] = set()
    for node in query.walk():
        if isinstance(node, Label):
            labels.add(node.name)
        elif isinstance(node, LabelTest):
            labels.add(node.name)
    return frozenset(labels)


def attrs_mentioned(query: Path | Qualifier) -> frozenset[str]:
    """All attribute names occurring in comparisons."""
    attrs: set[str] = set()
    for node in query.walk():
        if isinstance(node, AttrConstCmp):
            attrs.add(node.attr)
        elif isinstance(node, AttrAttrCmp):
            attrs.add(node.left_attr)
            attrs.add(node.right_attr)
    return frozenset(attrs)


def constants_mentioned(query: Path | Qualifier) -> frozenset[str]:
    """All constant strings compared against."""
    return frozenset(
        node.value for node in query.walk() if isinstance(node, AttrConstCmp)
    )
