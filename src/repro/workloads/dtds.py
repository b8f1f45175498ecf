"""DTD families used by the benchmarks.

Three shapes recur in the paper's narrative and drive the scaling series:

* :func:`document_dtd` — a nonrecursive "document-like" schema (sections,
  paragraphs, figures) whose size scales with a fan-out parameter;
* :func:`recursive_chain_dtd` — the recursive chain skeleton of the 2RM
  encoding (`C` chains with register lists);
* :func:`mid_size_dtd` — a mixed schema with disjunction, star and
  optional parts for the Table-1 grid;
* :func:`wide_dtd` — a heap-shaped schema with a configurable number of
  element types (64–256 in the wide-schema suites), the regime the
  packed Thm 5.3 fixpoint (:mod:`repro.sat.exptime_types`) and kernels
  (:mod:`repro.sat.bits`) exist for.
"""

from __future__ import annotations

from repro.dtd.model import DTD
from repro.regex import ast as rx


def document_dtd(sections: int = 3) -> DTD:
    """Nonrecursive document schema with ``sections`` section levels."""
    productions: dict[str, rx.Regex] = {}
    productions["doc"] = rx.concat(rx.sym("title"), rx.star(rx.sym("sec1")))
    for level in range(1, sections + 1):
        name = f"sec{level}"
        body: list[rx.Regex] = [rx.sym("title"), rx.star(rx.sym("para"))]
        if level < sections:
            body.append(rx.star(rx.sym(f"sec{level + 1}")))
        productions[name] = rx.concat(*body)
    productions["title"] = rx.Epsilon()
    productions["para"] = rx.union(rx.sym("text"), rx.sym("figure"))
    productions["text"] = rx.Epsilon()
    productions["figure"] = rx.concat(rx.sym("title"), rx.Optional(rx.sym("text")))
    return DTD(root="doc", productions=productions)


def recursive_chain_dtd() -> DTD:
    """The recursive skeleton of Figure 4 (2RM encoding)."""
    return DTD(
        root="r",
        productions={
            "r": rx.sym("C"),
            "C": rx.union(rx.concat(rx.sym("C"), rx.sym("R1"), rx.sym("R2")), rx.Epsilon()),
            "R1": rx.union(rx.sym("X"), rx.Epsilon()),
            "R2": rx.union(rx.sym("Y"), rx.Epsilon()),
            "X": rx.union(rx.sym("X"), rx.Epsilon()),
            "Y": rx.union(rx.sym("Y"), rx.Epsilon()),
        },
        attributes={"C": frozenset({"s"}), "X": frozenset({"id"}), "Y": frozenset({"id"})},
    )


def mid_size_dtd(width: int = 3) -> DTD:
    """A mixed nonrecursive schema parameterized by fan-out ``width``."""
    leaves = [f"L{i}" for i in range(1, width + 1)]
    mids = [f"M{i}" for i in range(1, width + 1)]
    productions: dict[str, rx.Regex] = {
        "r": rx.concat(*[rx.sym(mid) for mid in mids]),
    }
    for index, mid in enumerate(mids):
        choices = [rx.sym(leaf) for leaf in leaves]
        if index % 2 == 0:
            productions[mid] = rx.union(*choices) if len(choices) > 1 else choices[0]
        else:
            productions[mid] = rx.star(choices[index % len(choices)])
    for leaf in leaves:
        productions[leaf] = rx.Epsilon()
    return DTD(root="r", productions=productions)


def wide_dtd(types: int, fanout: int = 3) -> DTD:
    """A nonrecursive schema with exactly ``types`` element types laid
    out as a ``fanout``-ary heap: the children of ``T{i}`` are
    ``T{fanout*i+1} .. T{fanout*i+fanout}`` (those that exist).

    Content models cycle through concatenation-of-optionals, union, and
    star shapes, and **every** production is nullable, so minimal
    conforming trees stay tiny no matter how wide the schema gets —
    wide-schema differential sweeps can validate witnesses (and bounded
    oracles can enumerate) without tree-size explosions.  Width, not
    depth, is the point: a 256-type instance exercises exactly the
    per-element-type sweep the packed fixpoint kernels accelerate.
    """
    if types < 1:
        raise ValueError(f"types must be positive, got {types}")
    if fanout < 1:
        raise ValueError(f"fanout must be positive, got {fanout}")
    productions: dict[str, rx.Regex] = {}
    for i in range(types):
        children = [
            rx.sym(f"T{j}")
            for j in range(fanout * i + 1, fanout * i + fanout + 1)
            if j < types
        ]
        if not children:
            productions[f"T{i}"] = rx.Epsilon()
        elif i % 3 == 0:
            productions[f"T{i}"] = rx.concat(
                *[rx.Optional(child) for child in children]
            )
        elif i % 3 == 1:
            productions[f"T{i}"] = rx.Optional(
                rx.union(*children) if len(children) > 1 else children[0]
            )
        else:
            productions[f"T{i}"] = rx.concat(
                *[rx.star(child) for child in children]
            )
    return DTD(root="T0", productions=productions)
