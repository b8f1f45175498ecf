"""Tests for XPath AST, parser, semantics, fragments, inverse and rewrites."""

from __future__ import annotations

import pytest

from repro.errors import FragmentError, ParseError
from repro.xpath import (
    evaluate,
    features_of,
    holds,
    inverse,
    parse_qualifier,
    parse_query,
    satisfies,
)
from repro.xpath import ast
from repro.xpath import fragments as frag
from repro.xpath.builder import boolean, label, q_not, seq, steps
from repro.xpath.inverse import non_containment_query, root_test
from repro.xpath.rewrite import qualifiers_to_upward, upward_to_qualifiers
from repro.xmltree import tree


@pytest.fixture
def doc():
    #        r
    #      / | \
    #     A  B  A
    #     |     |
    #     B     C(@v=1)
    #     |
    #     C(@v=2)
    return tree(
        (
            "r",
            [
                ("A", [("B", [("C", [], {"v": "2"})])]),
                ("B", []),
                ("A", [("C", [], {"v": "1"})]),
            ],
        )
    )


class TestParser:
    @pytest.mark.parametrize(
        "text",
        [
            ".",
            "A",
            "*",
            "**",
            "^",
            "^*",
            ">",
            ">*",
            "<",
            "<*",
            "A/B/C",
            "A | B",
            "A[B]",
            "A[not(B)]",
            "A[B and C or D]",
            "A[lab() = B]",
            "A[@a = '1']",
            "A[B/@a != C/@b]",
            ".[**/C[@s = '7'] and not(R1/X)]",
            "(A | B)/C",
            "A[(B or C) and D]",
        ],
    )
    def test_roundtrip(self, text):
        query = parse_query(text)
        assert parse_query(str(query)) == query

    def test_numbers_are_constants(self):
        qualifier = parse_qualifier("@s = 0")
        assert qualifier == ast.AttrConstCmp(ast.Empty(), "s", "=", "0")

    def test_lab_neq_sugar(self):
        qualifier = parse_qualifier("lab() != A")
        assert qualifier == ast.Not(ast.LabelTest("A"))

    def test_attr_path(self):
        qualifier = parse_qualifier("C/R1/@id = '3'")
        assert isinstance(qualifier, ast.AttrConstCmp)
        assert str(qualifier.path) == "C/R1"

    @pytest.mark.parametrize("bad", ["", "/A", "A/", "A[", "A]", "A[@a]", "@a", "A[@a = B]"])
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_query(bad)

    def test_union_precedence(self):
        query = parse_query("A/B | C")
        assert isinstance(query, ast.Union)

    def test_size(self):
        # Seq, Label A, Filter, Label B, PathExists, Label C
        assert parse_query("A/B[C]").size() == 6


class TestSemantics:
    def test_child_and_wildcard(self, doc):
        assert {n.label for n in evaluate(parse_query("A"), doc)} == {"A"}
        assert len(evaluate(parse_query("*"), doc)) == 3

    def test_descendant_or_self(self, doc):
        result = evaluate(parse_query("**"), doc)
        assert len(result) == len(doc)

    def test_label_path(self, doc):
        assert satisfies(doc, parse_query("A/B/C"))
        assert not satisfies(doc, parse_query("B/C"))

    def test_parent_and_ancestor(self, doc):
        assert satisfies(doc, parse_query("A/B/^"))
        c_nodes = evaluate(parse_query("**/C"), doc)
        for c in c_nodes:
            up = evaluate(parse_query("^*"), doc, c)
            assert doc.root in up

    def test_sibling_axes(self, doc):
        assert satisfies(doc, parse_query("A/>"))          # A has right sibling B
        assert satisfies(doc, parse_query("B/<"))
        assert not satisfies(doc, parse_query("B/>/>"))     # only one step right of B
        right_of_first = evaluate(parse_query("A/>*"), doc)
        assert {n.label for n in right_of_first} == {"A", "B"}

    def test_qualifiers(self, doc):
        assert satisfies(doc, parse_query("A[B]"))
        assert satisfies(doc, parse_query("A[not(B)]"))    # second A has no B
        assert not satisfies(doc, parse_query("B[C]"))

    def test_label_test(self, doc):
        assert satisfies(doc, parse_query("*[lab() = B]"))
        assert holds(parse_qualifier("lab() = r"), doc)

    def test_attr_const(self, doc):
        assert satisfies(doc, parse_query(".[A/C/@v = '1']"))
        assert not satisfies(doc, parse_query(".[B/@v = '1']"))
        assert satisfies(doc, parse_query(".[A/C/@v != '9']"))

    def test_attr_join(self, doc):
        # the two C nodes have different v values
        assert holds(parse_qualifier("**/C/@v != **/C/@v"), doc)
        assert holds(parse_qualifier("**/C/@v = **/C/@v"), doc)
        # within one subtree there is a single C: no unequal pair
        first_a = doc.root.children[0]
        assert not holds(parse_qualifier("**/C/@v != **/C/@v"), doc, first_a)

    def test_union_and_eps(self, doc):
        assert satisfies(doc, parse_query("Z | B"))
        assert evaluate(parse_query("."), doc) == frozenset({doc.root})

    def test_root_test(self, doc):
        assert holds(root_test(), doc, doc.root)
        assert not holds(root_test(), doc, doc.root.children[0])


class TestFragments:
    def test_features_detected(self):
        query = parse_query(".[**/C[@s = '7'] and not(R1/X)]")
        features = features_of(query)
        assert frag.Feature.DATA in features
        assert frag.Feature.NEGATION in features
        assert frag.Feature.DESCENDANT in features
        assert frag.Feature.PARENT not in features

    def test_fragment_membership(self):
        assert frag.CHILD_QUAL.contains(parse_query("*[B][C]"))
        assert not frag.CHILD_QUAL.contains(parse_query("*[not(B)]"))
        assert frag.CHILD_QUAL_NEG.contains(parse_query("*[not(B)]"))
        assert frag.SIBLING.contains(parse_query("A/>/</B"))
        assert not frag.DOWNWARD.contains(parse_query("A[B]"))

    def test_fragment_order(self):
        assert frag.CHILD_QUAL <= frag.POSITIVE
        assert frag.DOWNWARD <= frag.REC_NEG
        assert not (frag.UP_DATA_NEG <= frag.POSITIVE)

    def test_helpers(self):
        assert frag.is_positive(parse_query("A[B]"))
        assert not frag.is_positive(parse_query("A[not(B)]"))
        assert frag.uses_recursion(parse_query("**"))
        assert frag.uses_upward(parse_query("^*"))
        assert frag.uses_sibling(parse_query(">"))
        assert frag.uses_data(parse_query("A[@a = '1']"))


#: queries whose ASTs use every self-hashing node class
_CACHE_QUERIES = [
    "A[B/C or not(D)]/E | F",
    "**/X[@v = '1' and Y/@w != (Z | R)/@u]",
    ".[lab() = A]/^/B[not(C and D)]",
]


def _cached_tree(text: str) -> ast.Path:
    """A parsed query whose nodes all carry both caches."""
    query = parse_query(text)
    for node in query.walk():
        hash(node)
        features_of(node)
    return query


def _spawned_lookup(payload: bytes, text: str) -> tuple:
    """In a fresh ``spawn`` process (its own ``str`` hash salt): does the
    unpickled node hash like a fresh parse and find its dict entry?"""
    import pickle

    from repro.xpath import parse_query as parse

    node = pickle.loads(payload)
    fresh = parse(text)
    table = {node: "unpickled"}
    return hash(node) == hash(fresh), node == fresh, table.get(fresh)


class TestNodeCaches:
    """Composite nodes cache their structural hash, ``features_of``
    caches its result on the node; neither may leak into pickles or
    copies, nor change equality."""

    @pytest.mark.parametrize("text", _CACHE_QUERIES)
    def test_pickled_state_holds_no_cache_entries(self, text):
        import pickle

        query = _cached_tree(text)
        assert query._hash is not None and query._features is not None
        for node in query.walk():
            state = node.__reduce_ex__(pickle.HIGHEST_PROTOCOL)[2]
            assert not {"_hash", "_features"} & set(state or ())
        restored = pickle.loads(pickle.dumps(query))
        for node in restored.walk():
            assert node._hash is None and node._features is None
        assert restored == query and hash(restored) == hash(query)

    def test_unpickled_in_spawn_child_keys_like_fresh_parse(self):
        import multiprocessing
        import pickle

        payloads = [
            (pickle.dumps(_cached_tree(text)), text) for text in _CACHE_QUERIES
        ]
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(1) as pool:
            results = pool.starmap(_spawned_lookup, payloads)
        assert results == [(True, True, "unpickled")] * len(payloads)

    @pytest.mark.parametrize("text", _CACHE_QUERIES)
    def test_copies_hash_and_compare_like_fresh_parses(self, text):
        import copy
        import dataclasses

        query = _cached_tree(text)
        fresh = parse_query(text)
        for duplicate in (
            copy.copy(query), copy.deepcopy(query),
            dataclasses.replace(query),
        ):
            assert duplicate == fresh and fresh == duplicate
            assert hash(duplicate) == hash(fresh)
            assert {duplicate: 1}[fresh] == 1
            assert features_of(duplicate) == features_of(fresh)

    def test_hash_distinguishes_node_classes(self):
        left, right = ast.Label("A"), ast.Label("B")
        seq, union = ast.Seq(left, right), ast.Union(left, right)
        assert seq != union and hash(seq) != hash(union)
        assert len({seq, union, ast.Seq(left, right)}) == 2

    def test_cached_features_equal_uncached_walk_on_oracle_corpus(self):
        from repro.testing.oracle import build_corpus
        from repro.xpath.canonical import canonicalize

        for query, _dtd in build_corpus(seed=20250611, n_cases=300):
            for tree_ in (query, canonicalize(query)):
                for node in tree_.walk():
                    first = features_of(node)
                    assert node._features is first
                    assert features_of(node) is first
                    assert first == frag._walk_features(node)


class TestInverse:
    def test_inverse_axes(self):
        assert inverse(parse_query("*")) == parse_query("^")
        assert inverse(parse_query("**")) == parse_query("^*")
        assert inverse(parse_query(">")) == parse_query("<")

    def test_inverse_reverses_reachability(self, doc):
        for text in ["A/B", "**/C", "A/*", "A/B[C]", "A | B"]:
            query = parse_query(text)
            inverted = inverse(query)
            for target in evaluate(query, doc):
                back = evaluate(inverted, doc, target)
                assert doc.root in back, text

    def test_non_containment_query(self, doc):
        # A/B ⊆ */B : the non-containment query must be unsatisfiable on doc
        query = non_containment_query(parse_query("A/B"), parse_query("*/B"))
        assert not satisfies(doc, query)
        # */C ⊄ A/B : satisfiable witness exists
        query2 = non_containment_query(parse_query("*/*"), parse_query("A/B"))
        assert satisfies(doc, query2)


class TestRewrites:
    def test_qualifiers_to_upward_equivalent(self, doc):
        for text in ["A[B]", "A[B/C]", "*[B and C]", "A[B][B/C]"]:
            query = parse_query(text)
            try:
                rewritten = qualifiers_to_upward(query)
            except FragmentError:
                continue
            assert frag.CHILD_UP.contains(rewritten)
            assert satisfies(doc, query) == satisfies(doc, rewritten), text

    def test_qualifiers_to_upward_rejects_label_tests(self):
        with pytest.raises(FragmentError):
            qualifiers_to_upward(parse_query("A[lab() = B]"))

    def test_upward_to_qualifiers_equivalent(self, doc):
        for text in ["A/B/^", "A/B/^/^", "A/^/B", "*/^/*", "A/B/C/^/^/^"]:
            query = parse_query(text)
            result = upward_to_qualifiers(query)
            assert result.complete
            assert frag.CHILD_QUAL.contains(result.path)
            assert satisfies(doc, query) == satisfies(doc, result.path), text

    def test_upward_to_qualifiers_escaping(self, doc):
        result = upward_to_qualifiers(parse_query("^/A"))
        assert not result.complete
        result2 = upward_to_qualifiers(parse_query("A/^/^/B"))
        assert not result2.complete

    def test_roundtrip_both_ways(self, doc):
        query = parse_query("A[B/C][B]")
        upward = qualifiers_to_upward(query)
        back = upward_to_qualifiers(upward)
        assert back.complete
        assert satisfies(doc, back.path) == satisfies(doc, query)


class TestBuilder:
    def test_steps_power(self):
        assert str(steps("C", 3)) == "C/C/C"
        assert steps("C", 0) == ast.Empty()

    def test_boolean_query(self):
        query = boolean(q_not(ast.PathExists(label("A"))))
        assert str(query) == ".[not(A)]"

    def test_seq_drops_eps(self):
        assert str(seq(label("A"), ast.Empty(), label("B"))) == "A/B"
