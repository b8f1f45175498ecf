"""The packed Thm 5.3 decider (`repro.sat.exptime_types`) and the
integer-packed kernels (`repro.sat.bits`) against independent references.

Three layers of evidence:

* **kernel properties** — packed word enumeration reproduces
  ``enumerate_words`` order exactly, the Glushkov longest-path equals the
  longest enumerated word, and the compiled closure program produces the
  same truth bits as a recursive reference evaluator (:class:`_Evaluator`,
  below) on random closures;
* **wide-schema verdicts** — on schemas with 64–256 element types every
  answer is checked by a route that shares no code with the decider: a
  SAT witness must conform and satisfy the query, and an UNSAT answer
  must survive the brute-force witness search within bounds that
  ``wide_dtd``'s tiny nullable trees fit;
* **engine integration** — the same questions answered through real
  pool lanes, and the plan telemetry's winner column.
"""

from __future__ import annotations

import random

import pytest

from repro.dtd.generator import random_dtd
from repro.engine import BatchEngine, Job, SchemaRegistry
from repro.errors import FragmentError, ReproError
from repro.obs.metrics import MetricsRegistry
from repro.sat.bits import (
    LruCache,
    cached_tables,
    enumerate_words_packed,
    longest_accepted_length,
)
from repro.sat.exptime_types import (
    _TRUE,
    METHOD,
    Check,
    Child,
    CompiledClosure,
    Desc,
    Done,
    TypesContext,
    _Closure,
    _residual_qual,
    first_cases,
    prepare_types,
    sat_exptime_types,
)
from repro.sat.telemetry import PlanTelemetry
from repro.regex import ast as rx
from repro.regex.ops import enumerate_words
from repro.testing.oracle import OracleBounds, find_witness
from repro.workloads import wide_dtd
from repro.workloads.queries import random_query
from repro.xmltree.validate import conforms
from repro.xpath import ast, parse_query
from repro.xpath.ast import Path, Qualifier
from repro.xpath.fragments import REC_NEG_DOWN_UNION
from repro.xpath.semantics import satisfies

#: the shared wide-schema query mix: negation-heavy closures with real
#: fixpoint work (labels exist in every wide_dtd(>=64) instance)
WIDE_QUERIES = (
    "**/T9[T28 and not(T29)]",
    "**/*[not(T13) and not(T14)]",
    "T1[not(T4/T13) and **/T16]",
    "**/T5[not(T16 or T17)]/T18",
    "T2[**/T25 and not(**/T26)]",
    "**/T10[not(T31)][not(T32)]",
    "T7/T22",
    "**/T12[not(T38 or T39)]",
)

#: their verdicts, read off the heap by hand (children of T{i} are
#: T{3i+1..3i+3}; i % 3 == 0 is a sequence of optionals, 1 an optional
#: choice, 2 a sequence of stars, so any subset of children can be
#: picked except under the choice nodes).  Only T7/T22 is UNSAT: the
#: query starts at the root T0, whose children are T1..T3.  Several SAT
#: witnesses are deeper than WIDE_BOUNDS reaches, so the bounded search
#: alone could not catch a SAT answered as UNSAT here.
WIDE_VERDICTS = {text: text != "T7/T22" for text in WIDE_QUERIES}

#: brute-force witness search bounds that wide_dtd fits: every
#: production is nullable, so small witnesses suffice
WIDE_BOUNDS = OracleBounds(
    max_depth=3, max_width=2, max_nodes=7, max_trees=4_000,
    words_per_type=3,
)


def _check_verdict(result, query, dtd) -> None:
    """Check a decider answer independently of the decider: a SAT
    witness must conform and satisfy, and an UNSAT answer must leave the
    bounded brute-force search without a witness."""
    assert result.satisfiable is not None, str(query)
    if result.satisfiable:
        assert conforms(result.witness, dtd), str(query)
        assert satisfies(result.witness, query), str(query)
    else:
        assert find_witness(query, dtd, WIDE_BOUNDS) is None, str(query)


class _Evaluator:
    """Reference truth of closure qualifiers at (label, fact set): the
    direct recursive reading of the closure, memoized per instance.  The
    compiled bit program must agree with it bit for bit."""

    def __init__(self, closure: _Closure, label: str, fact_bits: int):
        self.closure = closure
        self.label = label
        self.fact_bits = fact_bits
        self._truth_cache: dict[Qualifier, bool] = {}
        self._pe_cache: dict[Path, bool] = {}

    def has_fact(self, fact: tuple) -> bool:
        index = self.closure.fact_index.get(fact)
        if index is None:
            raise AssertionError(f"untracked fact {fact!r}")
        return bool(self.fact_bits >> index & 1)

    def truth(self, qualifier: Qualifier) -> bool:
        cached = self._truth_cache.get(qualifier)
        if cached is None:
            cached = self._truth(qualifier)
            self._truth_cache[qualifier] = cached
        return cached

    def _truth(self, qualifier: Qualifier) -> bool:
        if isinstance(qualifier, ast.PathExists):
            return self.path_exists(qualifier.path)
        if isinstance(qualifier, ast.LabelTest):
            return qualifier.name == self.label
        if isinstance(qualifier, ast.And):
            return self.truth(qualifier.left) and self.truth(qualifier.right)
        if isinstance(qualifier, ast.Or):
            return self.truth(qualifier.left) or self.truth(qualifier.right)
        if isinstance(qualifier, ast.Not):
            return not self.truth(qualifier.inner)
        raise FragmentError(f"unexpected qualifier {qualifier!r}")

    def path_exists(self, path: Path) -> bool:
        cached = self._pe_cache.get(path)
        if cached is None:
            cached = self._path_exists(path)
            self._pe_cache[path] = cached
        return cached

    def _path_exists(self, path: Path) -> bool:
        for case in first_cases(path):
            if isinstance(case, Done):
                return True
            if isinstance(case, Child):
                if self.has_fact(("c", case.label, _residual_qual(case.residual))):
                    return True
            elif isinstance(case, Desc):
                residual = _residual_qual(case.residual) or _TRUE
                if self.has_fact(("cd", residual)):
                    return True
            elif isinstance(case, Check):
                if self.truth(case.qualifier) and self.path_exists(case.residual):
                    return True
        return False


class TestLruCache:
    def test_evicts_least_recently_used(self):
        cache = LruCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1      # refresh a
        cache.put("c", 3)               # evicts b
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert len(cache) == 2

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            LruCache(capacity=0)


class TestPackedWordKernel:
    def test_packed_enumeration_matches_reference_order(self, rng):
        """Same words, same length-lexicographic order, on random content
        models — the property that makes the packed tables a drop-in for
        the bounded engine's truncated word tables."""
        for _ in range(150):
            dtd = random_dtd(rng, n_types=4)
            for name in sorted(dtd.element_types):
                regex = dtd.production(name)
                reference = []
                for word in enumerate_words(regex, 4):
                    reference.append(word)
                    if len(reference) >= 30:
                        break
                packed = []
                for word in enumerate_words_packed(cached_tables(regex), 4, 30):
                    packed.append(word)
                assert packed == reference, str(regex)

    def test_longest_length_matches_enumeration(self, rng):
        """On star-free content models the Glushkov longest path equals
        the longest enumerated word."""
        checked = 0
        for _ in range(150):
            dtd = random_dtd(rng, n_types=4, allow_star=False)
            for name in sorted(dtd.element_types):
                regex = dtd.production(name)
                longest = longest_accepted_length(cached_tables(regex))
                assert longest is not None, str(regex)
                observed = max(len(word) for word in enumerate_words(regex, longest + 2))
                assert longest == observed, str(regex)
                checked += 1
        assert checked > 0

    def test_cycle_reports_none(self):
        tables = cached_tables(rx.star(rx.sym("a")))
        assert longest_accepted_length(tables) is None
        nested = cached_tables(rx.concat(rx.sym("a"), rx.star(rx.sym("b"))))
        assert longest_accepted_length(nested) is None


class TestCompiledClosure:
    """The once-per-query compiled bit program against the recursive
    :class:`_Evaluator` reference, on random closures and random fact sets."""

    def _reference_contribution(self, closure, label, truths, dtruths):
        # the contribution rule, restated directly over the fact list
        bits = 0
        for index, fact in enumerate(closure.facts):
            if fact[0] == "c":
                _tag, fact_label, qual = fact
                if (fact_label is None or fact_label == label) and (
                    qual is None or qual in truths
                ):
                    bits |= 1 << index
            else:
                _tag, qual = fact
                if qual in dtruths:
                    bits |= 1 << index
        return bits

    def test_truth_bits_match_evaluator(self, rng):
        labels = ["A", "B", "C", "D"]
        label_index = {name: index for index, name in enumerate(labels)}
        sample = random.Random(20250807)
        for trial in range(120):
            query = random_query(rng, REC_NEG_DOWN_UNION, labels, max_depth=2)
            closure = _Closure()
            closure.collect(ast.PathExists(query))
            compiled = CompiledClosure(closure, label_index)
            assert compiled.qual_count == len(closure.quals)
            assert compiled.fact_count == len(closure.facts)
            dquals = sorted(
                closure.dquals, key=lambda qual: closure.quals.index(qual)
            )
            masks = {0, (1 << compiled.fact_count) - 1}
            target = min(12, 1 << compiled.fact_count)
            while len(masks) < target:
                masks.add(sample.getrandbits(compiled.fact_count))
            for label in labels:
                for fact_bits in masks:
                    evaluator = _Evaluator(closure, label, fact_bits)
                    truths = {q for q in closure.quals if evaluator.truth(q)}
                    dtruths = {
                        q for q in closure.dquals
                        if evaluator.truth(q) or evaluator.has_fact(("cd", q))
                    }
                    truth_bits, dtruth_bits = compiled.evaluate(
                        label_index[label], fact_bits
                    )
                    for position, qual in enumerate(closure.quals):
                        assert bool(truth_bits >> position & 1) == (qual in truths), (
                            str(query), label, fact_bits, str(qual)
                        )
                    for position, qual in enumerate(dquals):
                        assert bool(dtruth_bits >> position & 1) == (qual in dtruths)
                    expected = self._reference_contribution(
                        closure, label, truths, dtruths
                    )
                    packed = compiled.contribution(
                        label_index[label], truth_bits, dtruth_bits
                    )
                    assert packed == expected, (str(query), label, fact_bits)

    def test_unknown_label_test_is_false(self):
        query = parse_query(".[X and A]")
        closure = _Closure()
        closure.collect(ast.PathExists(query))
        compiled = CompiledClosure(closure, {"A": 0})  # X not in the schema
        truth_bits, _ = compiled.evaluate(0, 0)
        seed_position = 0  # the seed qualifier is always collected first
        assert not truth_bits >> seed_position & 1


class TestWideSchemaBackends:
    """The decider in the regime its packed representation exists for:
    schemas with 64–256 element types, every answer checked by the
    witness validator or the brute-force search."""

    @pytest.mark.parametrize("types", [64, 128, 256])
    def test_verdicts_bit_identical(self, types):
        dtd = wide_dtd(types)
        context = prepare_types(dtd)
        queries = WIDE_QUERIES if types < 256 else WIDE_QUERIES[:3]
        for text in queries:
            query = parse_query(text)
            result = sat_exptime_types(query, dtd, context=context)
            assert result.method == METHOD
            assert result.satisfiable == WIDE_VERDICTS[text], text
            _check_verdict(result, query, dtd)

    def test_random_wide_corpus_agrees(self, rng):
        dtd = wide_dtd(64)
        labels = [f"T{i}" for i in range(16)]
        context = prepare_types(dtd)
        decided = 0
        for trial in range(60):
            query = random_query(rng, REC_NEG_DOWN_UNION, labels, max_depth=2)
            try:
                result = sat_exptime_types(query, dtd, context=context)
            except ReproError:
                continue        # a decline beyond max_facts: no answer to check
            _check_verdict(result, query, dtd)
            decided += 1
        assert decided > 0

    def test_declines_at_max_facts(self):
        """Beyond ``max_facts`` the decider declines with a
        ``ReproError`` (the plan's fallback chain takes over); at the cap
        it still decides."""
        dtd = wide_dtd(16)
        query = parse_query("**/T1[T4 or T5]/T13 | **/T2[T7 and not(T8)]")
        facts = prepare_types(dtd).compiled(query).fact_count
        assert facts > 3
        with pytest.raises(ReproError, match="max_facts"):
            sat_exptime_types(query, dtd, max_facts=facts - 1)
        result = sat_exptime_types(query, dtd, max_facts=facts)
        _check_verdict(result, query, dtd)

    def test_context_is_reusable_across_queries(self):
        dtd = wide_dtd(32)
        context = prepare_types(dtd)
        assert isinstance(context, TypesContext)
        first = sat_exptime_types(parse_query("**/T9"), dtd, context=context)
        second = sat_exptime_types(parse_query("**/T9"), dtd, context=context)
        assert first.satisfiable == second.satisfiable is True
        # the compiled closure is memoized per query inside the context
        assert context.compiled(parse_query("**/T9")) is context.compiled(
            parse_query("**/T9")
        )


class TestPlanWinner:
    def test_plan_telemetry_surfaces_winner(self):
        class _FakePlan:
            telemetry_key = "s|neg,qual|exptime_types+nexptime"

            def to_dict(self):
                return {"decider": "exptime_types"}

        telemetry = PlanTelemetry()
        for _ in range(3):
            telemetry.record(_FakePlan(), 1.0, "sat", decider="nexptime")
        telemetry.record(_FakePlan(), 1.0, "sat", decider="exptime_types")
        stats = telemetry.get(_FakePlan.telemetry_key)
        assert stats.top_decider == "nexptime"
        assert "winner" in telemetry.table().splitlines()[0]
        summary_row = telemetry.summary()[_FakePlan.telemetry_key]
        assert summary_row["top_decider"] == "nexptime"
        registry = MetricsRegistry()
        telemetry.register_metrics(registry)
        rendered = registry.render_prometheus()
        assert (
            'repro_plan_answers_total{decider="nexptime",'
            'plan="s|neg,qual|exptime_types+nexptime"} 3'
        ) in rendered


class TestWideSchemaOracle:
    def test_wide_schema_cross_check(self, rng):
        """The differential oracle on a 64-type wide schema: the packed
        decider (registered, so included in every cross-check) must agree
        with decide() and with brute-force enumeration.  Shallow bounds —
        the wide_dtd heap has depth <= 2 under T0..T6, so small witnesses
        suffice."""
        from repro.testing.oracle import cross_check

        dtd = wide_dtd(64)
        labels = [f"T{i}" for i in range(7)]
        disagreements = []
        checked = 0
        types_verdicts = 0
        for _ in range(12):
            query = random_query(rng, REC_NEG_DOWN_UNION, labels, max_depth=2)
            outcome = cross_check(query, dtd, WIDE_BOUNDS)
            checked += outcome.checked
            types_verdicts += outcome.verdicts.get("exptime_types") is not None
            if outcome.disagreements:
                disagreements.append((str(query), outcome.disagreements))
        assert checked > 0
        assert types_verdicts > 0, "the types fixpoint never reached a verdict"
        assert not disagreements, disagreements


class TestPoolLanes:
    """The wide-schema questions answered through real pool lanes with
    plan grouping: the lanes' shared ``prepare`` context gives the same
    checked answers as a direct call."""

    def test_wide_queries_answer_on_lanes(self):
        dtd = wide_dtd(48)
        queries = [
            "**/T9[T28 and not(T29)]",
            "T1[not(T4/T13) and **/T16]",
            "**/T5[not(T16 or T17)]/T18",
            "**/T10[not(T31)][not(T32)]",
        ]
        reference = {}
        for text in queries:
            query = parse_query(text)
            result = sat_exptime_types(query, dtd)
            assert result.satisfiable == WIDE_VERDICTS[text], text
            _check_verdict(result, query, dtd)
            reference[text] = result.satisfiable

        registry = SchemaRegistry()
        registry.register("wide", dtd)
        engine = BatchEngine(registry=registry, workers=2)
        report = engine.run([
            Job(text, "wide", id=f"q{index}")
            for index, text in enumerate(queries)
        ])
        engine.close()
        assert report.stats.errors == 0
        assert report.stats.pool_decides > 0, "must exercise real pool lanes"
        for result in report.results:
            assert result.satisfiable == reference[result.query], result.query
            assert result.method == METHOD
        for key, stats in engine.telemetry.items():
            if "exptime_types" in key:
                assert stats.top_decider == "exptime_types"
