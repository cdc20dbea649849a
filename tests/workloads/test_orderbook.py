"""Order book generator tests."""

import pytest

from repro.runtime.events import StreamEvent
from repro.workloads.finance import finance_catalog
from repro.workloads.orderbook import OrderBookGenerator


class TestGenerator:
    def test_deterministic(self):
        a = list(OrderBookGenerator(seed=7).events(500))
        b = list(OrderBookGenerator(seed=7).events(500))
        assert a == b

    def test_seed_changes_stream(self):
        a = list(OrderBookGenerator(seed=7).events(200))
        b = list(OrderBookGenerator(seed=8).events(200))
        assert a != b

    def test_exact_event_count(self):
        assert len(list(OrderBookGenerator().events(777))) == 777

    def test_events_match_schema(self):
        catalog = finance_catalog()
        for event in OrderBookGenerator().events(300):
            assert isinstance(event, StreamEvent)
            relation = catalog.get(event.relation)
            assert len(event.values) == relation.arity
            t, order_id, broker, price, volume = event.values
            assert volume >= 1
            assert price > 0

    def test_deletions_always_valid(self):
        """Every delete refers to a currently standing order (a stream the
        delta engines can consume without bag underflow)."""
        live = {"bids": {}, "asks": {}}
        for event in OrderBookGenerator(seed=3).events(3000):
            book = live[event.relation]
            if event.sign == 1:
                book[event.values] = book.get(event.values, 0) + 1
            else:
                assert book.get(event.values, 0) > 0, event
                book[event.values] -= 1
                if book[event.values] == 0:
                    del book[event.values]

    def test_cancel_heavy_mix_keeps_book_bounded(self):
        generator = OrderBookGenerator(seed=5)
        for _ in generator.events(5000):
            pass
        depth = generator.depth()
        # With ~45% inserts vs ~55% removals+reinsertions the book stays
        # far smaller than the number of processed events.
        assert depth["bids"] + depth["asks"] < 2500

    def test_modify_emits_delete_then_insert_with_same_id(self):
        generator = OrderBookGenerator(seed=11, new_order_weight=0.3,
                                       cancel_weight=0.0, modify_weight=0.7)
        events = list(generator.events(100))
        pairs = [
            (events[i], events[i + 1])
            for i in range(len(events) - 1)
            if events[i].sign == -1 and events[i + 1].sign == 1
        ]
        assert pairs, "expected modification pairs"
        for removal, reinsert in pairs:
            if removal.relation == reinsert.relation:
                assert removal.values[1] == reinsert.values[1]  # same order id


class TestFinanceQueriesOnBook:
    @pytest.mark.parametrize("name", ["axf", "bsp", "psp"])
    def test_compiled_engine_matches_reeval_on_book_stream(self, name):
        from repro.baselines import make_engine
        from repro.workloads.finance import FINANCE_QUERIES, finance_catalog

        catalog = finance_catalog()
        sql = FINANCE_QUERIES[name]
        compiled = make_engine("dbtoaster", {"q": sql}, catalog)
        reference = make_engine("reeval_lazy", {"q": sql}, catalog)
        for event in OrderBookGenerator(seed=13).events(600):
            compiled.process(event)
            reference.process(event)
        got = sorted(compiled.results("q"), key=repr)
        expected = sorted(reference.results("q"), key=repr)
        assert got == expected

    @pytest.mark.parametrize("name", ["vwap", "mst"])
    def test_nested_queries_match_reeval(self, name):
        from repro.baselines import make_engine
        from repro.workloads.finance import FINANCE_QUERIES, finance_catalog

        catalog = finance_catalog()
        sql = FINANCE_QUERIES[name]
        compiled = make_engine("dbtoaster", {"q": sql}, catalog)
        reference = make_engine("reeval_lazy", {"q": sql}, catalog)
        for event in OrderBookGenerator(seed=17).events(250):
            compiled.process(event)
            reference.process(event)
        assert compiled.results("q") == reference.results("q")
