import pytest

from spans import Tracer, covered, self_times


def test_covered_unions_and_clips():
    assert covered([], 0, 10) == 0
    assert covered([(1, 3), (2, 5), (7, 8)], 0, 10) == pytest.approx(5)
    assert covered([(-5, 2), (9, 20)], 0, 10) == pytest.approx(3)
    assert covered([(4, 4), (6, 5)], 0, 10) == 0


def test_self_time_of_nested_spans():
    spans = [
        (1, 0, "request", 0.0, 10.0),
        (2, 1, "search", 1.0, 4.0),
        (3, 1, "lookup", 5.0, 9.0),
        (4, 2, "decode", 2.0, 3.0),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(3.0)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(4.0)
    assert own[4] == pytest.approx(1.0)
    # self times partition the root span
    assert sum(own.values()) == pytest.approx(10.0)


def test_overlapping_children_are_not_counted_twice():
    spans = [(1, 0, "a", 0.0, 10.0), (2, 1, "b", 1.0, 6.0), (3, 1, "c", 4.0, 8.0)]
    assert self_times(spans)[1] == pytest.approx(3.0)


def test_tracer_records_parents_and_request_ids():
    tr = Tracer()
    tr.enabled = True
    tr.set_request("r1")

    def inner():
        return 3

    inner = tr.wrap("inner", inner)

    def outer():
        return inner() + 1

    outer = tr.wrap("outer", outer, lambda a, k, out: {"out": out})
    assert outer() == 4
    spans = {s[2]: s for s in tr.dump()["spans"]}
    assert spans["inner"][1] == spans["outer"][0]
    assert spans["outer"][1] == 0
    assert spans["outer"][5] == "r1" and spans["outer"][6] == {"out": 4}
    tr.enabled = False
    outer()
    assert len(tr.dump()["spans"]) == 2
