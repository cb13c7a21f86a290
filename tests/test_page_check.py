"""One page check for every top-k operator: a negative ``k`` or
``offset`` is a ValueError on both layouts, the NRT and the federated
searchers, and ``k=0`` is an empty page.  (A negative ``k`` used to
reach ``topk_select``'s ``[:k]`` slice and return every hit but the
last.)"""

from __future__ import annotations

import pyarrow as pa
import pytest

import ray.data as rd

from refimage_ray.config import EngineConfig
from refimage_ray.index.docpart import DocPartSearcher, build_doc_partitioned
from refimage_ray.query.engine import LocalSearcher
from refimage_ray.query.multi import MultiSearcher
from refimage_ray.query.nrt import DeltaSearcher

# operator → call(searcher, k, offset); UNPAGED operators take no offset
PAGED = {
    "search": lambda s, k, o: s.search("the data join", k=k, offset=o),
    **{f"search_expanded({kind})":
       lambda s, k, o, kind=kind, probe=probe: s.search_expanded(
           kind, probe, k=k, offset=o)
       for kind, probe in (("prefix", "dat"), ("fuzzy", "data"),
                           ("wildcard", "d?t*"), ("regex", "da.*"))},
    "search_phrase": lambda s, k, o: s.search_phrase("the data", k=k,
                                                     offset=o),
    "search_phrase_prefix": lambda s, k, o: s.search_phrase_prefix(
        "the dat", k=k, offset=o),
    "search_near": lambda s, k, o: s.search_near("data the", 5, k=k,
                                                 offset=o),
}
UNPAGED = {
    "search_rescore": lambda s, k: s.search_rescore("the data", k=k),
    "search_weighted": lambda s, k: s.search_weighted(
        [("the", 1.0), ("data", 2.0)], k=k),
}
# operators a searcher answers only with structures it lacks (text or
# positions for verification): still refused on a bad page, but not
# run with k=0
NO_ANSWER = {
    "multi": {"search_phrase", "search_phrase_prefix", "search_near",
              "search_rescore"},
}


@pytest.fixture(scope="module")
def searchers(built_index, tiny_docs, tmp_path_factory):
    term_dir = built_index[0]
    doc_dir = str(tmp_path_factory.mktemp("page_docpart") / "doc")
    build_doc_partitioned(
        rd.from_arrow(tiny_docs), doc_dir,
        EngineConfig(num_shards=4, salt_buckets=2, store_positions=True),
        num_doc_shards=4,
    )
    delta = DeltaSearcher(term_dir)
    delta.add(pa.table({"doc_id": pa.array([10**12], pa.int64()),
                        "text": ["the data join spark"]}))
    return {
        "local": LocalSearcher(term_dir),
        "docpart": DocPartSearcher(doc_dir),
        "delta": delta,
        "multi": MultiSearcher([term_dir]),
    }


@pytest.mark.parametrize("name", ["local", "docpart", "delta", "multi"])
def test_every_paged_operator_refuses_a_negative_page(searchers, name):
    s = searchers[name]
    for op, call in PAGED.items():
        with pytest.raises(ValueError, match="k must be a non-negative int"):
            call(s, -1, 0)
        with pytest.raises(ValueError,
                           match="offset must be a non-negative int"):
            call(s, 10, -1)
        if op not in NO_ANSWER.get(name, ()):
            assert call(s, 0, 0) == [], op
            assert call(s, 0, 3) == [], op
    for op, call in UNPAGED.items():
        if not hasattr(s, op):  # the docpart layout has no search_weighted
            continue
        with pytest.raises(ValueError, match="k must be a non-negative int"):
            call(s, -1)
        if op not in NO_ANSWER.get(name, ()):
            assert call(s, 0) == [], op


def test_search_many_refuses_a_negative_k(ray_session, built_index,
                                          searchers):
    from refimage_ray.index.docpart import DistributedDocPartSearcher
    from refimage_ray.query.engine import DistributedSearcher

    dist = DistributedSearcher(built_index[0], num_actors=1)
    dpart = DistributedDocPartSearcher(searchers["docpart"].index_dir,
                                       num_actors=1)
    for s in (dist, dpart):
        with pytest.raises(ValueError, match="k must be a non-negative int"):
            s.search_many(["the data join"], k=-1)
        assert s.search_many(["the data join", "spark"], k=0) == [[], []]
