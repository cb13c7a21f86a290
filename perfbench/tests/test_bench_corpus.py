import collections

import corpus
from oracle import tokens


def test_same_seed_same_corpus():
    a = corpus.generate(5, 120)
    b = corpus.generate(5, 120)
    assert a.digest() == b.digest()
    assert a.exact_pairs == b.exact_pairs and a.near_pairs == b.near_pairs


def test_other_seed_other_corpus():
    assert corpus.generate(5, 120).digest() != corpus.generate(6, 120).digest()


def test_self_check_passes_and_catches_a_bad_page():
    c = corpus.generate(7, 200)
    assert corpus.self_check(c, 7, sample=200) == []
    texts = c.pages["text"].to_pylist()
    texts[3] = texts[3] + " extra"
    import pyarrow as pa

    c.pages = c.pages.set_column(c.pages.schema.get_field_index("text"), "text",
                                 pa.array(texts, pa.string()))
    assert any("differs" in p for p in corpus.self_check(c, 7, sample=200))


def test_planted_pairs_and_shape():
    c = corpus.generate(8, 600)
    texts = c.pages["text"].to_pylist()
    assert c.exact_pairs and c.near_pairs
    assert all(texts[i] == texts[j] for i, j in c.exact_pairs)
    assert all(texts[i] != texts[j] for i, j in c.near_pairs)
    langs = collections.Counter(c.pages["lang"].to_pylist())
    assert 0.4 < langs["en"] / 600 < 0.6
    html = b"".join(c.pages["html"].to_pylist())
    assert b"&amp;" in html and b"&#" in html and html.count(b"<p ") > 1200


def test_vocabulary_grows_with_size():
    def distinct(n):
        c = corpus.generate(9, n)
        return len({t for x in c.pages["text"].to_pylist() for t in tokens(x)})

    small, big = distinct(100), distinct(400)
    assert 2.0 < big / small < 4.0  # sublinear, Heaps-like


def test_words_are_unique_and_never_function_words():
    words = [corpus.word_of_rank(r) for r in range(5000)]
    assert len(set(words)) == len(words)
    assert not set(words) & corpus._RESERVED
