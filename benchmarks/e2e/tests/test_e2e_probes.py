"""The probe detector and read validation on hand-built neighbour lists."""

from probes import ProbeBook, pick_anchor, probe_visible, valid_read


def test_a_probe_shows_only_as_its_anchor_with_similarity_one():
    listed = [(7, 1.0), (3, 0.93), (9, 0.5)]
    assert probe_visible(listed, 7)
    assert probe_visible([(3, 0.93), (7, 1.0 - 1e-12)], 7)
    assert not probe_visible(listed, 3)                   # listed, but not identical
    assert not probe_visible([(7, 0.999999)], 7)          # close is not visible
    assert not probe_visible([(8, 1.0)], 7)               # someone else's twin
    assert not probe_visible([], 7)


def test_a_valid_read_is_sorted_and_at_most_k_long():
    assert valid_read([(1, 0.9), (2, 0.9), (3, 0.1)], k=3)
    assert valid_read([], k=3)
    assert not valid_read([(1, 0.1), (2, 0.9)], k=3)
    assert not valid_read([(1, 0.9), (2, 0.8), (3, 0.7), (4, 0.6)], k=3)


def test_the_anchor_is_the_best_neighbour_outside_the_probe_range():
    listed = [(98, 0.99), (5, 0.9), (97, 0.8)]
    assert pick_anchor(listed, range(96, 100)) == 5
    assert pick_anchor([(98, 0.9)], range(96, 100)) is None


def test_the_book_times_probes_and_protects_pending_anchors():
    book = ProbeBook(range(96, 100))
    first = book.next_user()
    assert first == 96
    book.open(first, anchor=97, submitted=10.0, tick=0)
    assert book.is_anchor(97) and not book.is_anchor(5)
    assert book.next_user() == 98            # 97 is a pending anchor: skipped
    assert not book.observe(first, [(97, 0.5)], now=10.4)
    assert book.observe(first, [(97, 1.0)], now=11.25)
    assert book.latencies == [1.25] and not book.pending()

    book.open(98, anchor=4, submitted=12.0, tick=5)
    book.expire(now=21.0, timeout=10.0)
    assert book.pending() == [(98, 4)]
    book.expire(now=22.5, timeout=10.0)
    assert book.failed == 1 and not book.pending()

    book.open(99, anchor=4, submitted=30.0, tick=9)
    book.close(tick=10, grace_ticks=2)       # too young to have shown: unresolved
    assert (book.failed, book.unresolved, book.submitted()) == (1, 1, 3)
