"""Shared strategies and helpers for the test suite."""

from __future__ import annotations

from html.parser import HTMLParser

import numpy as np
from hypothesis import strategies as st

from ktae import Rollout, RolloutGroup, stats
from ktae.oracle import ContingencyTable

VOID_TAGS = {"meta", "br", "hr", "img", "link", "input"}


@st.composite
def contingency_tables(draw, max_cell=12, min_n=1):
    """Arbitrary non-negative 2x2 tables with total at least ``min_n``."""
    counts = [draw(st.integers(0, max_cell)) for _ in range(4)]
    if sum(counts) < min_n:
        counts[draw(st.integers(0, 3))] += min_n
    return ContingencyTable(*counts)


@st.composite
def rollout_groups(draw, min_g=2, max_g=8, max_len=12, vocab=14, graded=False):
    """Small random groups; rewards binary unless ``graded``."""
    g = draw(st.integers(min_g, max_g))
    rollouts = []
    for _ in range(g):
        length = draw(st.integers(1, max_len))
        tokens = tuple(draw(st.integers(0, vocab - 1)) for _ in range(length))
        if graded:
            reward = draw(st.floats(0.0, 1.0, allow_nan=False))
        else:
            reward = draw(st.sampled_from([0.0, 1.0]))
        rollouts.append(Rollout(tokens=tokens, reward=reward))
    return RolloutGroup(group_id="hyp", rollouts=tuple(rollouts))


def at_one(kernel, *args, **kwargs) -> float:
    """The value of an elementwise array kernel at one point, as a float.

    A ContingencyTable argument becomes the four one-element int64 cell
    arrays (a, b, c, d); any other positional argument becomes a one-element
    array. Keyword arguments are passed through unchanged.
    """
    columns = []
    for arg in args:
        if isinstance(arg, ContingencyTable):
            columns += [np.array([cell], dtype=np.int64) for cell in arg]
        else:
            columns.append(np.array([arg]))
    return float(kernel(*columns, **kwargs)[0])


def fisher_p(a, b, c, d, fisher_mode="point") -> np.ndarray:
    """stats.fisher_prob_array over tables of any margins: one call per
    margin (n_true, n_false) = (a + c, b + d), on that margin's tables."""
    p = np.empty(len(a))
    n_true, n_false = a + c, b + d
    for margin in set(zip(n_true.tolist(), n_false.tolist())):
        on = (n_true == margin[0]) & (n_false == margin[1])
        p[on] = stats.fisher_prob_array(*margin, a[on], b[on], fisher_mode)
    return p


def table_at(s, token: int) -> ContingencyTable:
    """The (a, b, c, d) table of ``token``'s row in a TokenStatsColumns."""
    i = s.index(token)
    return ContingencyTable(s.a.item(i), s.b.item(i), s.c.item(i), s.d.item(i))


def random_tables(rng: np.random.Generator, count: int, max_cell: int = 16):
    """Vectorized batch of random tables with total >= 1, as four arrays."""
    cells = rng.integers(0, max_cell + 1, size=(count, 4))
    empty = cells.sum(axis=1) == 0
    cells[empty, 0] = 1
    return cells[:, 0], cells[:, 1], cells[:, 2], cells[:, 3]


def random_group(rng: np.random.Generator, group_id: str, g_range=(2, 6), len_range=(3, 10), vocab=12):
    """One random binary-reward group from a numpy generator (fast path)."""
    g = int(rng.integers(g_range[0], g_range[1] + 1))
    rollouts = []
    for _ in range(g):
        length = int(rng.integers(len_range[0], len_range[1] + 1))
        tokens = tuple(rng.integers(0, vocab, size=length).tolist())
        rollouts.append(Rollout(tokens=tokens, reward=float(rng.integers(0, 2))))
    return RolloutGroup(group_id=group_id, rollouts=tuple(rollouts))


class SpanCollector(HTMLParser):
    """Checks tag nesting while collecting every span's attrs and text."""

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.stack: list[str] = []
        self.spans: list[dict] = []
        self._open_span: dict | None = None

    def handle_starttag(self, tag, attrs):
        if tag in VOID_TAGS:
            return
        self.stack.append(tag)
        if tag == "span":
            self._open_span = {**dict(attrs), "text": ""}

    def handle_endtag(self, tag):
        if tag in VOID_TAGS:
            return
        assert self.stack, f"closing </{tag}> with no open tag"
        top = self.stack.pop()
        assert top == tag, f"mismatched tags: <{top}> closed by </{tag}>"
        if tag == "span" and self._open_span is not None:
            self.spans.append(self._open_span)
            self._open_span = None

    def handle_data(self, data):
        if self._open_span is not None:
            self._open_span["text"] += data

    def finish(self):
        self.close()
        assert not self.stack, f"unclosed tags remain: {self.stack}"
        return self


def parse_spans(document: str) -> list[dict]:
    collector = SpanCollector()
    collector.feed(document)
    return collector.finish().spans
