"""Standalone HTML heatmaps of per-token values for one group.

Each token is wrapped in a span shaded green (positive key-token-value) or
red (negative), with opacity linear in |value| normalized by the group's
largest |value|; zero-valued tokens stay unshaded. Rollouts are listed with
their reward and rollout-level advantage. The document embeds all styling,
so it opens anywhere with no external assets.
"""

from __future__ import annotations

import html
import math

from .core import InvalidGroup, RolloutGroup
from .records import AdvantageRecord, RecordError

# Recovered key-token-values are capped where the logistic saturates in
# float64; beyond this the delta no longer distinguishes magnitudes anyway.
_KTV_CAP = 40.0

_GREEN = "34,139,34"
_RED = "205,38,38"

_PAGE = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>{title}</title>
<style>
body {{ font-family: system-ui, sans-serif; margin: 2rem; background: #fafafa; color: #222; }}
h1 {{ font-size: 1.2rem; }}
.legend {{ margin-bottom: 1.5rem; font-size: 0.9rem; color: #444; }}
.swatch {{ display: inline-block; width: 0.9em; height: 0.9em; vertical-align: -0.1em; border-radius: 2px; }}
.rollout {{ background: #fff; border: 1px solid #ddd; border-radius: 6px; padding: 0.8rem 1rem; margin-bottom: 1rem; }}
.meta {{ font-size: 0.85rem; color: #555; margin-bottom: 0.5rem; }}
.tokens {{ line-height: 1.9; word-wrap: break-word; }}
.tok {{ padding: 0.1em 0.15em; margin: 0 1px; border-radius: 3px; }}
</style>
</head>
<body>
<h1>{title}</h1>
<div class="legend">
<span class="swatch" style="background-color:rgba({green},0.8)"></span> positive association &nbsp;
<span class="swatch" style="background-color:rgba({red},0.8)"></span> negative association &nbsp;
(shade intensity is |key-token-value| relative to the group maximum)
</div>
{rollouts}
</body>
</html>
"""

_ROLLOUT = """<div class="rollout">
<div class="meta">rollout {index} &middot; reward {reward:g} &middot; rollout advantage {advantage:+.4f}</div>
<div class="tokens">{tokens}</div>
</div>
"""


def _logit(delta: float) -> float:
    """Invert sigmoid(x) - 0.5 back to x, capped at the saturation range."""
    if delta >= 0.5:
        return _KTV_CAP
    if delta <= -0.5:
        return -_KTV_CAP
    value = math.log((0.5 + delta) / (0.5 - delta))
    return max(-_KTV_CAP, min(_KTV_CAP, value))


def token_values(group: RolloutGroup, record: AdvantageRecord) -> dict[int, float]:
    """Per-token-type shading value: the key-token-value when the record
    carries stats, otherwise recovered from the per-position delta."""
    if record.token_stats is not None:
        return {tok: float(entry.get("ktv", 0.0)) for tok, entry in record.token_stats.items()}
    values: dict[int, float] = {}
    for rollout, row, base in zip(group.rollouts, record.token_advantages, record.rollout_advantages):
        for token, adv in zip(rollout.tokens, row):
            if token not in values:
                values[token] = _logit(adv - base)
    return values


def render_group_html(group: RolloutGroup, record: AdvantageRecord) -> str:
    """Render one group's heatmap to a standalone HTML document."""
    if any(r.texts is None for r in group.rollouts):
        raise InvalidGroup(f"group {group.group_id!r} carries no display texts")
    if not all(isinstance(text, str) for r in group.rollouts for text in r.texts):
        raise InvalidGroup(f"group {group.group_id!r} has a display text that is not a string")
    if len(record.token_advantages) != group.size or any(
        len(row) != len(r.tokens) for row, r in zip(record.token_advantages, group.rollouts)
    ):
        raise RecordError(f"advantage record shape does not match group {group.group_id!r}")
    values = token_values(group, record)
    vmax = max((abs(v) for v in values.values()), default=0.0)
    sections = []
    for i, rollout in enumerate(group.rollouts):
        spans = []
        for token, text in zip(rollout.tokens, rollout.texts):
            spans.append(_span(text, token, values.get(token, 0.0), vmax))
        sections.append(
            _ROLLOUT.format(
                index=i,
                reward=rollout.reward,
                advantage=record.rollout_advantages[i],
                tokens="".join(spans),
            )
        )
    title = f"Token advantage heatmap &mdash; {html.escape(group.group_id)}"
    return _PAGE.format(title=title, green=_GREEN, red=_RED, rollouts="".join(sections))


def _span(text: str, token: int, value: float, vmax: float) -> str:
    escaped = html.escape(text)
    if value == 0.0 or vmax == 0.0:
        return f'<span class="tok zero" title="token {token}">{escaped}</span>'
    color = _GREEN if value > 0 else _RED
    cls = "pos" if value > 0 else "neg"
    alpha = abs(value) / vmax
    return (
        f'<span class="tok {cls}" style="background-color:rgba({color},{alpha:.4f})" '
        f'title="token {token} &middot; value {value:.4g}">{escaped}</span>'
    )
