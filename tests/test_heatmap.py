import numpy as np
import pytest

from ktae import InvalidGroup, Rollout, RolloutGroup, compute_advantages
from ktae.advantage import sigmoid_shift
from ktae.heatmap import _logit, render_group_html, token_values
from ktae.records import RecordError, advantage_record_line, parse_advantage_record

from conftest import parse_spans


def planted_group():
    data = [
        ((10, 11, 70, 12), 1.0),
        ((11, 70, 13, 10), 1.0),
        ((10, 80, 14, 11), 0.0),
    ]
    rollouts = tuple(
        Rollout(tokens=toks, reward=r, texts=tuple(f"w{t}" for t in toks)) for toks, r in data
    )
    return RolloutGroup("demo", rollouts)


def record_for(group, include_stats):
    matrix = compute_advantages(group)
    return parse_advantage_record(advantage_record_line(group.group_id, matrix, include_stats))


class TestTokenValues:
    def test_prefers_explicit_stats(self):
        group = planted_group()
        record = record_for(group, include_stats=True)
        values = token_values(group, record)
        assert values[70] > 0
        assert values[80] < 0
        assert values[10] == 0.0  # present in every rollout

    def test_recovers_values_from_deltas_without_stats(self):
        group = planted_group()
        with_stats = token_values(group, record_for(group, True))
        recovered = token_values(group, record_for(group, False))
        assert set(recovered) == set(with_stats)
        for token, value in with_stats.items():
            if abs(value) < 30:  # inside the invertible range of the logistic
                assert recovered[token] == pytest.approx(value, rel=1e-6, abs=1e-9)
            else:  # saturation zone: only the sign and a large magnitude survive
                assert np.sign(recovered[token]) == np.sign(value)
                assert 30.0 <= abs(recovered[token]) <= 40.0

    def test_logit_inverts_the_sigmoid_shift(self):
        # cancellation in 0.5 - delta costs precision as |x| grows
        for x in (-20.0, -3.0, -1e-3, 0.0, 2.5, 25.0):
            delta = float(sigmoid_shift(np.array([x]))[0])
            assert _logit(delta) == pytest.approx(x, rel=1e-3, abs=1e-9)
        for x in (-8.0, -0.25, 1.0, 6.0):
            delta = float(sigmoid_shift(np.array([x]))[0])
            assert _logit(delta) == pytest.approx(x, rel=1e-12, abs=1e-12)

    def test_logit_saturates_instead_of_overflowing(self):
        assert _logit(0.5) == 40.0
        assert _logit(-0.5) == -40.0


class TestRenderGroupHtml:
    def test_missing_texts_is_an_error(self):
        bare = RolloutGroup(
            "g", (Rollout(tokens=(1, 2), reward=1.0), Rollout(tokens=(2,), reward=0.0))
        )
        with pytest.raises(InvalidGroup, match="group 'g' carries no display texts"):
            render_group_html(bare, record_for(bare, True))

    def test_non_string_texts_are_an_error(self):
        group = RolloutGroup(
            "g", (Rollout(tokens=(1, 2), reward=1.0, texts=("a", 2)), Rollout(tokens=(2,), reward=0.0, texts=("b",)))
        )
        with pytest.raises(InvalidGroup, match="group 'g' has a display text that is not a string"):
            render_group_html(group, record_for(group, True))

    def test_shape_mismatch_is_an_error(self):
        group = planted_group()
        record = record_for(group, True)
        record.token_advantages[0] = record.token_advantages[0][:-1]
        with pytest.raises(RecordError):
            render_group_html(group, record)

    def test_document_is_well_formed_and_shades_by_sign(self):
        group = planted_group()
        document = render_group_html(group, record_for(group, True))
        spans = [s for s in parse_spans(document) if "tok" in s.get("class", "")]
        by_text = {}
        for span in spans:
            by_text.setdefault(span["text"], []).append(span)
        for span in by_text["w70"]:
            assert "pos" in span["class"] and "background-color:rgba(34,139,34" in span["style"]
        for span in by_text["w80"]:
            assert "neg" in span["class"] and "background-color:rgba(205,38,38" in span["style"]
        for span in by_text["w10"]:
            assert "zero" in span["class"] and "style" not in span

    def test_all_zero_values_leave_every_span_unshaded(self):
        rollouts = tuple(
            Rollout(tokens=(1, 2), reward=float(i), texts=("a", "b")) for i in range(2)
        )
        group = RolloutGroup("flat", rollouts)
        document = render_group_html(group, record_for(group, True))
        spans = [s for s in parse_spans(document) if "tok" in s.get("class", "")]
        assert spans, "expected token spans"
        assert all("zero" in s["class"] for s in spans)

    def test_intensity_is_normalized_by_the_group_maximum(self):
        group = planted_group()
        document = render_group_html(group, record_for(group, True))
        spans = [s for s in parse_spans(document) if "style" in s and "tok" in s.get("class", "")]
        alphas = [float(s["style"].rsplit(",", 1)[1].rstrip(")")) for s in spans]
        assert max(alphas) == pytest.approx(1.0, abs=1e-4)
        assert all(0.0 < a <= 1.0 + 1e-9 for a in alphas)

    def test_rollout_metadata_is_listed(self):
        group = planted_group()
        document = render_group_html(group, record_for(group, True))
        assert "rollout 0" in document
        assert "reward 1" in document and "reward 0" in document
        assert "rollout advantage" in document
