"""Category mention detection and noun-phrase resolution."""

from __future__ import annotations

from sceneplan.textmatch import (
    find_category_spans,
    mentioned_categories,
    resolve_noun_phrase,
    token_matches,
    words_of,
)
from tests.conftest import run_python

KITCHEN_CATEGORIES = {
    "kitchen counter",
    "stove",
    "mug",
    "sink",
    "kettle",
    "refrigerator",
    "cabinet",
    "coffee machine",
    "trash can",
    "dining table",
    "chair",
}


class TestTokenization:
    def test_words_of_lowercases_and_splits_on_punctuation(self):
        assert words_of("Walk, to the Sink!") == ["walk", "to", "the", "sink"]

    def test_words_of_keeps_digits(self):
        assert words_of("turn 90 degrees") == ["turn", "90", "degrees"]

    def test_token_matches_accepts_plural_forms(self):
        assert token_matches("mugs", "mug")
        assert token_matches("boxes", "box")
        assert token_matches("mug", "mug")
        assert not token_matches("mug", "mugs")
        assert not token_matches("smug", "mug")


class TestCategorySpans:
    def test_multiword_category_beats_component_words(self):
        spans = find_category_spans(
            "wipe the kitchen counter near the stove", KITCHEN_CATEGORIES
        )
        assert spans == [(2, "kitchen counter"), (6, "stove")]

    def test_positions_are_token_indices(self):
        spans = find_category_spans("the mug is on the dining table", KITCHEN_CATEGORIES)
        assert spans == [(1, "mug"), (5, "dining table")]

    def test_plural_mention_detected(self):
        assert mentioned_categories("fetch two mugs", KITCHEN_CATEGORIES) == {"mug"}

    def test_no_partial_word_matches(self):
        assert mentioned_categories("unplug the smugly device", KITCHEN_CATEGORIES) == set()

    def test_repeated_category_listed_once_per_position(self):
        spans = find_category_spans("mug next to another mug", KITCHEN_CATEGORIES)
        assert [c for _, c in spans] == ["mug", "mug"]

    def test_category_without_tokens_matches_nowhere(self):
        # A token-less category that matched would match at every position
        # without advancing, so a regression hangs: run with a time limit.
        script = (
            "from sceneplan.textmatch import find_category_spans, resolve_noun_phrase\n"
            "print(find_category_spans('walk to the sink', {'sink', ' ', ''}))\n"
            "print(resolve_noun_phrase('the bowl', {'\\t'}))\n"
        )
        assert run_python(script, timeout=20.0).stdout.splitlines() == ["[(3, 'sink')]", "None"]


class TestNounPhraseResolution:
    def test_direct_category_wins(self):
        assert resolve_noun_phrase("the water kettle", KITCHEN_CATEGORIES) == "kettle"

    def test_head_noun_reaches_multiword_category(self):
        assert resolve_noun_phrase("counter", KITCHEN_CATEGORIES) == "kitchen counter"
        assert resolve_noun_phrase("the counter", KITCHEN_CATEGORIES) == "kitchen counter"

    def test_longest_match_preferred(self):
        assert (
            resolve_noun_phrase("the kitchen counter", KITCHEN_CATEGORIES)
            == "kitchen counter"
        )

    def test_head_position_breaks_length_ties(self):
        # Both categories appear; the later (head) mention wins.
        assert resolve_noun_phrase("mug on the chair", KITCHEN_CATEGORIES) == "chair"

    def test_unknown_phrase_returns_none(self):
        assert resolve_noun_phrase("the purple elephant", KITCHEN_CATEGORIES) is None

    def test_empty_phrase_returns_none(self):
        assert resolve_noun_phrase("  ", KITCHEN_CATEGORIES) is None

    def test_plural_head_noun(self):
        assert resolve_noun_phrase("the counters", KITCHEN_CATEGORIES) == "kitchen counter"
