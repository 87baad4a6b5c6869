"""Category mention detection and noun-phrase resolution."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from sceneplan.textmatch import (
    CategoryMatcher,
    find_category_spans,
    mentioned_categories,
    resolve_noun_phrase,
    words_of,
)
from tests.conftest import run_python
from tests.oracles import oracle_find_category_spans, oracle_resolve_noun_phrase

KITCHEN_MATCHER = CategoryMatcher({
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
})


class TestTokenization:
    def test_words_of_lowercases_and_splits_on_punctuation(self):
        assert words_of("Walk, to the Sink!") == ["walk", "to", "the", "sink"]

    def test_words_of_keeps_digits(self):
        assert words_of("turn 90 degrees") == ["turn", "90", "degrees"]

    def test_a_word_names_its_category_in_plural_forms(self):
        def names(word: str, category: str) -> bool:
            return mentioned_categories(word, CategoryMatcher({category})) == {category}

        assert names("mugs", "mug")
        assert names("boxes", "box")
        assert names("mug", "mug")
        assert not names("mug", "mugs")
        assert not names("smug", "mug")


class TestCategorySpans:
    def test_multiword_category_beats_component_words(self):
        spans = find_category_spans(
            "wipe the kitchen counter near the stove", KITCHEN_MATCHER
        )
        assert spans == [(2, "kitchen counter"), (6, "stove")]

    def test_positions_are_token_indices(self):
        spans = find_category_spans("the mug is on the dining table", KITCHEN_MATCHER)
        assert spans == [(1, "mug"), (5, "dining table")]

    def test_plural_mention_detected(self):
        assert mentioned_categories("fetch two mugs", KITCHEN_MATCHER) == {"mug"}

    def test_no_partial_word_matches(self):
        assert mentioned_categories("unplug the smugly device", KITCHEN_MATCHER) == set()

    def test_repeated_category_listed_once_per_position(self):
        spans = find_category_spans("mug next to another mug", KITCHEN_MATCHER)
        assert [c for _, c in spans] == ["mug", "mug"]

    def test_category_without_tokens_matches_nowhere(self):
        # A token-less category that matched would match at every position
        # without advancing, so a regression hangs: run with a time limit.
        script = (
            "from sceneplan.textmatch import CategoryMatcher, find_category_spans,"
            " resolve_noun_phrase\n"
            "print(find_category_spans('walk to the sink', CategoryMatcher({'sink', ' ', ''})))\n"
            "print(resolve_noun_phrase('the bowl', CategoryMatcher({'\\t'})))\n"
        )
        assert run_python(script, timeout=20.0).stdout.splitlines() == ["[(3, 'sink')]", "None"]


class TestNounPhraseResolution:
    def test_direct_category_wins(self):
        assert resolve_noun_phrase("the water kettle", KITCHEN_MATCHER) == "kettle"

    def test_head_noun_reaches_multiword_category(self):
        assert resolve_noun_phrase("counter", KITCHEN_MATCHER) == "kitchen counter"
        assert resolve_noun_phrase("the counter", KITCHEN_MATCHER) == "kitchen counter"

    def test_longest_match_preferred(self):
        assert (
            resolve_noun_phrase("the kitchen counter", KITCHEN_MATCHER)
            == "kitchen counter"
        )

    def test_head_position_breaks_length_ties(self):
        # Both categories appear; the later (head) mention wins.
        assert resolve_noun_phrase("mug on the chair", KITCHEN_MATCHER) == "chair"

    def test_unknown_phrase_returns_none(self):
        assert resolve_noun_phrase("the purple elephant", KITCHEN_MATCHER) is None

    def test_empty_phrase_returns_none(self):
        assert resolve_noun_phrase("  ", KITCHEN_MATCHER) is None

    def test_plural_head_noun(self):
        assert resolve_noun_phrase("the counters", KITCHEN_MATCHER) == "kitchen counter"


class TestPunctuatedCategories:
    def test_category_words_split_like_text_words(self):
        matcher = CategoryMatcher({"t-shirt", "shirt", "mug"})
        assert find_category_spans("Fold the T-shirts and the shirt.", matcher) == [
            (2, "t-shirt"), (6, "shirt"),
        ]
        assert resolve_noun_phrase("the t shirt", matcher) == "t-shirt"

    def test_category_with_no_ascii_word_matches_nowhere(self):
        assert find_category_spans("the \u00e9 caf\u00e9", CategoryMatcher({"\u00e9", "--"})) == []
        assert resolve_noun_phrase("\u00e9", CategoryMatcher({"\u00e9"})) is None


# Words that are plural forms of one another ("box"/"boxes", "e"/"es"/"s")
# or prefixes of one another, so random texts hit the plural rules, shared
# first and last words and overlapping multi-word categories often.
WORDS = ("a", "ab", "abs", "b", "bs", "box", "boxes", "e", "es", "s", "ses", "mug", "mugs", "0")
_word = st.one_of(st.sampled_from(WORDS), st.text("abes01", min_size=1, max_size=4))
# A category is one to three [a-z0-9] words joined by whitespace, or has no
# word at all; both scans must skip the latter.
_category = st.one_of(
    st.lists(_word, min_size=1, max_size=3).map(" ".join),
    st.sampled_from(("", " ", "\t", "a  b", " mug ")),
)


@st.composite
def _categories_and_text(draw):
    categories = draw(st.sets(_category, max_size=8))
    words = sorted(w for c in categories for w in c.split())
    # Text words come from the categories, plus "s"/"es", or from the pool.
    text_word = _word
    if words:
        plural = st.sampled_from(("", "s", "es"))
        text_word |= st.builds(str.__add__, st.sampled_from(words), plural)
    separator = st.sampled_from((" ", ", ", ". ", " and ", "-"))
    pieces = draw(st.lists(st.tuples(text_word, separator), max_size=10))
    text = "".join(word + sep for word, sep in pieces)
    return categories, draw(st.sampled_from((text, text.upper(), text.title())))


class TestMatcherAgainstOracle:
    @settings(max_examples=400, deadline=None)
    @given(case=_categories_and_text())
    def test_spans_and_noun_phrases_match_the_per_call_scan(self, case):
        categories, text = case
        matcher = CategoryMatcher(categories)
        spans = oracle_find_category_spans(text, categories)
        assert find_category_spans(text, matcher) == spans
        assert mentioned_categories(text, matcher) == {c for _, c in spans}
        assert resolve_noun_phrase(text, matcher) == oracle_resolve_noun_phrase(text, categories)

    def test_categories_keyed_on_different_forms_of_one_token_compete(self):
        # "boxes" looks up the buckets "boxes", "boxe" and "box"; the longest
        # match wins whichever bucket holds it, then the first name.
        for categories, text, expected in (
            ({"box", "boxes lid"}, "the boxes lid", [(1, "boxes lid")]),
            ({"box lid", "boxes"}, "the boxes lid", [(1, "box lid")]),
            ({"box", "boxe", "boxes"}, "boxes", [(0, "box")]),
        ):
            assert oracle_find_category_spans(text, categories) == expected
            assert find_category_spans(text, CategoryMatcher(categories)) == expected

    def test_head_noun_fallback_and_ties(self):
        categories = {"kitchen counter", "bar counter", "counter top", "box", "es"}
        matcher = CategoryMatcher(categories)
        for phrase in ("counters", "the counter", "boxes", "the es", "tops", "top counter x"):
            assert resolve_noun_phrase(phrase, matcher) == oracle_resolve_noun_phrase(
                phrase, categories
            ), phrase
        assert resolve_noun_phrase("counters", matcher) == "bar counter"
        assert resolve_noun_phrase("boxes", matcher) == "box"
