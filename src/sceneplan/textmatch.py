"""Word-level matching of object categories inside free text.

Shared by step-text mention detection and route target resolution so both
use identical normalization: case-insensitive, whole-word, tolerant of
trailing plural "s"/"es", multi-word categories matched token by token.
Text and categories are split into words the same way (:func:`words_of`),
so a category such as "t-shirt" matches the text "t-shirt" as the words
"t", "shirt".
"""

from __future__ import annotations

import re
from collections.abc import Iterable

_WORD_RE = re.compile(r"[a-z0-9]+")


def words_of(text: str) -> list[str]:
    """Lowercase word tokens (runs of [a-z0-9]) in order of appearance."""
    return _WORD_RE.findall(text.lower())


def _singularize(token: str) -> set[str]:
    # A text token may stand for a category token with trailing "s"/"es".
    forms = {token}
    if token.endswith("es") and len(token) > 2:
        forms.add(token[:-2])
    if token.endswith("s") and len(token) > 1:
        forms.add(token[:-1])
    return forms


class CategoryMatcher:
    """A category set indexed for :func:`find_category_spans`.

    Categories are keyed by their first word; each bucket holds
    ``(-word count, name, remaining words)`` in ascending order, so the
    first entry of a bucket that matches is the longest, then
    lexicographically first, category starting with that word.  A second
    index by last word serves :func:`resolve_noun_phrase`'s head-noun
    fallback, and ``resolved`` keeps that function's answer for each noun
    phrase it has seen.  A category with no words is left out: it matches
    nowhere.  Build one per category set and reuse it
    (``SceneModel.category_matcher``).
    """

    def __init__(self, categories: Iterable[str]) -> None:
        by_first: dict[str, list] = {}
        by_last: dict[str, list[str]] = {}
        for name in set(categories):
            words = words_of(name)
            if not words:
                continue
            by_first.setdefault(words[0], []).append((-len(words), name, words[1:]))
            by_last.setdefault(words[-1], []).append(name)
        self.by_first = {word: sorted(bucket) for word, bucket in by_first.items()}
        self.by_last = by_last
        self.resolved: dict[str, str | None] = {}


def find_category_spans(text: str, matcher: CategoryMatcher) -> list[tuple[int, str]]:
    """All category occurrences in ``text`` as (start-token-position, category).

    Longer (more-word) categories win at a given position; the same position
    never yields two overlapping matches.  Result is ordered by position.
    A category with no tokens matches nowhere.
    """
    by_first = matcher.by_first
    forms = [_singularize(token) for token in words_of(text)]
    count = len(forms)
    spans: list[tuple[int, str]] = []
    pos = 0
    while pos < count:
        best = None
        for form in forms[pos]:
            # Each form has its own bucket: keep the best of their first hits.
            for size, name, rest in by_first.get(form, ()):
                end = pos + 1 + len(rest)
                if end <= count and all(
                    word in forms[pos + 1 + i] for i, word in enumerate(rest)
                ):
                    if best is None or (size, name) < best[:2]:
                        best = (size, name, end)
                    break
        if best is None:
            pos += 1
        else:
            spans.append((pos, best[1]))
            pos = best[2]
    return spans


def mentioned_categories(text: str, matcher: CategoryMatcher) -> set[str]:
    return {category for _, category in find_category_spans(text, matcher)}


def resolve_noun_phrase(noun_phrase: str, matcher: CategoryMatcher) -> str | None:
    """Best category named by a noun phrase, kept in ``matcher.resolved``.

    "the water kettle" resolves to "kettle", and a bare head noun reaches a
    multi-word category: "counter" resolves to "kitchen counter".
    """
    resolved = matcher.resolved
    if noun_phrase not in resolved:
        resolved[noun_phrase] = _resolve(noun_phrase, matcher)
    return resolved[noun_phrase]


def _resolve(noun_phrase: str, matcher: CategoryMatcher) -> str | None:
    spans = find_category_spans(noun_phrase, matcher)
    if spans:
        # Prefer the longest match anywhere in the phrase, then the latest
        # one (heads of English noun phrases come last).
        return max(spans, key=lambda s: (len(words_of(s[1])), s[0]))[1]
    # Fall back to head-noun matching; ties resolve lexicographically.
    tokens = words_of(noun_phrase)
    if not tokens:
        return None
    matches = [
        name for form in _singularize(tokens[-1]) for name in matcher.by_last.get(form, ())
    ]
    return min(matches) if matches else None
