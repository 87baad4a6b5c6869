"""Word-level matching of object categories inside free text.

Shared by step-text mention detection and route target resolution so both
use identical normalization: case-insensitive, whole-word, tolerant of
trailing plural "s"/"es", multi-word categories matched token by token.
"""

from __future__ import annotations

import re

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


def token_matches(text_token: str, category_token: str) -> bool:
    return category_token in _singularize(text_token)


def find_category_spans(text: str, categories: set[str]) -> list[tuple[int, str]]:
    """All category occurrences in ``text`` as (start-token-position, category).

    Longer (more-word) categories win at a given position; the same position
    never yields two overlapping matches.  Result is ordered by position.
    A category with no tokens matches nowhere.
    """
    tokens = words_of(text)
    by_len = sorted((c for c in categories if c.split()), key=lambda c: (-len(c.split()), c))
    spans: list[tuple[int, str]] = []
    pos = 0
    while pos < len(tokens):
        hit = None
        for category in by_len:
            cat_tokens = category.split()
            if pos + len(cat_tokens) > len(tokens):
                continue
            if all(
                token_matches(tokens[pos + i], cat_tokens[i])
                for i in range(len(cat_tokens))
            ):
                hit = category
                break
        if hit is None:
            pos += 1
        else:
            spans.append((pos, hit))
            pos += len(hit.split())
    return spans


def mentioned_categories(text: str, categories: set[str]) -> set[str]:
    return {category for _, category in find_category_spans(text, categories)}


def resolve_noun_phrase(noun_phrase: str, categories: set[str]) -> str | None:
    """Best category named by a noun phrase.

    "the water kettle" resolves to "kettle", and a bare head noun reaches a
    multi-word category: "counter" resolves to "kitchen counter".
    """
    spans = find_category_spans(noun_phrase, categories)
    if spans:
        # Prefer the longest match anywhere in the phrase, then the latest
        # one (heads of English noun phrases come last).
        return max(spans, key=lambda s: (len(s[1].split()), s[0]))[1]
    # Fall back to head-noun matching; ties resolve lexicographically.
    tokens = words_of(noun_phrase)
    if not tokens:
        return None
    head = tokens[-1]
    matches = sorted(c for c in categories if c.split() and token_matches(head, c.split()[-1]))
    return matches[0] if matches else None
