"""Porter stemming algorithm (Porter, 1980), used by the stem match stage.

Within each step only the longest matching suffix rule is considered; if
its condition fails, the step applies nothing.  Words of length <= 2 are
returned unchanged.
"""

from __future__ import annotations

from functools import lru_cache

_VOWELS = "aeiou"


def _is_consonant(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        return i == 0 or not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """Number of vowel-consonant sequences: the m in [C](VC)^m[V]."""
    count = 0
    prev_vowel = False
    for i in range(len(stem)):
        vowel = not _is_consonant(stem, i)
        if prev_vowel and not vowel:
            count += 1
        prev_vowel = vowel
    return count


def _has_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(stem: str) -> bool:
    return (
        len(stem) >= 2
        and stem[-1] == stem[-2]
        and _is_consonant(stem, len(stem) - 1)
    )


def _ends_cvc(stem: str) -> bool:
    """Consonant-vowel-consonant ending where the last consonant is not w, x, y."""
    if len(stem) < 3:
        return False
    return (
        _is_consonant(stem, len(stem) - 3)
        and not _is_consonant(stem, len(stem) - 2)
        and _is_consonant(stem, len(stem) - 1)
        and stem[-1] not in "wxy"
    )


def _apply_rules(word: str, rules: list[tuple[str, str, int | None]]) -> str:
    """Apply the longest-suffix rule whose measure condition holds.

    Each rule is (suffix, replacement, min_measure); min_measure None means
    unconditional.  ``rules`` is sorted longest suffix first and only the
    first suffix match is considered.
    """
    for suffix, replacement, min_measure in rules:
        if word.endswith(suffix):
            stem = word[: len(word) - len(suffix)]
            if min_measure is None or _measure(stem) > min_measure:
                return stem + replacement
            return word
    return word


# The rule tables are sorted longest suffix first once, here; the sort is
# stable, so rules with suffixes of one length keep their listed order.
_STEP2_RULES = sorted([
    ("ational", "ate", 0),
    ("tional", "tion", 0),
    ("enci", "ence", 0),
    ("anci", "ance", 0),
    ("izer", "ize", 0),
    # "bli" (for the original "abli") and "logi" are the two departures the
    # algorithm's reference implementation makes from the published paper.
    ("bli", "ble", 0),
    ("logi", "log", 0),
    ("alli", "al", 0),
    ("entli", "ent", 0),
    ("eli", "e", 0),
    ("ousli", "ous", 0),
    ("ization", "ize", 0),
    ("ation", "ate", 0),
    ("ator", "ate", 0),
    ("alism", "al", 0),
    ("iveness", "ive", 0),
    ("fulness", "ful", 0),
    ("ousness", "ous", 0),
    ("aliti", "al", 0),
    ("iviti", "ive", 0),
    ("biliti", "ble", 0),
], key=lambda r: -len(r[0]))

_STEP3_RULES = sorted([
    ("icate", "ic", 0),
    ("ative", "", 0),
    ("alize", "al", 0),
    ("iciti", "ic", 0),
    ("ical", "ic", 0),
    ("ful", "", 0),
    ("ness", "", 0),
], key=lambda r: -len(r[0]))

_STEP4_SUFFIXES = sorted((
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
), key=len, reverse=True)


def _step1a(word: str) -> str:
    if word.endswith("sses"):
        return word[:-2]
    if word.endswith("ies"):
        return word[:-2]
    if word.endswith("ss"):
        return word
    if word.endswith("s"):
        return word[:-1]
    return word


def _step1b(word: str) -> str:
    if word.endswith("eed"):
        stem = word[:-3]
        return stem + "ee" if _measure(stem) > 0 else word
    stripped = None
    if word.endswith("ed") and _has_vowel(word[:-2]):
        stripped = word[:-2]
    elif word.endswith("ing") and _has_vowel(word[:-3]):
        stripped = word[:-3]
    if stripped is None:
        return word
    if stripped.endswith(("at", "bl", "iz")):
        return stripped + "e"
    if _ends_double_consonant(stripped) and stripped[-1] not in "lsz":
        return stripped[:-1]
    if _measure(stripped) == 1 and _ends_cvc(stripped):
        return stripped + "e"
    return stripped


def _step1c(word: str) -> str:
    if word.endswith("y") and _has_vowel(word[:-1]):
        return word[:-1] + "i"
    return word


def _step4(word: str) -> str:
    for suffix in _STEP4_SUFFIXES:
        if word.endswith(suffix):
            stem = word[: len(word) - len(suffix)]
            if _measure(stem) <= 1:
                return word
            if suffix == "ion" and stem[-1:] not in ("s", "t"):
                return word
            return stem
    return word


def _step5a(word: str) -> str:
    if word.endswith("e"):
        stem = word[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            return stem
    return word


def _step5b(word: str) -> str:
    if (
        _measure(word) > 1
        and _ends_double_consonant(word)
        and word.endswith("l")
    ):
        return word[:-1]
    return word


# Bounded: a corpus repeats a small vocabulary, and an unbounded cache would
# grow with every distinct word a long-lived caller ever stems.
@lru_cache(maxsize=4096)
def stem(word: str) -> str:
    """Stem one lowercase word."""
    if len(word) <= 2:
        return word
    word = _step1a(word)
    word = _step1b(word)
    word = _step1c(word)
    word = _apply_rules(word, _STEP2_RULES)
    word = _apply_rules(word, _STEP3_RULES)
    word = _step4(word)
    word = _step5a(word)
    word = _step5b(word)
    return word
