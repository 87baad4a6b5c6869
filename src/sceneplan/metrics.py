"""Text-overlap metrics for plan evaluation: BLEU-1..4, ROUGE-L, METEOR, CIDEr.

Variant choices, stated because they change absolute scores:
  - BLEU is corpus-level with no smoothing; a zero precision at any order
    zeroes that order's score.
  - ROUGE-L is the LCS F-score with beta = 1.2 weighting recall, averaged
    over pairs.
  - METEOR runs exact and Porter-stem match stages only (no synonym or
    paraphrase tables); reports name the variant "METEOR-es".  Each stage
    aligns greedily, left to right (see ``align_unigrams``), not by the
    fewest-chunks alignment, so its fragmentation penalty can be higher
    when tokens repeat.
  - CIDEr omits the CIDEr-D length penalty and CIDEr-D's clipping of each
    candidate n-gram count at the reference's count, and uses
    idf = log(pair_count / (1 + document_frequency)) with one document per
    pair's reference set.

Everything here is a pure function; scoring the same pairs twice is
bit-identical.

Each corpus counts its n-grams once, for BLEU and CIDEr together, into an
``NgramTable`` keyed by integers: ``bleu`` and ``cider`` read the table,
``rouge_l`` and ``meteor`` the pairs.  ``evaluate_pairs`` builds the table
once per call and keeps it only until scoring returns.

Within a pair, ``rouge_l`` and ``meteor`` each index the candidate once (LCS
bit masks; each token's ascending positions) and walk each reference once
against that index.  METEOR counts chunks by adjacency: the matches less
the links (i, j) whose (i + 1, j + 1) is also a link.
"""

from __future__ import annotations

import math
import re
from collections import Counter, namedtuple
from collections.abc import Iterable, Iterator, Sequence
from functools import reduce
from itertools import chain, compress, count, filterfalse, repeat
from operator import add, floordiv, mod, mul

from .porter import stem

ROUGE_BETA = 1.2
METEOR_PENALTY_WEIGHT = 0.5
METEOR_PENALTY_POWER = 3
CIDER_SCALE = 10.0
CIDER_MAX_N = 4

_NON_TOKEN = re.compile(r"[^a-z0-9\s]")
# N-gram orders counted once per corpus: BLEU-1..4 and CIDEr's n = 1..CIDER_MAX_N.
_MAX_ORDER = max(4, CIDER_MAX_N)


def tokenize(text: str) -> list[str]:
    """Lowercase, drop characters outside [a-z0-9], split on whitespace."""
    return _NON_TOKEN.sub("", text.lower()).split()


class TokenizedPair(namedtuple("TokenizedPair", "candidate references")):
    """A candidate's tokens and a nonempty tuple of its references' tokens."""

    __slots__ = ()

    def __new__(
        cls, candidate: tuple[str, ...], references: tuple[tuple[str, ...], ...]
    ) -> TokenizedPair:
        if not references:
            raise ValueError("a pair needs at least one reference")
        return super().__new__(cls, candidate, references)


class NgramTable:
    """Every n-gram count and length that BLEU and CIDEr read, for one corpus of pairs.

    Each distinct token of the corpus gets a dense id from 1 to V, and an
    order-n gram's key is its ids read as base-(V + 1) digits, so the
    Counters hash small ints instead of tuples of strings.  Grams enter each
    Counter in position order; CIDEr's float sums follow it.
    """

    def __init__(self, pairs: Sequence[TokenizedPair]) -> None:
        texts = [text for pair in pairs for text in (pair.candidate, *pair.references)]
        ids = dict(zip(dict.fromkeys(chain.from_iterable(texts)), count(1)))
        base = len(ids) + 1
        self.pair_count = len(pairs)
        # Summed over the corpus for BLEU's brevity penalty: candidate lengths,
        # and each pair's closest reference length, ties to the shorter.
        self.candidate_length = 0
        self.reference_length = 0
        # Per order, summed over the corpus: candidate grams, each capped at
        # its largest count in one reference, and all candidate grams.
        self.clipped = [0] * _MAX_ORDER
        self.total = [0] * _MAX_ORDER
        # Per order: how many pairs hold each gram in any of their references.
        self.document_frequency = [Counter() for _ in range(_MAX_ORDER)]
        # Per pair, per order: the candidate's Counter and its references'.
        self.term_frequency: list[list[tuple[Counter, tuple[Counter, ...]]]] = []
        for pair in pairs:
            length = len(pair.candidate)
            self.candidate_length += length
            self.reference_length += min(
                (len(r) for r in pair.references), key=lambda r: (abs(r - length), r)
            )
            candidate = _gram_counts(pair.candidate, ids, base)
            by_order = list(zip(
                candidate, zip(*(_gram_counts(ref, ids, base) for ref in pair.references))
            ))
            for order, (grams, references) in enumerate(by_order):
                in_references = set().union(*references)
                self.document_frequency[order].update(in_references)
                # A gram the candidate holds once clips to 1 if any reference
                # holds it; a repeated one clips to its largest count in a
                # single reference.
                clipped = len(in_references.intersection(grams))
                # Each repeated gram adds min(count, most) - 1 to that 1; a
                # gram that no reference holds counts as held once, adding 0.
                repeated = list(compress(grams, map((1).__lt__, grams.values())))
                in_each = (map(ref.get, repeated, repeat(1)) for ref in references)
                most = map(max, zip(*in_each))
                clipped += sum(map(min, map(grams.__getitem__, repeated), most)) - len(repeated)
                self.clipped[order] += clipped
                self.total[order] += max(0, length - order)
            self.term_frequency.append(by_order)


def pair_from_text(candidate: str, references: list[str] | tuple[str, ...]) -> TokenizedPair:
    return TokenizedPair(
        candidate=tuple(tokenize(candidate)),
        references=tuple(tuple(tokenize(r)) for r in references),
    )


def _gram_counts(tokens: tuple[str, ...], ids: dict[str, int], base: int) -> list[Counter]:
    """The Counter of each order's gram keys in ``tokens``, orders 1.._MAX_ORDER."""
    digits = list(map(ids.__getitem__, tokens))
    keys = digits
    counts = [Counter(keys)]
    for k in range(1, _MAX_ORDER):
        # The gram of order k + 1 at i extends the order-k gram at i by one digit.
        keys = list(map(add, map(mul, keys, repeat(base)), digits[k:]))
        counts.append(Counter(keys))
    return counts


def bleu(table: NgramTable, max_n: int) -> float:
    """BLEU over the table's corpus: clipped modified precision and brevity penalty."""
    if not table.pair_count:
        raise ValueError("bleu requires at least one pair")
    if not 1 <= max_n <= 4:
        raise ValueError("max_n must be in 1..4")
    log_precision_sum = 0.0
    for order in range(max_n):
        clipped = table.clipped[order]
        total = table.total[order]
        if clipped == 0 or total == 0:
            return 0.0
        log_precision_sum += math.log(clipped / total)
    if table.candidate_length == 0:
        return 0.0
    brevity = math.exp(min(0.0, 1.0 - table.reference_length / table.candidate_length))
    return brevity * math.exp(log_precision_sum / max_n)


def _lcs_masks(tokens: Sequence[str]) -> dict[str, int]:
    """Each distinct token's bit mask of its positions in ``tokens``."""
    masks: dict[str, int] = {}
    for j, token in enumerate(tokens):
        masks[token] = masks.get(token, 0) | (1 << j)
    return masks


def _lcs_scan(masks: dict[str, int], width: int, tokens: Sequence[str]) -> int:
    """LCS length of ``tokens`` against the ``width`` tokens whose masks are ``masks``.

    Bit-parallel LCS (Allison & Dix, 1986; Hyyrö, 2004), one big-int step
    per token scanned: bit j of ``v`` is 0 where the DP row steps up at
    column j of the masked sequence, so the LCS is the count of zero bits
    among the ``width`` low bits.
    """
    full = (1 << width) - 1
    v = full
    for token in tokens:
        m = masks.get(token)
        if m:
            u = v & m
            v = ((v + u) | (v - u)) & full
    return width - v.bit_count()


def lcs_length(a: tuple[str, ...], b: tuple[str, ...]) -> int:
    """Length of a longest common subsequence: masks over ``b``, one step per token of ``a``."""
    return _lcs_scan(_lcs_masks(b), len(b), a)


def _rouge_scores(
    candidate: tuple[str, ...], references: tuple[tuple[str, ...], ...]
) -> Iterator[float]:
    """The candidate's ROUGE-L F-score against each reference, masks built once."""
    width = len(candidate)
    # LCS length is symmetric, so the candidate's masks serve every reference.
    masks = _lcs_masks(candidate)
    beta_sq = ROUGE_BETA * ROUGE_BETA
    for reference in references:
        if not width or not reference:
            yield 0.0
            continue
        lcs = _lcs_scan(masks, width, reference)
        recall = lcs / len(reference)
        precision = lcs / width
        denominator = recall + beta_sq * precision
        yield (1 + beta_sq) * recall * precision / denominator if denominator else 0.0


def rouge_l(pairs: Sequence[TokenizedPair]) -> float:
    if not pairs:
        raise ValueError("rouge_l requires at least one pair")
    return reduce(
        add, (max(_rouge_scores(p.candidate, p.references)) for p in pairs), 0
    ) / len(pairs)


def align_unigrams(
    candidate: tuple[str, ...], reference: tuple[str, ...]
) -> list[tuple[int, int]]:
    """Greedy left-to-right alignment: exact match stage, then stem stage.

    Each candidate token takes the first still-unmatched reference token
    that matches at the current stage.  Returns (candidate_index,
    reference_index) pairs.

    Greedy tie-breaking always reaches the maximum match count, so
    precision and recall are exact; only the fragmentation penalty can
    differ from a chunk-minimal alignment, whose computation is
    exponential in repeated tokens.
    """
    width = len(candidate) + 1
    links = _align(candidate, _positions(candidate, range(len(candidate))), width, reference)
    return sorted((i, j) for j, i in map(divmod, links, repeat(width)))


def _positions(keys: Iterable[str], positions: Iterable[int]) -> dict[str, list[int]]:
    """Each key's positions, ascending, from ``keys`` read beside ``positions``."""
    index: dict[str, list[int]] = {}
    for i, key in zip(positions, keys):
        if key in index:
            index[key].append(i)
        else:
            index[key] = [i]
    return index


def _align(
    candidate: tuple[str, ...],
    index: dict[str, list[int]],
    width: int,
    reference: tuple[str, ...],
) -> list[int]:
    """``align_unigrams``'s links, unsorted, each (i, j) coded as j * width + i.

    ``index`` holds the candidate's token positions and ``width`` exceeds
    the candidate's length.  The lowest-free-position rule pairs the m-th
    candidate occurrence of a key with its m-th reference occurrence, so one
    walk of the reference per stage makes the same links.
    """
    links: list[int] = []
    rows = range(0, len(reference) * width, width)
    ref_left = _link(index, zip(rows, reference), links)
    if ref_left and len(links) < len(candidate):
        linked = set(map(mod, links, repeat(width)))
        cand_left = list(filterfalse(linked.__contains__, range(len(candidate))))
        stems = _positions(map(stem, map(candidate.__getitem__, cand_left)), cand_left)
        ref_stems = map(stem, map(reference.__getitem__, map(floordiv, ref_left, repeat(width))))
        _link(stems, zip(ref_left, ref_stems), links)
    return links


def _link(
    index: dict[str, list[int]], keyed: Iterable[tuple[int, str]], links: list[int]
) -> list[int]:
    """Give each (row, key) of ``keyed``, in order, its key's next position in ``index``.

    Appends row + position to ``links`` for each match and returns the rows
    that found no position left.
    """
    # Each key hands out its positions in order; a key the index lacks gets
    # the exhausted iterator.
    unused = dict(zip(index, map(iter, index.values())))
    none_left = iter(())
    left = []
    for row, key in keyed:
        i = next(unused.get(key, none_left), None)
        if i is None:
            left.append(row)
        else:
            links.append(row + i)
    return left


def _meteor_scores(
    candidate: tuple[str, ...], references: tuple[tuple[str, ...], ...]
) -> Iterator[float]:
    """The candidate's METEOR-es score against each reference, candidate indexed once."""
    index = _positions(candidate, range(len(candidate)))
    width = len(candidate) + 1
    for reference in references:
        links = _align(candidate, index, width, reference)
        matches = len(links)
        if matches == 0:
            yield 0.0
            continue
        precision = matches / len(candidate)
        recall = matches / len(reference)
        f_mean = 10 * precision * recall / (recall + 9 * precision)
        # Links sorted by candidate position fall into chunks, runs adjacent
        # in both texts, so each link (i, j) whose (i + 1, j + 1) is also a
        # link extends a chunk.  That link's code is width + 1 higher; as
        # i + 1 stays below width, no code of another row matches.
        chunks = matches - len(set(links).intersection(map(add, links, repeat(width + 1))))
        penalty = METEOR_PENALTY_WEIGHT * (chunks / matches) ** METEOR_PENALTY_POWER
        yield f_mean * (1 - penalty)


def meteor(pairs: Sequence[TokenizedPair]) -> float:
    if not pairs:
        raise ValueError("meteor requires at least one pair")
    return reduce(
        add, (max(_meteor_scores(p.candidate, p.references)) for p in pairs), 0
    ) / len(pairs)


def cider(table: NgramTable) -> float:
    """TF-IDF n-gram cosine consensus, scaled by 10 and averaged over n = 1..4."""
    n_pairs = table.pair_count
    if n_pairs < 2:
        raise ValueError("cider requires at least 2 pairs (idf needs a corpus)")
    # A gram's idf depends only on its document frequency: one log per value.
    idf_of_df = [math.log(n_pairs / (1 + df)) for df in range(n_pairs + 1)]
    idf_by_n = [
        dict(zip(df, map(idf_of_df.__getitem__, df.values())))
        for df in table.document_frequency[:CIDER_MAX_N]
    ]
    # Float sums are plain left folds in gram order (reduce, and += across
    # orders and pairs).  Builtin sum() of floats is compensated from Python
    # 3.12 on, so it would move the last bits of the score between versions.
    total = 0.0
    for by_order in table.term_frequency:
        per_n = 0.0
        for idf, (candidate, references) in zip(idf_by_n, by_order):
            weights = list(map(mul, candidate.values(), map(idf.get, candidate, repeat(0.0))))
            norm = math.sqrt(reduce(add, map(mul, weights, weights), 0))
            cosines = []
            for reference in references:
                # Every reference gram has a document frequency, hence an idf.
                ref_weights = list(map(mul, reference.values(), map(idf.__getitem__, reference)))
                ref_norm = math.sqrt(reduce(add, map(mul, ref_weights, ref_weights), 0))
                if norm == 0 or ref_norm == 0:
                    cosines.append(0.0)
                    continue
                hits = list(map(reference.__contains__, candidate))
                shared = list(compress(candidate, hits))
                dot = reduce(add, map(
                    mul,
                    compress(weights, hits),
                    map(mul, map(reference.__getitem__, shared), map(idf.__getitem__, shared)),
                ), 0)
                cosines.append(dot / (norm * ref_norm))
            per_n += CIDER_SCALE * (reduce(add, cosines, 0) / len(references))
        total += per_n / CIDER_MAX_N
    return total / n_pairs


def evaluate_pairs(pairs: Sequence[TokenizedPair]) -> dict:
    """Score all metric families over one corpus of pairs, with the variant names."""
    if not pairs:
        raise ValueError("evaluate_pairs requires at least one pair")
    table = NgramTable(pairs)
    return {
        "bleu": [bleu(table, n) for n in range(1, 5)],
        "rouge_l": rouge_l(pairs),
        "meteor": meteor(pairs),
        "cider": cider(table),
        "pair_count": len(pairs),
        "variants": {
            "bleu": "corpus-level, no smoothing",
            "rouge_l": f"LCS F-score, beta={ROUGE_BETA}",
            "meteor": "METEOR-es (exact + Porter stem stages)",
            "cider": "no length penalty, idf=log(N/(1+df))",
        },
    }
