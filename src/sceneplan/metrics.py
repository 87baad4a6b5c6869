"""Text-overlap metrics for plan evaluation: BLEU-1..4, ROUGE-L, METEOR, CIDEr.

Variant choices, stated because they change absolute scores:
  - BLEU is corpus-level with no smoothing; a zero precision at any order
    zeroes that order's score.
  - ROUGE-L is the LCS F-score with beta = 1.2 weighting recall, averaged
    over pairs.
  - METEOR runs exact and Porter-stem match stages only (no synonym or
    paraphrase tables); reports name the variant "METEOR-es".
  - CIDEr omits the CIDEr-D length penalty and uses
    idf = log(pair_count / (1 + document_frequency)) with one document per
    pair's reference set.

Everything here is a pure function; scoring the same pairs twice is
bit-identical.

Each corpus counts its n-grams once, for BLEU and CIDEr together, into an
``NgramTable`` keyed by integers.  ``evaluate_pairs`` scores a ``Corpus``,
which keeps its table only until scoring returns; ``bleu`` and ``cider``
given a plain list build the table for that one call.
"""

from __future__ import annotations

import math
import re
from collections import Counter, deque
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, count, repeat
from operator import add, mul

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


@dataclass(frozen=True)
class TokenizedPair:
    candidate: tuple[str, ...]
    references: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        if not self.references:
            raise ValueError("a pair needs at least one reference")


class NgramTable:
    """Every n-gram count that BLEU and CIDEr read, for one corpus of pairs.

    Each distinct token of the corpus gets a dense id from 1 to V, and an
    order-n gram's key is its ids read as base-(V + 1) digits, so the
    Counters hash small ints instead of tuples of strings.  Grams enter each
    Counter in position order; CIDEr's float sums follow it.
    """

    def __init__(self, pairs: Sequence[TokenizedPair]) -> None:
        texts = [text for pair in pairs for text in (pair.candidate, *pair.references)]
        ids = dict(zip(dict.fromkeys(chain.from_iterable(texts)), count(1)))
        base = len(ids) + 1
        # Per order, summed over the corpus: candidate grams, each capped at
        # its largest count in one reference, and all candidate grams.
        self.clipped = [0] * _MAX_ORDER
        self.total = [0] * _MAX_ORDER
        # Per order: how many pairs hold each gram in any of their references.
        self.document_frequency = [Counter() for _ in range(_MAX_ORDER)]
        # Per pair, per order: the candidate's Counter and its references'.
        self.term_frequency: list[list[tuple[Counter, tuple[Counter, ...]]]] = []
        for pair in pairs:
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
                for gram in compress(grams, map((1).__lt__, grams.values())):
                    most = max(ref.get(gram, 0) for ref in references)
                    if most > 1:
                        clipped += min(grams[gram], most) - 1
                self.clipped[order] += clipped
                self.total[order] += max(0, len(pair.candidate) - order)
            self.term_frequency.append(by_order)


class Corpus(tuple):
    """The pairs of one scoring run, with their ``NgramTable`` built on first use.

    ``evaluate_pairs`` hands one to every metric, so BLEU and CIDEr read one
    table, and the table goes when the corpus does.
    """

    @cached_property
    def ngram_table(self) -> NgramTable:
        return NgramTable(self)


def _ngram_table(pairs: Sequence[TokenizedPair]) -> NgramTable:
    return pairs.ngram_table if isinstance(pairs, Corpus) else NgramTable(pairs)


def pair_from_text(candidate: str, references: list[str] | tuple[str, ...]) -> TokenizedPair:
    return TokenizedPair(
        candidate=tuple(tokenize(candidate)),
        references=tuple(tuple(tokenize(r)) for r in references),
    )


@dataclass(frozen=True)
class MetricReport:
    bleu: tuple[float, float, float, float]
    rouge_l: float
    meteor: float
    cider: float
    pair_count: int

    def to_dict(self) -> dict:
        return {
            "bleu": list(self.bleu),
            "rouge_l": self.rouge_l,
            "meteor": self.meteor,
            "cider": self.cider,
            "pair_count": self.pair_count,
            "variants": {
                "bleu": "corpus-level, no smoothing",
                "rouge_l": f"LCS F-score, beta={ROUGE_BETA}",
                "meteor": "METEOR-es (exact + Porter stem stages)",
                "cider": "no length penalty, idf=log(N/(1+df))",
            },
        }


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


def bleu(pairs: Sequence[TokenizedPair], max_n: int) -> float:
    """Corpus BLEU with clipped modified precision and brevity penalty.

    Given a plain sequence of pairs, every call counts the n-grams of the
    whole corpus into a new :class:`NgramTable`.  Pass ``Corpus(pairs)`` to
    count them once for every BLEU order and :func:`cider`.
    """
    if not pairs:
        raise ValueError("bleu requires at least one pair")
    if not 1 <= max_n <= 4:
        raise ValueError("max_n must be in 1..4")
    table = _ngram_table(pairs)
    log_precision_sum = 0.0
    for order in range(max_n):
        clipped = table.clipped[order]
        total = table.total[order]
        if clipped == 0 or total == 0:
            return 0.0
        log_precision_sum += math.log(clipped / total)
    candidate_length = sum(len(p.candidate) for p in pairs)
    reference_length = 0
    for pair in pairs:
        # Closest reference length; ties go to the shorter reference.
        reference_length += min(
            (len(r) for r in pair.references),
            key=lambda length: (abs(length - len(pair.candidate)), length),
        )
    if candidate_length == 0:
        return 0.0
    brevity = math.exp(min(0.0, 1.0 - reference_length / candidate_length))
    return brevity * math.exp(log_precision_sum / max_n)


def lcs_length(a: tuple[str, ...], b: tuple[str, ...]) -> int:
    """Length of a longest common subsequence, one big-int step per token of ``a``.

    Bit-parallel LCS (Allison & Dix, 1986; Hyyrö, 2004): bit j of ``v`` is 0
    where the DP row steps up at column j of ``b``, so the LCS is the count
    of zero bits among the ``len(b)`` low bits.
    """
    masks: dict[str, int] = {}
    for j, token in enumerate(b):
        masks[token] = masks.get(token, 0) | (1 << j)
    full = (1 << len(b)) - 1
    v = full
    for token in a:
        m = masks.get(token)
        if m:
            u = v & m
            v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def _rouge_pair(candidate: tuple[str, ...], reference: tuple[str, ...]) -> float:
    if not candidate or not reference:
        return 0.0
    lcs = lcs_length(candidate, reference)
    recall = lcs / len(reference)
    precision = lcs / len(candidate)
    beta_sq = ROUGE_BETA * ROUGE_BETA
    denominator = recall + beta_sq * precision
    if denominator == 0:
        return 0.0
    return (1 + beta_sq) * recall * precision / denominator


def rouge_l(pairs: Sequence[TokenizedPair]) -> float:
    if not pairs:
        raise ValueError("rouge_l requires at least one pair")
    return sum(
        max(_rouge_pair(p.candidate, ref) for ref in p.references) for p in pairs
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
    alignment: list[tuple[int, int]] = []
    cand_left, ref_left = _match_stage(
        list(enumerate(candidate)), list(enumerate(reference)), alignment
    )
    if cand_left and ref_left:
        _match_stage(
            [(i, stem(token)) for i, token in cand_left],
            [(j, stem(token)) for j, token in ref_left],
            alignment,
        )
    alignment.sort()
    return alignment


def _match_stage(
    cand_keys: list[tuple[int, str]],
    ref_keys: list[tuple[int, str]],
    alignment: list[tuple[int, int]],
) -> tuple[list[tuple[int, str]], list[tuple[int, str]]]:
    """Match each candidate key to the lowest free reference position with that key.

    Takes and returns (position, key) lists; appends the matches to
    ``alignment`` and returns the candidate and reference entries left over.
    """
    free: dict[str, deque[int]] = {}
    for j, key in ref_keys:
        free.setdefault(key, deque()).append(j)
    cand_left = []
    taken = set()
    for i, key in cand_keys:
        positions = free.get(key)
        if positions:
            j = positions.popleft()
            alignment.append((i, j))
            taken.add(j)
        else:
            cand_left.append((i, key))
    return cand_left, [(j, key) for j, key in ref_keys if j not in taken]


def _chunk_count(alignment: list[tuple[int, int]]) -> int:
    chunks = 0
    previous: tuple[int, int] | None = None
    for ci, ri in alignment:
        if previous is None or ci != previous[0] + 1 or ri != previous[1] + 1:
            chunks += 1
        previous = (ci, ri)
    return chunks


def _meteor_pair(candidate: tuple[str, ...], reference: tuple[str, ...]) -> float:
    alignment = align_unigrams(candidate, reference)
    matches = len(alignment)
    if matches == 0:
        return 0.0
    precision = matches / len(candidate)
    recall = matches / len(reference)
    f_mean = 10 * precision * recall / (recall + 9 * precision)
    chunks = _chunk_count(alignment)
    penalty = METEOR_PENALTY_WEIGHT * (chunks / matches) ** METEOR_PENALTY_POWER
    return f_mean * (1 - penalty)


def meteor(pairs: Sequence[TokenizedPair]) -> float:
    if not pairs:
        raise ValueError("meteor requires at least one pair")
    return sum(
        max(_meteor_pair(p.candidate, ref) for ref in p.references) for p in pairs
    ) / len(pairs)


def cider(pairs: Sequence[TokenizedPair]) -> float:
    """TF-IDF n-gram cosine consensus, scaled by 10 and averaged over n = 1..4.

    Given a plain sequence of pairs, every call counts the n-grams of the
    whole corpus into a new :class:`NgramTable`.  Pass ``Corpus(pairs)`` to
    count them once for :func:`bleu` and CIDEr.
    """
    if len(pairs) < 2:
        raise ValueError("cider requires at least 2 pairs (idf needs a corpus)")
    table = _ngram_table(pairs)
    n_pairs = len(pairs)
    # A gram's idf depends only on its document frequency: one log per value.
    idf_of_df = [math.log(n_pairs / (1 + df)) for df in range(n_pairs + 1)]
    idf_by_n = [
        dict(zip(df, map(idf_of_df.__getitem__, df.values())))
        for df in table.document_frequency[:CIDER_MAX_N]
    ]
    # Float sums stay as they are (builtin sum() in gram order, += across
    # orders and pairs): sum() is compensated on Python >= 3.12, so another
    # form would move the last bits of the score there.
    total = 0.0
    for by_order in table.term_frequency:
        per_n = 0.0
        for idf, (candidate, references) in zip(idf_by_n, by_order):
            weights = list(map(mul, candidate.values(), map(idf.get, candidate, repeat(0.0))))
            norm = math.sqrt(sum(map(mul, weights, weights)))
            cosines = []
            for reference in references:
                # Every reference gram has a document frequency, hence an idf.
                ref_weights = list(map(mul, reference.values(), map(idf.__getitem__, reference)))
                ref_norm = math.sqrt(sum(map(mul, ref_weights, ref_weights)))
                if norm == 0 or ref_norm == 0:
                    cosines.append(0.0)
                    continue
                hits = list(map(reference.__contains__, candidate))
                shared = list(compress(candidate, hits))
                dot = sum(map(
                    mul,
                    compress(weights, hits),
                    map(mul, map(reference.__getitem__, shared), map(idf.__getitem__, shared)),
                ))
                cosines.append(dot / (norm * ref_norm))
            per_n += CIDER_SCALE * (sum(cosines) / len(references))
        total += per_n / CIDER_MAX_N
    return total / n_pairs


def evaluate_pairs(pairs: Sequence[TokenizedPair]) -> MetricReport:
    """Score all metric families over one corpus of pairs."""
    if not pairs:
        raise ValueError("evaluate_pairs requires at least one pair")
    corpus = Corpus(pairs)
    return MetricReport(
        bleu=tuple(bleu(corpus, n) for n in range(1, 5)),
        rouge_l=rouge_l(corpus),
        meteor=meteor(corpus),
        cider=cider(corpus),
        pair_count=len(corpus),
    )
