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
"""

from __future__ import annotations

import math
import re
from collections import Counter, deque
from dataclasses import dataclass
from functools import cached_property

from .porter import stem

ROUGE_BETA = 1.2
METEOR_PENALTY_WEIGHT = 0.5
METEOR_PENALTY_POWER = 3
CIDER_SCALE = 10.0
CIDER_MAX_N = 4

_NON_TOKEN = re.compile(r"[^a-z0-9\s]")
# N-gram orders counted once per pair: BLEU-1..4 and CIDEr's n = 1..CIDER_MAX_N.
_ORDERS = range(1, max(4, CIDER_MAX_N) + 1)


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

    @cached_property
    def ngram_counts(self) -> tuple[NgramCounts, ...]:
        """The counts of each n-gram order, built on first use and kept with the pair.

        The cache lives in the instance ``__dict__``, outside the dataclass
        fields, so equality and hashing still see only the tokens.
        """
        orders = []
        for n in _ORDERS:
            candidate = _ngrams(self.candidate, n)
            references = tuple(_ngrams(ref, n) for ref in self.references)
            reference_max = _max_counts(references)
            orders.append(NgramCounts(
                candidate=candidate,
                references=references,
                clipped=sum(
                    min(count, reference_max.get(gram, 0)) for gram, count in candidate.items()
                ),
                total=sum(candidate.values()),
            ))
        return tuple(orders)


@dataclass(frozen=True)
class NgramCounts:
    """One n-gram order of a pair: every count BLEU and CIDEr read."""

    candidate: Counter
    references: tuple[Counter, ...]
    clipped: int  # candidate grams, each capped at its largest count in one reference
    total: int  # candidate grams


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


def _ngrams(tokens: tuple[str, ...], n: int) -> Counter:
    # Grams enter the Counter in position order; CIDEr's float sums follow it.
    return Counter(zip(*(tokens[k:] for k in range(n))))


def _max_counts(counters: tuple[Counter, ...]) -> dict[tuple, int]:
    """Each gram's largest count in any one of ``counters``."""
    merged = dict(counters[0])
    for counts in counters[1:]:
        for gram, count in counts.items():
            if count > merged.get(gram, 0):
                merged[gram] = count
    return merged


def bleu(pairs: list[TokenizedPair], max_n: int) -> float:
    """Corpus BLEU with clipped modified precision and brevity penalty."""
    if not pairs:
        raise ValueError("bleu requires at least one pair")
    if not 1 <= max_n <= 4:
        raise ValueError("max_n must be in 1..4")
    log_precision_sum = 0.0
    for order in range(max_n):
        clipped = sum(pair.ngram_counts[order].clipped for pair in pairs)
        total = sum(pair.ngram_counts[order].total for pair in pairs)
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


def rouge_l(pairs: list[TokenizedPair]) -> float:
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


def meteor(pairs: list[TokenizedPair]) -> float:
    if not pairs:
        raise ValueError("meteor requires at least one pair")
    return sum(
        max(_meteor_pair(p.candidate, ref) for ref in p.references) for p in pairs
    ) / len(pairs)


def _tfidf_vector(counts: Counter, idf: dict[tuple, float]) -> dict:
    return {gram: count * idf.get(gram, 0.0) for gram, count in counts.items()}


def _cosine(u: dict, v: dict) -> float:
    norm_u = math.sqrt(sum(x * x for x in u.values()))
    norm_v = math.sqrt(sum(x * x for x in v.values()))
    if norm_u == 0 or norm_v == 0:
        return 0.0
    dot = sum(x * v[g] for g, x in u.items() if g in v)
    return dot / (norm_u * norm_v)


def cider(pairs: list[TokenizedPair]) -> float:
    """TF-IDF n-gram cosine consensus, scaled by 10 and averaged over n = 1..4."""
    if len(pairs) < 2:
        raise ValueError("cider requires at least 2 pairs (idf needs a corpus)")
    n_pairs = len(pairs)
    idf_by_n: list[dict[tuple, float]] = []
    for order in range(CIDER_MAX_N):
        document_frequency: Counter = Counter()
        for pair in pairs:
            document_frequency.update(set().union(*pair.ngram_counts[order].references))
        idf_by_n.append(
            {g: math.log(n_pairs / (1 + df)) for g, df in document_frequency.items()}
        )
    total = 0.0
    for pair in pairs:
        per_n = 0.0
        for order in range(CIDER_MAX_N):
            idf = idf_by_n[order]
            counts = pair.ngram_counts[order]
            cand_vec = _tfidf_vector(counts.candidate, idf)
            similarity = sum(
                _cosine(cand_vec, _tfidf_vector(ref, idf)) for ref in counts.references
            ) / len(pair.references)
            per_n += CIDER_SCALE * similarity
        total += per_n / CIDER_MAX_N
    return total / n_pairs


def evaluate_pairs(pairs: list[TokenizedPair]) -> MetricReport:
    """Score all metric families over one corpus of pairs."""
    if not pairs:
        raise ValueError("evaluate_pairs requires at least one pair")
    return MetricReport(
        bleu=tuple(bleu(pairs, n) for n in range(1, 5)),
        rouge_l=rouge_l(pairs),
        meteor=meteor(pairs),
        cider=cider(pairs),
        pair_count=len(pairs),
    )
