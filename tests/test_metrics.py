"""Text metrics: pinned examples, invariants, and oracle agreement."""

from __future__ import annotations

import json
import math
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sceneplan import metrics
from sceneplan.metrics import (
    NgramTable,
    TokenizedPair,
    align_unigrams,
    bleu,
    cider,
    evaluate_pairs,
    lcs_length,
    meteor,
    pair_from_text,
    rouge_l,
    tokenize,
)
from sceneplan.porter import stem
from tests.conftest import FIXTURES
from tests.oracles import (
    _gram_counts,
    oracle_bleu,
    oracle_cider,
    oracle_greedy_alignment,
    oracle_lcs,
    oracle_meteor,
    oracle_rouge_l,
    oracle_tokens,
)

GOLDEN = json.loads((FIXTURES / "golden_corpus.json").read_text(encoding="utf-8"))
GOLDEN_PAIRS = [pair_from_text(e["candidate"], e["references"]) for e in GOLDEN["pairs"]]
EXPECTED = GOLDEN["expected"]


# Several words share each stem ("turn", "turned", "turns", "turning").
ALIGNMENT_VOCAB = [
    "turn", "turned", "turns", "turning", "walk", "walked", "walking",
    "the", "to", "sink", "sinks", "relational", "relate", "mug",
]


def _pair(candidate: str, *references: str) -> TokenizedPair:
    return pair_from_text(candidate, list(references))


def _random_corpus(seed: int, max_len: int = 7) -> list[TokenizedPair]:
    rng = random.Random(seed)
    vocab = ["walk", "to", "the", "sink", "stove", "mug", "turn", "left"]
    pairs = []
    for _ in range(rng.randint(2, 5)):
        cand = " ".join(rng.choice(vocab) for _ in range(rng.randint(4, max_len)))
        refs = [
            " ".join(rng.choice(vocab) for _ in range(rng.randint(4, max_len)))
            for _ in range(rng.randint(1, 2))
        ]
        pairs.append(pair_from_text(cand, refs))
    return pairs


class TestTokenize:
    def test_lowercases_and_strips_punctuation(self):
        assert tokenize("Walk, to the Sink!") == ["walk", "to", "the", "sink"]

    def test_keeps_digits(self):
        assert tokenize("turn 180 degrees") == ["turn", "180", "degrees"]

    def test_idempotent_on_its_own_output(self):
        tokens = tokenize("Step 1: Walk to the stove. [END]")
        assert tokenize(" ".join(tokens)) == tokens

    def test_matches_character_oracle(self):
        for text in (
            "Step 1: Walk to the stove. [END]",
            "Don't stop; keep going!",
            "A    lot\tof   whitespace",
            "",
        ):
            assert tokenize(text) == oracle_tokens(text)


class TestPinnedExamples:
    def test_bleu1_clipping(self):
        pair = _pair("the the the the", "the cat sat down")
        assert bleu(NgramTable([pair]), 1) == pytest.approx(0.25, abs=1e-12)

    def test_rouge_two_thirds(self):
        assert rouge_l([_pair("a b c", "a x c")]) == pytest.approx(2 / 3, abs=1e-12)

    def test_meteor_transposition_penalty(self):
        # "b a" vs "a b": 2 matches in 2 chunks, penalty 0.5.
        assert meteor([_pair("b a", "a b")]) == pytest.approx(0.5, abs=1e-12)

    def test_meteor_identity_formula(self):
        text = "walk to the stove"
        length = 4
        expected = 1.0 - 0.5 / length**3
        assert meteor([_pair(text, text)]) == pytest.approx(expected, abs=1e-12)


class TestKnownAnswers:
    """Worked examples from the metrics' own papers; each expected value is theirs."""

    def test_bleu1_clips_each_word_to_its_most_in_one_reference(self):
        # Papineni et al. 2002, "BLEU", section 2.1: "the" occurs twice in
        # reference 1 and once in reference 2, so the modified unigram
        # precision is 2/7.  Both references have at most 7 words, so the
        # brevity penalty is 1.
        pair = _pair(
            "the the the the the the the", "The cat is on the mat", "There is a cat on the mat"
        )
        assert bleu(NgramTable([pair]), 1) == pytest.approx(2 / 7, rel=1e-12)

    def test_lcs_counts_in_sequence_words_only(self):
        # Lin 2004, "ROUGE", section 3.1: against "police killed the gunman",
        # "police kill the gunman" shares an LCS of 3 words, "the gunman kill
        # police" one of 2, so ROUGE-L is 3/4 and 2/4.
        reference = tuple(tokenize("police killed the gunman"))
        assert lcs_length(tuple(tokenize("police kill the gunman")), reference) == 3
        assert lcs_length(tuple(tokenize("the gunman kill police")), reference) == 2
        # Precision equals recall in both, so the F-score is that ratio for any beta.
        assert rouge_l([_pair("police kill the gunman", "police killed the gunman")]) == (
            pytest.approx(3 / 4, abs=1e-12)
        )
        assert rouge_l([_pair("the gunman kill police", "police killed the gunman")]) == (
            pytest.approx(2 / 4, abs=1e-12)
        )

    def test_meteor_fragmentation_penalty_of_the_two_chunk_example(self):
        # Banerjee & Lavie 2005, "METEOR", section 2: "the president spoke to
        # the audience" against "the president then spoke to the audience"
        # aligns in two chunks, "the president" and "spoke to the audience".
        # By hand from the paper's equations, with m = 6 matched unigrams,
        # P = 6/6 and R = 6/7:
        #   Fmean   = 10PR / (R + 9P) = (60/7) / (69/7) = 20/23
        #   Penalty = 0.5 * (chunks / m)**3 = 0.5 * (2/6)**3 = 1/54
        #   Score   = Fmean * (1 - Penalty) = 20/23 * 53/54 = 530/621
        pair = _pair(
            "the president spoke to the audience", "the president then spoke to the audience"
        )
        assert align_unigrams(pair.candidate, pair.references[0]) == [
            (0, 0), (1, 1), (2, 3), (3, 4), (4, 5), (5, 6)
        ]
        assert meteor([pair]) == pytest.approx(530 / 621, rel=1e-12)

    def test_cider_of_two_pairs_worked_by_hand(self):
        # Vedantam et al. 2015, "CIDEr", equations 1-3, with this module's idf
        # variant idf = log(N / (1 + df)), N = 2 pairs, df = how many pairs'
        # reference sets hold the n-gram.  Every candidate n-gram is in some
        # reference.  The term-frequency normalization of equation 1 scales a
        # whole vector, so it cancels in the cosine.
        #   df: mug 2, tea 2, "mug tea" 2; "tea tea", "tea mug" and both
        #   trigrams 1.  idf: L = log(2/3) for the first three, log(2/2) = 0
        #   for the rest.
        #   n = 1: each candidate is (mug L, tea L), each reference
        #     (mug L, tea 2L): cosine = 3L^2 / (sqrt(2)|L| * sqrt(5)|L|) = 3/sqrt(10).
        #   n = 2: each candidate is ("mug tea" L), each reference holds it
        #     once at L and a gram of weight 0: cosine = L^2 / (|L| * |L|) = 1.
        #   n = 3, 4: the candidates have no such grams: cosine 0.
        #   Per pair: 10 * (3/sqrt(10) + 1 + 0 + 0) / 4 = 2.5 + 0.75 * sqrt(10),
        #   and so is the mean over the two pairs.
        pairs = [_pair("mug tea", "mug tea tea"), _pair("mug tea", "tea mug tea")]
        assert cider(NgramTable(pairs)) == pytest.approx(2.5 + 0.75 * math.sqrt(10), rel=1e-12)


class TestCorpusInvariants:
    IDENTITY = [
        _pair("walk to the stove", "walk to the stove"),
        _pair("turn left at the sink", "turn left at the sink"),
        _pair("pick up the red mug", "pick up the red mug"),
    ]
    DISJOINT = [
        _pair("alpha beta gamma delta", "one two three four"),
        _pair("epsilon zeta eta theta", "five six seven eight"),
    ]

    def test_identity_corpus_maxima(self):
        for n in range(1, 5):
            assert bleu(NgramTable(self.IDENTITY), n) == 1.0
        assert rouge_l(self.IDENTITY) == 1.0
        assert cider(NgramTable(self.IDENTITY)) == pytest.approx(10.0, abs=1e-9)

    def test_disjoint_corpus_scores_zero(self):
        for n in range(1, 5):
            assert bleu(NgramTable(self.DISJOINT), n) == 0.0
        assert rouge_l(self.DISJOINT) == 0.0
        assert meteor(self.DISJOINT) == 0.0
        assert cider(NgramTable(self.DISJOINT)) == 0.0

    def test_pair_order_does_not_change_corpus_scores(self):
        pairs = list(GOLDEN_PAIRS)
        shuffled = list(pairs)
        random.Random(7).shuffle(shuffled)
        table, shuffled_table = NgramTable(pairs), NgramTable(shuffled)
        assert bleu(shuffled_table, 4) == pytest.approx(bleu(table, 4), abs=1e-15)
        assert rouge_l(shuffled) == pytest.approx(rouge_l(pairs), abs=1e-15)
        assert meteor(shuffled) == pytest.approx(meteor(pairs), abs=1e-15)
        assert cider(shuffled_table) == pytest.approx(cider(table), abs=1e-15)

    def test_brevity_penalty_uses_closest_reference_ties_shorter(self):
        # Candidate of length 2; references of lengths 3 and 5: closest is 3.
        pair = _pair("a b", "a b c", "a b c d e")
        expected = math.exp(1 - 3 / 2) * 1.0  # unigram precision is 1
        assert bleu(NgramTable([pair]), 1) == pytest.approx(expected, abs=1e-12)
        # Equidistant references (1 and 3) around length 2: the shorter wins,
        # so no penalty applies.
        tie = _pair("a b", "a", "a b c")
        assert bleu(NgramTable([tie]), 1) == pytest.approx(1.0, abs=1e-12)

    def test_multi_reference_takes_best_match(self):
        pair = _pair("walk to the stove", "turn around", "walk to the stove")
        assert rouge_l([pair]) == 1.0
        assert meteor([pair]) == pytest.approx(1.0 - 0.5 / 64, abs=1e-12)


class TestOracleAgreement:
    def test_golden_corpus_matches_frozen_values(self):
        report = evaluate_pairs(GOLDEN_PAIRS)
        for got, want in zip(report["bleu"], EXPECTED["bleu"]):
            assert got == pytest.approx(want, abs=1e-9)
        assert report["rouge_l"] == pytest.approx(EXPECTED["rouge_l"], abs=1e-9)
        assert report["meteor"] == pytest.approx(EXPECTED["meteor"], abs=1e-9)
        assert report["cider"] == pytest.approx(EXPECTED["cider"], abs=1e-9)

    def test_golden_corpus_is_bit_identical(self, monkeypatch):
        pairs = [pair_from_text(e["candidate"], e["references"]) for e in GOLDEN["pairs"]]
        tables = []

        def cider_keeping_a_weakref(table):
            tables.append(weakref.ref(table))
            return cider(table)

        monkeypatch.setattr(metrics, "cider", cider_keeping_a_weakref)
        report = evaluate_pairs(pairs)
        assert report["bleu"] == EXPECTED["bleu"]
        assert report["rouge_l"] == EXPECTED["rouge_l"]
        assert report["meteor"] == EXPECTED["meteor"]
        assert report["cider"] == EXPECTED["cider"]
        # The corpus's n-gram table is freed when scoring returns, and
        # nothing is left on the pairs, which still equal and hash like
        # fresh ones.
        assert len(tables) == 1 and tables[0]() is None
        for pair, entry in zip(pairs, GOLDEN["pairs"]):
            assert not hasattr(pair, "__dict__")
            assert pair._fields == ("candidate", "references")
            fresh = pair_from_text(entry["candidate"], entry["references"])
            assert pair == fresh
            assert hash(pair) == hash(fresh)

    def test_evaluate_pairs_builds_one_ngram_table(self, monkeypatch):
        built = []
        read = []

        class CountingTable(NgramTable):
            def __init__(self, pairs):
                built.append(len(pairs))
                super().__init__(pairs)

        def bleu_recording_its_table(table, max_n):
            read.append(table)
            return bleu(table, max_n)

        def cider_recording_its_table(table):
            read.append(table)
            return cider(table)

        monkeypatch.setattr(metrics, "NgramTable", CountingTable)
        monkeypatch.setattr(metrics, "bleu", bleu_recording_its_table)
        monkeypatch.setattr(metrics, "cider", cider_recording_its_table)
        report = evaluate_pairs(GOLDEN_PAIRS)
        # One table for the corpus, read by every BLEU order and CIDEr.
        assert built == [len(GOLDEN_PAIRS)]
        assert len(read) == 5 and all(table is read[0] for table in read)
        assert report["bleu"] == EXPECTED["bleu"]
        assert report["cider"] == EXPECTED["cider"]

    def test_lcs_matches_recursive_oracle(self):
        rng = random.Random(11)
        vocab = ["a", "b", "c", "d"]
        for _ in range(30):
            a = tuple(rng.choice(vocab) for _ in range(rng.randint(0, 9)))
            b = tuple(rng.choice(vocab) for _ in range(rng.randint(0, 9)))
            assert lcs_length(a, b) == oracle_lcs(a, b)

    # Past 64 reference tokens the bit vector spans several machine words.
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(data=st.data(), vocab_size=st.integers(2, 5))
    def test_lcs_matches_recursive_oracle_on_long_inputs(self, data, vocab_size):
        def tokens() -> tuple[str, ...]:
            # The length is drawn first: hypothesis alone keeps lists short.
            n = data.draw(st.integers(0, 150))
            words = st.sampled_from("abcde"[:vocab_size])
            return tuple(data.draw(st.lists(words, min_size=n, max_size=n)))

        a, b = tokens(), tokens()
        assert lcs_length(a, b) == oracle_lcs(a, b)

    # Inflections of one stem and repeated tokens make the stem stage and
    # the lowest-free-position rule matter.
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(
        corpus=st.lists(
            st.tuples(
                st.lists(st.sampled_from(ALIGNMENT_VOCAB), max_size=30),
                st.lists(st.sampled_from(ALIGNMENT_VOCAB), max_size=30),
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_alignment_matches_rescanning_greedy_oracle(self, corpus):
        for cand, ref in corpus:
            assert align_unigrams(tuple(cand), tuple(ref)) == oracle_greedy_alignment(
                cand, ref, stem
            )

    # BLEU and CIDEr count grams under integer keys: the ids of a gram's
    # tokens read as base-(V + 1) digits.  A colliding key would merge two
    # grams and move both scores off the oracles.  Every token stems to
    # itself and to no other token's stem, so renaming cannot change what
    # METEOR's stem stage matches.
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        data=st.data(),
        vocab_size=st.integers(1, 6),
        # About one case in ten: each costs about 1 s.
        large_vocabulary=st.integers(0, 9).map(lambda k: k == 9),
    )
    def test_integer_gram_keys_match_oracles_and_ignore_token_names(
        self, data, vocab_size, large_vocabulary
    ):
        words = [f"w{i}" for i in range(vocab_size)]

        def text() -> tuple[str, ...]:
            n = data.draw(st.integers(0, 10))
            return tuple(data.draw(st.lists(st.sampled_from(words), min_size=n, max_size=n)))

        pairs = [
            TokenizedPair(text(), tuple(text() for _ in range(data.draw(st.integers(1, 4)))))
            for _ in range(data.draw(st.integers(2, 5)))
        ]
        renaming = dict(zip(words, (f"v{i}" for i in data.draw(st.permutations(range(vocab_size))))))
        if large_vocabulary:
            # 2**15 + 1 filler words take the first ids, so the other words'
            # ids pass 2**15 and their 4-gram keys pass 2**60.  The candidate
            # is empty and the short reference sets BLEU's reference length.
            filler = tuple(f"f{i}" for i in range(2**15 + 1))
            pairs.insert(0, TokenizedPair((), (filler, pairs[0].references[0])))
            renaming.update((word, "g" + word[1:]) for word in filler)

        renamed = [
            TokenizedPair(
                tuple(renaming[t] for t in p.candidate),
                tuple(tuple(renaming[t] for t in ref) for ref in p.references),
            )
            for p in pairs
        ]
        report = evaluate_pairs(pairs)
        assert evaluate_pairs(renamed) == report
        cands = [list(p.candidate) for p in pairs]
        refs = [[list(r) for r in p.references] for p in pairs]
        for n in range(1, 5):
            assert report["bleu"][n - 1] == pytest.approx(oracle_bleu(cands, refs, n), abs=1e-9)
        assert report["cider"] == pytest.approx(oracle_cider(cands, refs), abs=1e-9)

    def test_random_corpora_match_oracles(self):
        for seed in range(8):
            pairs = _random_corpus(seed)
            cands = [list(p.candidate) for p in pairs]
            refs = [[list(r) for r in p.references] for p in pairs]
            for n in range(1, 5):
                assert bleu(NgramTable(pairs), n) == pytest.approx(
                    oracle_bleu(cands, refs, n), abs=1e-12
                )
            assert rouge_l(pairs) == pytest.approx(oracle_rouge_l(cands, refs), abs=1e-12)
            # The exhaustive oracle minimizes the fragmentation penalty over
            # every maximal alignment; greedy alignment reaches the same
            # match count, so its score is bounded above by the oracle's.
            assert meteor(pairs) <= oracle_meteor(cands, refs, stem) + 1e-12
            assert cider(NgramTable(pairs)) == pytest.approx(oracle_cider(cands, refs), abs=1e-9)

    def test_meteor_matches_oracle_when_alignment_is_unambiguous(self):
        # Stem-distinct vocabulary sampled without replacement: every token
        # type occurs at most once per sentence, so the maximal alignment is
        # unique and greedy must agree with the exhaustive oracle exactly.
        vocab = ["walk", "turn", "kitchen", "mug", "stove", "sink", "left", "right"]
        assert len({stem(w) for w in vocab}) == len(vocab)
        for seed in range(12):
            rng = random.Random(seed)
            pairs = []
            for _ in range(rng.randint(2, 4)):
                cand = tuple(rng.sample(vocab, rng.randint(3, 6)))
                refs = tuple(
                    tuple(rng.sample(vocab, rng.randint(3, 6)))
                    for _ in range(rng.randint(1, 2))
                )
                pairs.append(TokenizedPair(candidate=cand, references=refs))
            cands = [list(p.candidate) for p in pairs]
            refs = [[list(r) for r in p.references] for p in pairs]
            assert meteor(pairs) == pytest.approx(
                oracle_meteor(cands, refs, stem), abs=1e-12
            )

    def test_extra_ngram_order_cannot_raise_bleu_when_precision_drops(self):
        # With equal-length single references the brevity penalty is shared,
        # so the geometric-mean extension decides the direction.
        for seed in range(8):
            pairs = _random_corpus(seed)
            scores = [bleu(NgramTable(pairs), n) for n in range(1, 5)]
            precisions = []
            for n in range(1, 5):
                cands = [list(p.candidate) for p in pairs]
                refs = [[list(r) for r in p.references] for p in pairs]
                clipped = total = 0
                for cand, ref_group in zip(cands, refs):
                    counts = _gram_counts(cand, n)
                    total += max(0, len(cand) - n + 1)
                    best: dict = {}
                    for ref in ref_group:
                        for gram, count in _gram_counts(ref, n).items():
                            best[gram] = max(best.get(gram, 0), count)
                    clipped += sum(min(c, best.get(g, 0)) for g, c in counts.items())
                precisions.append(clipped / total if total else 0.0)
            for n in range(1, 4):
                if all(p > 0 for p in precisions[: n + 1]):
                    geo = math.exp(sum(math.log(p) for p in precisions[:n]) / n)
                    if precisions[n] <= geo:
                        assert scores[n] <= scores[n - 1] + 1e-12


class TestContracts:
    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            bleu(NgramTable([]), 4)
        with pytest.raises(ValueError):
            rouge_l([])
        with pytest.raises(ValueError):
            meteor([])
        with pytest.raises(ValueError):
            evaluate_pairs([])

    def test_bad_max_n_rejected(self):
        with pytest.raises(ValueError, match="max_n"):
            bleu(NgramTable(GOLDEN_PAIRS), 5)
        with pytest.raises(ValueError, match="max_n"):
            bleu(NgramTable(GOLDEN_PAIRS), 0)

    def test_cider_needs_a_corpus(self):
        with pytest.raises(ValueError, match="at least 2"):
            cider(NgramTable([_pair("a b c d", "a b c d")]))

    def test_pair_requires_references(self):
        for build in (
            lambda: TokenizedPair(("a",), ()),
            lambda: TokenizedPair(candidate=("a",), references=()),
        ):
            with pytest.raises(ValueError) as excinfo:
                build()
            assert excinfo.type is ValueError
            assert str(excinfo.value) == "a pair needs at least one reference"
        assert TokenizedPair(("a",), (("a",),)) == TokenizedPair(
            candidate=("a",), references=(("a",),)
        )

    def test_empty_candidate_is_scoreable(self):
        pair = _pair("", "walk to the sink")
        assert bleu(NgramTable([pair]), 1) == 0.0
        assert rouge_l([pair]) == 0.0
        assert meteor([pair]) == 0.0

    def test_report_names_the_variants(self):
        out = evaluate_pairs(GOLDEN_PAIRS)
        assert out["pair_count"] == len(GOLDEN_PAIRS)
        assert "no smoothing" in out["variants"]["bleu"]
        assert "METEOR-es" in out["variants"]["meteor"]
        assert "beta=1.2" in out["variants"]["rouge_l"]
        assert set(out) == {"bleu", "rouge_l", "meteor", "cider", "pair_count", "variants"}
