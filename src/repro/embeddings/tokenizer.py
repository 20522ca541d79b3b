"""Word and character n-gram tokenization.

The paper relies on subword transformer tokenizers (SentencePiece / WordPiece).
For the NumPy substitute we use a deterministic word tokenizer augmented with
character n-grams, which gives the featurizer robustness to morphological
variation ("color" vs "colors", "plot" vs "plotting") — the property the
subword vocabularies provide in the original models.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

_WORD_RE = re.compile(r"[a-z0-9']+")

#: Most words :class:`Tokenizer` keeps ``cg:`` n-gram tokens for; the memo is
#: cleared when it would grow past this (a pure function of the config, so
#: clearing changes no output).
NGRAM_MEMO_WORDS = 4096

# A small, fixed stop-word list.  Queries to LLM services are short; dropping
# ubiquitous function words sharpens the lexical signal for similarity.  The
# second block removes question *scaffolding* ("what is the best way to ...",
# "tips for ...", "walk me through ...") — those words are shared by nearly
# every query regardless of meaning, and keeping them inflates the similarity
# of unrelated queries, which is exactly what a semantic cache must avoid.
DEFAULT_STOPWORDS = frozenset(
    """a an the is are was were be been being am do does did to of in on at by
    for with about into over after under and or but if then than as it its this
    that these those i you he she we they my your his her our their me him them
    what which who whom can could should would will shall may might must
    how best way good tips steps step approach show tell walk need help
    please simple terms example quickly possible thanks let know through via
    guide
    """.split()
)


@dataclass(frozen=True)
class TokenizerConfig:
    """Configuration for :class:`Tokenizer`.

    Attributes
    ----------
    lowercase:
        Whether to lowercase text before tokenization.
    char_ngram_min, char_ngram_max:
        Inclusive range of character n-gram lengths generated per word.
        Set ``char_ngram_max`` to 0 to disable character n-grams.
    remove_stopwords:
        Drop common English function words from the *word* tokens (character
        n-grams are still produced for them, preserving some signal).
    word_boundary_marker:
        Character wrapped around each word before character n-grams are
        extracted, so prefixes/suffixes are distinguishable from interiors.
    """

    lowercase: bool = True
    char_ngram_min: int = 3
    char_ngram_max: int = 4
    remove_stopwords: bool = True
    word_boundary_marker: str = "#"
    stopwords: frozenset = field(default=DEFAULT_STOPWORDS)

    def __post_init__(self) -> None:
        if self.char_ngram_max and self.char_ngram_min > self.char_ngram_max:
            raise ValueError(
                "char_ngram_min must be <= char_ngram_max "
                f"(got {self.char_ngram_min} > {self.char_ngram_max})"
            )
        if self.char_ngram_min < 1:
            raise ValueError("char_ngram_min must be >= 1")


class Tokenizer:
    """Deterministic word + character n-gram tokenizer.

    Examples
    --------
    >>> tok = Tokenizer()
    >>> tokens = tok.tokenize("Plot a line in Python")
    >>> "plot" in tokens and "python" in tokens
    True
    """

    def __init__(self, config: TokenizerConfig | None = None) -> None:
        self.config = config or TokenizerConfig()
        # word -> its "cg:"-prefixed n-gram tokens.  Purely a speed
        # optimisation, bounded by NGRAM_MEMO_WORDS.
        self._ngram_memo: Dict[str, Tuple[str, ...]] = {}

    def words(self, text: str) -> List[str]:
        """Return the word tokens of ``text`` (stop-words removed if configured)."""
        if self.config.lowercase:
            text = text.lower()
        words = _WORD_RE.findall(text)
        if self.config.remove_stopwords:
            kept = [w for w in words if w not in self.config.stopwords]
            # Never return an empty token list for a non-empty query: fall back
            # to the raw words so that e.g. "What is it?" still has features.
            if kept:
                return kept
        return words

    def char_ngrams(self, word: str) -> List[str]:
        """Return boundary-marked character n-grams for a single word."""
        cfg = self.config
        if not cfg.char_ngram_max:
            return []
        marked = f"{cfg.word_boundary_marker}{word}{cfg.word_boundary_marker}"
        grams: List[str] = []
        for n in range(cfg.char_ngram_min, cfg.char_ngram_max + 1):
            if len(marked) < n:
                continue
            grams.extend(marked[i : i + n] for i in range(len(marked) - n + 1))
        return grams

    def tokenize(self, text: str) -> List[str]:
        """Return word tokens followed by character n-gram tokens.

        Character n-gram tokens are prefixed with ``"cg:"`` so they hash into
        a distinct feature subspace from whole words.
        """
        words = self.words(text)
        tokens: List[str] = list(words)
        if self.config.char_ngram_max:
            memo = self._ngram_memo
            for word in words:
                grams = memo.get(word)
                if grams is None:
                    grams = tuple(f"cg:{g}" for g in self.char_ngrams(word))
                    if len(memo) >= NGRAM_MEMO_WORDS:
                        memo.clear()
                    memo[word] = grams
                tokens.extend(grams)
        return tokens

    def tokenize_batch(self, texts: Sequence[str] | Iterable[str]) -> List[List[str]]:
        """Tokenize a batch of texts."""
        return [self.tokenize(t) for t in texts]
