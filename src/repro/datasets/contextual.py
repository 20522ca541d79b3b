"""Contextual-query dataset (paper §II "Contextual Queries" and §IV-C).

A *contextual* (follow-up) query only has a well-defined answer relative to a
parent query: "Change the color to red" means something different after
"Draw a line plot in Python" than after "Draw a circle".  The paper evaluates
on a GPT-4-generated dataset of 450 queries; this module generates an
equivalent synthetic dataset with the same composition:

* A cache population of standalone queries and follow-up queries (each
  follow-up recorded with its context chain — the parent query).
* A probe stream containing duplicate standalone probes, duplicate contextual
  probes **whose context matches** a cached chain (true hits), and
  non-duplicate probes — including "trap" probes that are semantically similar
  to a cached follow-up but arise under a *different* context (the exact false
  hits GPTCache produces).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.datasets.corpus import Corpus
from repro.datasets.paraphrase import Paraphraser

# followup key -> (templates, slot values)
FOLLOWUP_TEMPLATES: Dict[str, Tuple[List[str], List[str]]] = {
    "change_color": (
        [
            "Change the color to {slot}",
            "Make it {slot} instead",
            "Switch the color to {slot}",
            "Use {slot} for it",
            "Could you color it {slot}?",
        ],
        ["red", "blue", "green", "purple", "orange"],
    ),
    "change_language": (
        [
            "Now do the same in {slot}",
            "Convert it to {slot}",
            "Rewrite that in {slot}",
            "Show me the {slot} version",
        ],
        ["java", "javascript", "c++", "rust", "go"],
    ),
    "shorten": (
        [
            "Make it shorter",
            "Can you shorten it?",
            "Condense it a bit",
            "Trim it down please",
        ],
        [""],
    ),
    "expand": (
        [
            "Make it longer and more detailed",
            "Can you expand on that?",
            "Add more detail to it",
            "Elaborate on it further",
        ],
        [""],
    ),
    "add_example": (
        [
            "Add an example",
            "Include a concrete example",
            "Show an example too",
            "Can you give an example of that?",
        ],
        [""],
    ),
    "simplify": (
        [
            "Explain it more simply",
            "Explain that in simpler terms",
            "Simplify the explanation",
            "Put it in plain language",
        ],
        [""],
    ),
    "add_title": (
        [
            "Add a title to it",
            "Give it a title",
            "Put a heading on it",
            "Include a short title",
        ],
        [""],
    ),
    "formal_tone": (
        [
            "Make it more formal",
            "Use a more formal tone",
            "Rewrite it formally",
            "Make the tone more professional",
        ],
        [""],
    ),
    "fix_error": (
        [
            "It throws an error, can you fix it?",
            "That gives an error, fix it",
            "Fix the error it produces",
            "It fails with an error, please correct it",
        ],
        [""],
    ),
    "add_comments": (
        [
            "Add comments to it",
            "Can you comment the code?",
            "Include explanatory comments",
            "Annotate it with comments",
        ],
        [""],
    ),
    "change_size": (
        [
            "Make it {slot}",
            "Can you make it {slot}?",
            "Resize it to be {slot}",
        ],
        ["bigger", "smaller", "twice as large", "half the size"],
    ),
    "bullet_points": (
        [
            "Turn it into bullet points",
            "Format it as a bulleted list",
            "Rewrite it as bullet points",
        ],
        [""],
    ),
}


@dataclass(frozen=True)
class FollowupIntent:
    """A follow-up meaning: (template family, slot value)."""

    key: str
    slot: str

    @property
    def intent_key(self) -> str:
        """Stable identifier."""
        return f"followup|{self.key}|{self.slot}"


@dataclass(frozen=True)
class ContextualTurn:
    """One turn of a conversation: a query plus its context chain.

    ``context`` holds the texts of the parent queries (most recent last); an
    empty tuple means a standalone query.
    """

    text: str
    context: Tuple[str, ...]
    intent_key: str
    is_followup: bool

    @property
    def has_context(self) -> bool:
        """True when the turn is a follow-up with at least one parent."""
        return len(self.context) > 0


@dataclass(frozen=True)
class ContextualProbe:
    """A probe against a contextually-populated cache."""

    text: str
    context: Tuple[str, ...]
    intent_key: str
    should_hit: bool
    matching_cache_index: int
    is_followup: bool
    is_context_trap: bool = False


@dataclass
class ContextualDataset:
    """Cache population (turns) and probe stream for the contextual experiment."""

    cached_turns: List[ContextualTurn]
    probes: List[ContextualProbe]
    seed: int = 0

    @property
    def n_cached(self) -> int:
        """Number of cached turns (standalone + follow-up)."""
        return len(self.cached_turns)

    @property
    def n_probes(self) -> int:
        """Number of probes."""
        return len(self.probes)

    @property
    def true_labels(self) -> np.ndarray:
        """Boolean ground truth: True where the probe should hit."""
        return np.array([p.should_hit for p in self.probes], dtype=bool)

    @property
    def n_total_queries(self) -> int:
        """Total distinct queries in the dataset (population + probes)."""
        return self.n_cached + self.n_probes


def _realize_followup(
    intent: FollowupIntent, rng: np.random.Generator, exclude: Optional[str] = None
) -> str:
    """Render a surface form of a follow-up intent, avoiding ``exclude``."""
    templates, _slots = FOLLOWUP_TEMPLATES[intent.key]
    order = rng.permutation(len(templates))
    for idx in order:
        text = templates[int(idx)].format(slot=intent.slot)
        if text != exclude:
            return text
    return templates[int(order[0])].format(slot=intent.slot)


def _sample_followup_intent(rng: np.random.Generator) -> FollowupIntent:
    keys = sorted(FOLLOWUP_TEMPLATES)
    key = keys[int(rng.integers(len(keys)))]
    _templates, slots = FOLLOWUP_TEMPLATES[key]
    slot = slots[int(rng.integers(len(slots)))]
    return FollowupIntent(key=key, slot=slot)


def generate_contextual_dataset(
    n_standalone_cached: int = 100,
    n_contextual_cached: int = 100,
    n_duplicate_standalone_probes: int = 75,
    n_duplicate_contextual_probes: int = 75,
    n_unique_probes: int = 100,
    context_trap_fraction: float = 0.55,
    corpus: Optional[Corpus] = None,
    seed: int = 0,
) -> ContextualDataset:
    """Generate the §IV-C contextual workload.

    Defaults reproduce the paper's composition: 200 cached queries
    (100 standalone + 100 follow-ups of those standalone queries), then 250
    probes (75 duplicate standalone + 75 duplicate contextual + 100
    non-duplicate).  ``context_trap_fraction`` of the non-duplicate probes are
    follow-ups that semantically match a cached follow-up but occur under a
    different context — a context-oblivious cache false-hits on these.
    """
    if n_contextual_cached > n_standalone_cached:
        raise ValueError(
            "each cached follow-up needs a cached standalone parent: "
            f"n_contextual_cached={n_contextual_cached} > n_standalone_cached={n_standalone_cached}"
        )
    rng = np.random.default_rng(seed)
    corpus = corpus or Corpus(seed=seed)
    paraphraser = Paraphraser(corpus, seed=seed + 1)

    all_intents = corpus.intents
    rng.shuffle(all_intents)
    if len(all_intents) < n_standalone_cached + n_unique_probes:
        raise ValueError(
            "corpus too small for the requested dataset: "
            f"{len(all_intents)} intents < {n_standalone_cached + n_unique_probes} needed"
        )
    cached_intents = all_intents[:n_standalone_cached]
    holdout_intents = all_intents[n_standalone_cached:]

    cached_turns: List[ContextualTurn] = []
    # Standalone population.
    standalone_texts: List[str] = []
    for intent in cached_intents:
        text = corpus.realize(intent, rng=rng)
        standalone_texts.append(text)
        cached_turns.append(
            ContextualTurn(text=text, context=(), intent_key=intent.key, is_followup=False)
        )

    # Follow-up population: one follow-up per standalone parent (first
    # ``n_contextual_cached`` parents).
    followup_intents: List[FollowupIntent] = []
    followup_parent: List[int] = []
    for parent_idx in range(n_contextual_cached):
        f_intent = _sample_followup_intent(rng)
        followup_intents.append(f_intent)
        followup_parent.append(parent_idx)
        text = _realize_followup(f_intent, rng)
        cached_turns.append(
            ContextualTurn(
                text=text,
                context=(standalone_texts[parent_idx],),
                intent_key=f_intent.intent_key,
                is_followup=True,
            )
        )

    probes: List[ContextualProbe] = []

    # Duplicate standalone probes.
    if n_duplicate_standalone_probes:
        targets = rng.choice(
            n_standalone_cached,
            size=n_duplicate_standalone_probes,
            replace=n_duplicate_standalone_probes > n_standalone_cached,
        )
        for target in targets:
            intent = cached_intents[int(target)]
            text = corpus.realize(intent, rng=rng)
            attempts = 0
            while text == standalone_texts[int(target)] and attempts < 8:
                text = corpus.realize(intent, rng=rng)
                attempts += 1
            probes.append(
                ContextualProbe(
                    text=text,
                    context=(),
                    intent_key=intent.key,
                    should_hit=True,
                    matching_cache_index=int(target),
                    is_followup=False,
                )
            )

    # Duplicate contextual probes: a paraphrased follow-up whose context is a
    # paraphrase of the *same* parent.
    if n_duplicate_contextual_probes:
        targets = rng.choice(
            n_contextual_cached,
            size=n_duplicate_contextual_probes,
            replace=n_duplicate_contextual_probes > n_contextual_cached,
        )
        for target in targets:
            f_intent = followup_intents[int(target)]
            parent_idx = followup_parent[int(target)]
            cached_followup_text = cached_turns[n_standalone_cached + int(target)].text
            text = _realize_followup(f_intent, rng, exclude=cached_followup_text)
            parent_intent = cached_intents[parent_idx]
            context_text = corpus.realize(parent_intent, rng=rng)
            probes.append(
                ContextualProbe(
                    text=text,
                    context=(context_text,),
                    intent_key=f_intent.intent_key,
                    should_hit=True,
                    matching_cache_index=n_standalone_cached + int(target),
                    is_followup=True,
                )
            )

    # Non-duplicate probes.
    n_traps = int(round(n_unique_probes * context_trap_fraction))
    n_plain_unique = n_unique_probes - n_traps

    # (a) Context traps: reuse a cached follow-up's meaning under a context
    # whose intent is NOT in the cache, so the correct outcome is a miss.
    for _ in range(n_traps):
        target = int(rng.integers(n_contextual_cached))
        f_intent = followup_intents[target]
        text = _realize_followup(f_intent, rng)
        foreign_intent = holdout_intents[int(rng.integers(len(holdout_intents)))]
        context_text = corpus.realize(foreign_intent, rng=rng)
        probes.append(
            ContextualProbe(
                text=text,
                context=(context_text,),
                intent_key=f_intent.intent_key,
                should_hit=False,
                matching_cache_index=-1,
                is_followup=True,
                is_context_trap=True,
            )
        )

    # (b) Plain unique standalone probes from held-out intents.
    for i in range(n_plain_unique):
        intent = holdout_intents[int(rng.integers(len(holdout_intents)))]
        probes.append(
            ContextualProbe(
                text=corpus.realize(intent, rng=rng),
                context=(),
                intent_key=intent.key,
                should_hit=False,
                matching_cache_index=-1,
                is_followup=False,
            )
        )

    rng.shuffle(probes)
    return ContextualDataset(cached_turns=cached_turns, probes=probes, seed=seed)
