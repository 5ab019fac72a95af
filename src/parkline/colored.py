"""Colored letters: each car carries (preferred spot, color). Occupancy is
decided on the spot value alone; colors feed the parking rule, which may
be partial, defined only on a language of words closed under subwords and
value rotations.

A colored rule is a `Procedure` whose `decide` receives the whole colored
letter and whose `language` names the words it is defined on; `colored_run`
runs it on the shared engine with spot values as preferences."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

from .enumeration import WORK_BUDGET, OrbitReport, OrbitViolation, _check_r, take_path
from .procedures import (
    Direction,
    Procedure,
    RunResult,
    block_record,
    record_parked,
    run_engine,
)
from .words import as_int


class ColoredLetter(NamedTuple):
    value: int
    color: object  # ordered token; comparison is lexicographic on (value, color)

    def __str__(self) -> str:
        return f"{self.value}:{self.color}"


ColoredWord = tuple[ColoredLetter, ...]


def colored_word(pairs: Iterable[tuple[int, object]]) -> ColoredWord:
    return tuple(ColoredLetter(as_int(v, "letter value"), c) for v, c in pairs)


class UndefinedRuleError(ValueError):
    """The rule has no defined decision for this input (outside its
    language)."""


class LanguageClosureError(ValueError):
    def __init__(self, message: str, witness):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class Language:
    """Membership predicate of a language that must be closed under
    subwords and value rotations; `verify_closures` spot-checks both."""

    name: str
    contains: Callable[[ColoredWord], bool]


def distinct_letters_language() -> Language:
    return Language(
        name="distinct-letters",
        contains=lambda w: len(set(w)) == len(w),
    )


ColoredProcedure = Procedure  # alias kept for callers that name it


def colored_lbs_procedure() -> Procedure:
    """Last-block-setter with lexicographic comparison of full letters;
    defined where the new letter differs from the block record. The state
    is a block-record state keyed by spot values (see `block_record`)."""

    def decide(state, occ, blk, letter):
        last = block_record(state, blk)
        if letter == last:
            raise UndefinedRuleError(
                f"letter {letter} equals the block record; rule undefined"
            )
        return Direction.RIGHT if letter > last else Direction.LEFT

    return Procedure(
        name="colored-lbs",
        decide=decide,
        init_state=tuple,
        update=record_parked,
        language=distinct_letters_language(),
        is_shift_invariant=True,
        is_locally_decided=True,
    )


def language_word(p: Procedure, word: Iterable) -> ColoredWord:
    """`word`, of colored letters or (value, color) pairs, as colored
    letters; UndefinedRuleError if it lies outside the rule's language."""
    word = tuple(
        a if isinstance(a, ColoredLetter) else ColoredLetter(*a) for a in word
    )
    if p.language is not None and not p.language.contains(word):
        raise UndefinedRuleError(f"word outside language {p.language.name!r}")
    return word


def letter_value(a: ColoredLetter) -> int:
    """The preferred spot of a colored letter: its value."""
    return a.value


def colored_run(p: Procedure, word: Iterable) -> RunResult:
    """Run with occupancy keyed on letter values."""
    return run_engine(p, language_word(p, word), value_of=letter_value)


def rotate_values(word: ColoredWord, r: int) -> ColoredWord:
    """Rotate values mod r+1 (representatives {1..r+1}); colors fixed."""
    n = r + 1
    for a in word:
        if not 1 <= a.value <= n:
            raise ValueError(f"value {a.value} outside {{1..{n}}}")
    return tuple(ColoredLetter(a.value % n + 1, a.color) for a in word)


def is_parking_colored(p: Procedure, word) -> bool:
    res = colored_run(p, word)
    return res.spots == frozenset(range(1, len(res.word) + 1))


def grow_language_words(
    language: Language, alphabets: Sequence[Sequence[ColoredLetter]]
) -> list[ColoredWord]:
    """Words of the language whose i-th letter comes from alphabets[i], in
    the order of the alphabets, grown letter by letter: a prefix that
    leaves the language is dropped at once. A subword-closed language is
    prefix-closed, so this loses no word."""
    words: list[ColoredWord] = [()]
    for alphabet in alphabets:
        words = [w for prefix in words for a in alphabet if language.contains(w := prefix + (a,))]
    return words


def verify_closures(
    language: Language, words: Iterable[ColoredWord], r: int
) -> None:
    """Spot-check closure under subwords and value rotations on the given
    members; raises with a witness on violation."""
    for w in words:
        for i in range(len(w)):
            sub = w[:i] + w[i + 1 :]
            if not language.contains(sub):
                raise LanguageClosureError(
                    f"{language.name} not closed under deleting letter {i}",
                    (w, sub),
                )
        rot = rotate_values(w, r)
        if not language.contains(rot):
            raise LanguageClosureError(
                f"{language.name} not closed under value rotation", (w, rot)
            )


def colored_orbit_audit(
    p: Procedure,
    language: Language,
    r: int,
    colors: Iterable,
    *,
    cap: int | None = WORK_BUDGET,
) -> OrbitReport:
    """Count parking words in every value-rotation class of the language
    slice with values in {1..r+1} and colors in the window.

    Each class is keyed by its one member whose first value is 1, its
    smallest, and only keys and words over {1..r}, the only ones that can
    park, are grown (`grow_language_words`); a parking word joins the
    class of its rotation starting with 1. Closures are spot-checked on
    the keys and parking words. The work is estimated at |alphabet|^r * r
    car steps and refused beyond `cap` before the first word is grown."""
    _check_r(r)
    colors = tuple(colors)
    if not colors:
        raise ValueError("no colors: the audit needs at least one")
    if len(set(colors)) != len(colors):
        raise ValueError(f"repeated color in {colors}")
    letters = (r + 1) * len(colors)
    take_path("engine", f"colored words over {letters} letters", letters**r * r, cap)

    alphabet = [ColoredLetter(v, c) for v in range(1, r + 2) for c in colors]

    def rotated(w: ColoredWord, k: int) -> ColoredWord:
        return tuple(ColoredLetter((a.value + k - 1) % (r + 1) + 1, a.color) for a in w)

    # value-major: the first len(colors) letters have value 1, the last r+1
    keys = grow_language_words(language, [alphabet[: len(colors)]] + [alphabet] * (r - 1))
    words = grow_language_words(language, [alphabet[: -len(colors)]] * r)
    parking = [w for w in words if is_parking_colored(p, w)]
    verify_closures(language, keys + parking, r)

    # words are grown in order and the members of a class start with
    # distinct values, so each class's parking words, like the key's
    # rotations by 0..r, come sorted
    per_class: dict[ColoredWord, list[ColoredWord]] = {key: [] for key in keys}
    for w in parking:
        key = rotated(w, 1 - w[0].value)
        if key not in per_class:
            raise LanguageClosureError(f"{language.name} not closed under value rotation", (w, key))
        per_class[key].append(w)
    violations = tuple(
        OrbitViolation(key, tuple(rotated(key, k) for k in range(r + 1)), len(found), tuple(found))
        for key, found in sorted(item for item in per_class.items() if len(item[1]) != 1)
    )
    histogram = Counter(len(found) for found in per_class.values())
    return OrbitReport(
        procedure=p.name,
        r=r,
        orbit_count=len(keys),
        histogram=dict(sorted(histogram.items())),
        violations=violations,
    )
