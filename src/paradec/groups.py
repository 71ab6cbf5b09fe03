"""Exact arithmetic and canonical normal forms for the built-in group models.

Four models are supported:

* ``free``     -- free group of rank r; elements are reduced words stored as
                  tuples of nonzero signed generator indices (1-based, sign
                  gives the exponent).
* ``abelian``  -- free abelian group of rank r; elements are integer exponent
                  vectors of length r.
* ``cyclic``   -- cyclic group of order n; elements are residues in [0, n).
* ``sl2z``     -- 2x2 integer matrices of determinant 1; elements are
                  (a, b, c, d) row-major tuples.

Normal forms are plain hashable Python values, so sets and dicts work
directly on elements, and equality of elements is equality of normal forms.
All operations are pure functions of immutable data.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from functools import lru_cache
from operator import add
from typing import Callable, Iterable, Mapping, Sequence, Union

from .errors import (
    FreeWordLengthError,
    MatrixOverflowError,
    ParseError,
    UnknownSymbolError,
)

Element = Union[int, tuple]

# Matrix entries are kept within the signed 64-bit range; anything larger
# aborts loudly rather than flowing into certificates.
MAX_MATRIX_ENTRY = 2**63 - 1

# Free-group words that parsing or powering builds are kept to this many
# letters; a longer one aborts before it is built rather than exhausting
# memory (``a^99999999999`` would need 800 GB).
MAX_FREE_WORD_LENGTH = 1_000_000

DEFAULT_MATRIX_GENERATORS = ((1, 2, 0, 1), (1, 0, 2, 1))

_MODELS = ("free", "abelian", "cyclic", "sl2z")

_WORD_TOKEN = re.compile(r"([A-Za-z][A-Za-z0-9_]*)(?:\^(-?\d+))?\Z")


def _default_names(count: int) -> tuple[str, ...]:
    if count <= 26:
        return tuple(chr(ord("a") + i) for i in range(count))
    return tuple(f"g{i + 1}" for i in range(count))


def _reduce_onto(word: list[int], letters: Iterable[int]) -> None:
    """Append signed letters to a freely reduced word, cancelling as it grows."""
    for s in letters:
        if word and word[-1] == -s:
            word.pop()
        else:
            word.append(s)


def _check_free_word_length(length: int) -> None:
    if length > MAX_FREE_WORD_LENGTH:
        raise FreeWordLengthError(
            f"free-group word of {length} letters exceeds the bound "
            f"{MAX_FREE_WORD_LENGTH}"
        )


def _check_matrix_entries(entries: Iterable[int]) -> None:
    for e in entries:
        if abs(e) > MAX_MATRIX_ENTRY:
            raise MatrixOverflowError(
                f"matrix entry {e} exceeds the signed 64-bit range"
            )


@dataclass(frozen=True)
class GroupSpec:
    """A group model together with its generating data.

    ``rank`` is the number of named generators.  For the cyclic model the
    group order is carried in ``order`` and the single generator is the
    residue 1.  For the matrix model the generator matrices are explicit
    input; the default pair is the classical free pair
    [[1,2],[0,1]], [[1,0],[2,1]].  The generator names follow from the
    model and rank: ``a``, ``b``, ... up to rank 26 and ``g1``, ``g2``, ...
    beyond, upper-cased for the matrix model.
    """

    model: str
    rank: int
    order: "int | None" = None
    matrix_generators: tuple[tuple[int, int, int, int], ...] = ()
    generator_names: tuple[str, ...] = field(init=False)

    def __post_init__(self):
        if self.model not in _MODELS:
            raise ValueError(f"unknown group model {self.model!r}")
        if self.rank < 1:
            raise ValueError("rank must be positive")
        if self.model == "cyclic":
            if self.order is None or self.order < 1:
                raise ValueError("cyclic order must be positive")
            if self.rank != 1:
                raise ValueError("cyclic model has exactly one generator")
        elif self.order is not None:
            raise ValueError("order is only meaningful for the cyclic model")
        names = _default_names(self.rank)
        if self.model == "sl2z":
            names = tuple(n.upper() for n in names)
        object.__setattr__(self, "generator_names", names)
        if self.model == "sl2z":
            if not self.matrix_generators:
                if self.rank != 2:
                    raise ValueError("matrix generators required for rank != 2")
                object.__setattr__(
                    self, "matrix_generators", DEFAULT_MATRIX_GENERATORS
                )
            if len(self.matrix_generators) != self.rank:
                raise ValueError("one matrix per generator name is required")
            for m in self.matrix_generators:
                self.validate_element(m)
        elif self.matrix_generators:
            raise ValueError("matrix generators only apply to the sl2z model")

    # -- basic operations -------------------------------------------------

    def identity(self) -> Element:
        if self.model == "free":
            return ()
        if self.model == "abelian":
            return (0,) * self.rank
        if self.model == "cyclic":
            return 0
        return (1, 0, 0, 1)

    def multiply(self, x: Element, y: Element) -> Element:
        if self.model == "free":
            # A right factor of one letter or none, as every ball step and
            # most translators are, is one slice or one concatenation.
            if len(y) < 2:
                if not y:
                    return x
                if x and x[-1] == -y[0]:
                    return x[:-1]
                return x + y
            word = list(x)
            _reduce_onto(word, y)
            return tuple(word)
        if self.model == "abelian":
            return tuple(map(add, x, y))
        if self.model == "cyclic":
            return (x + y) % self.order
        a1, b1, c1, d1 = x
        a2, b2, c2, d2 = y
        product = (
            a1 * a2 + b1 * c2,
            a1 * b2 + b1 * d2,
            c1 * a2 + d1 * c2,
            c1 * b2 + d1 * d2,
        )
        _check_matrix_entries(product)
        return product

    def translates(self, elements: Iterable[Element], s: Element) -> list:
        """The column ``[self.multiply(x, s) for x in elements]``.

        Formed in one comprehension, with no call per element, for a free
        translator of at most one letter (the identity's column is the
        elements themselves; a letter t drops a last letter t⁻¹ and is
        appended to any other word), an abelian translator and a cyclic
        one, each with :meth:`multiply`'s own formula.  A matrix translator
        and a free one of two or more letters call :meth:`multiply` per
        element, so the overflow check still runs one product at a time and
        the first overflowing product raises.
        """
        if self.model == "free" and len(s) < 2:
            if not s:
                return list(elements)
            inverse = -s[0]
            return [x[:-1] if x and x[-1] == inverse else x + s for x in elements]
        if self.model == "abelian":
            return [tuple(map(add, x, s)) for x in elements]
        if self.model == "cyclic":
            order = self.order
            return [(x + s) % order for x in elements]
        multiply = self.multiply
        return [multiply(x, s) for x in elements]

    def text_translates(
        self, elements: Sequence[Element], texts: Sequence[str], s: Element
    ) -> list:
        """The texts of ``self.translates(elements, s)``, given ``texts``,
        the canonical texts of ``elements``.

        For a free translator of at most one letter t each text is one
        string step from its element's text, chosen by the element's last
        letter: a last letter of another generator, or none, gains t's token;
        a last run of t's generator has its exponent moved by one, and is
        dropped when that exponent reaches 0, leaving ``1`` when nothing is
        left.  No product is formed.  Every other translator's column is
        formed by :meth:`translates` and written by :meth:`formatter`.
        """
        if self.model != "free" or len(s) > 1:
            fmt = self.formatter()
            return [fmt(x) for x in self.translates(elements, s)]
        if not s:
            return list(texts)
        t = s[0]
        name = self.generator_names[abs(t) - 1]
        step = 1 if t > 0 else -1
        token = name if t > 0 else f"{name}^-1"
        spaced = " " + token
        offset = len(name) + 1
        result = []
        append = result.append
        for x, text in zip(elements, texts):
            if not x:
                append(token)
            elif x[-1] != t and x[-1] != -t:
                append(text + spaced)
            else:
                head, _, last = text.rpartition(" ")
                exponent = (1 if last == name else int(last[offset:])) + step
                if exponent == 0:
                    append(head or "1")
                    continue
                run = name if exponent == 1 else f"{name}^{exponent}"
                append(f"{head} {run}" if head else run)
        return result

    def star(self, steps: Iterable[Element]) -> Callable[[Element], list]:
        """The callable ``x -> [self.multiply(x, s) for s in steps]``.

        The steps are read once.  When every step is a free word of at most
        one letter, or the model is abelian or cyclic, the callable forms
        its list in one comprehension with :meth:`translates`'s rules and
        no call per product; otherwise it calls :meth:`multiply` per step,
        in step order, so the first overflowing matrix product raises.
        """
        steps = tuple(steps)
        if self.model == "free" and all(len(s) < 2 for s in steps):
            # the empty step's 0 matches no last letter, so it appends ()
            pairs = tuple((s, -s[0] if s else 0) for s in steps)

            def free_star(x: Element) -> list:
                last = x[-1] if x else None
                return [x[:-1] if last == inverse else x + s for s, inverse in pairs]

            return free_star
        if self.model == "abelian":
            return lambda x: [tuple(map(add, x, s)) for s in steps]
        if self.model == "cyclic":
            order = self.order
            return lambda x: [(x + s) % order for s in steps]
        multiply = self.multiply
        return lambda x: [multiply(x, s) for s in steps]

    def invert(self, x: Element) -> Element:
        if self.model == "free":
            return tuple(-s for s in reversed(x))
        if self.model == "abelian":
            return tuple(-a for a in x)
        if self.model == "cyclic":
            return (-x) % self.order
        a, b, c, d = x
        return (d, -b, -c, a)

    def power(self, x: Element, n: int) -> Element:
        """x**n, n possibly negative, by binary powering.

        A free-group power is instead written out directly: with
        x = u·c·u⁻¹ and c cyclically reduced, x**n = u·c**n·u⁻¹ has
        2|u| + |n|·|c| letters, which are counted against
        ``MAX_FREE_WORD_LENGTH`` first.
        """
        if self.model == "free":
            if n < 0:
                x, n = self.invert(x), -n
            if n == 0 or not x:
                return ()
            k = 0
            while k < len(x) - 1 - k and x[k] == -x[-1 - k]:
                k += 1
            core = x[k : len(x) - k]
            _check_free_word_length(2 * k + n * len(core))
            return x[:k] + core * n + x[len(x) - k :]
        if n < 0:
            return self.power(self.invert(x), -n)
        result = self.identity()
        base = x
        while n:
            if n & 1:
                result = self.multiply(result, base)
            base_needed = n >> 1
            if base_needed:
                base = self.multiply(base, base)
            n = base_needed
        return result

    def evaluate_word(
        self,
        letters: Iterable[tuple[str, int]],
        symbols: "Mapping[str, Element] | None" = None,
    ) -> Element:
        """Left-to-right product of ``(symbol, exponent)`` pairs.

        ``symbols`` defaults to the spec's standard generators; pass a
        custom mapping to evaluate words over a derived generating set.  In
        the free model the word is reduced in one list as it grows, and a
        partial product longer than ``MAX_FREE_WORD_LENGTH`` aborts, so no
        word of more than twice the bound is ever built.
        """
        if symbols is None:
            symbols = self.generator_map()
        free = self.model == "free"
        result = [] if free else self.identity()
        for name, exponent in letters:
            if name not in symbols:
                raise UnknownSymbolError(f"unknown generator symbol {name!r}")
            factor = self.power(symbols[name], exponent)
            if free:
                _reduce_onto(result, factor)
                _check_free_word_length(len(result))
            else:
                result = self.multiply(result, factor)
        return tuple(result) if free else result

    # -- generating data ---------------------------------------------------

    def standard_generators(self) -> tuple[tuple[str, Element], ...]:
        if self.model == "free":
            return tuple(
                (name, (i + 1,)) for i, name in enumerate(self.generator_names)
            )
        if self.model == "abelian":
            unit = [0] * self.rank
            pairs = []
            for i, name in enumerate(self.generator_names):
                vec = list(unit)
                vec[i] = 1
                pairs.append((name, tuple(vec)))
            return tuple(pairs)
        if self.model == "cyclic":
            return ((self.generator_names[0], 1 % self.order),)
        return tuple(zip(self.generator_names, self.matrix_generators))

    def generator_map(self) -> dict[str, Element]:
        return dict(self.standard_generators())

    # -- validation and ordering -------------------------------------------

    def validate_element(self, x: Element) -> None:
        """Raise ValueError unless ``x`` is a canonical normal form."""
        if self.model == "free":
            if not isinstance(x, tuple):
                raise ValueError(f"free-group element must be a tuple, got {x!r}")
            for s in x:
                if type(s) is not int or s == 0 or abs(s) > self.rank:
                    raise ValueError(f"bad letter {s!r} in word {x!r}")
            for a, b in zip(x, x[1:]):
                if a == -b:
                    raise ValueError(f"word {x!r} is not reduced")
        elif self.model == "abelian":
            if not isinstance(x, tuple) or len(x) != self.rank:
                raise ValueError(f"expected an exponent vector of length {self.rank}")
            if not all(type(a) is int for a in x):
                raise ValueError(f"non-integer exponent in {x!r}")
        elif self.model == "cyclic":
            if type(x) is not int or not 0 <= x < self.order:
                raise ValueError(f"residue {x!r} outside [0, {self.order})")
        else:
            if not isinstance(x, tuple) or len(x) != 4:
                raise ValueError("matrix element must be a 4-tuple of entries")
            if not all(type(a) is int for a in x):
                raise ValueError(f"non-integer entry in {x!r}")
            a, b, c, d = x
            if a * d - b * c != 1:
                raise ValueError(f"matrix {x!r} does not have determinant 1")
            _check_matrix_entries(x)

    def element_sort_key(self, x: Element):
        """Deterministic total order on normal forms (shortlex for words)."""
        if self.model == "free":
            return (len(x), x)
        return x

    # -- text forms ----------------------------------------------------------

    def format_element(self, x: Element) -> str:
        """Canonical text form: words for free/cyclic models, bracketed
        integer lists for vectors and matrices; ``1`` is the identity."""
        if self.model == "free":
            if not x:
                return "1"
            parts = []
            i = 0
            while i < len(x):
                j = i
                while j < len(x) and x[j] == x[i]:
                    j += 1
                name = self.generator_names[abs(x[i]) - 1]
                exponent = (j - i) * (1 if x[i] > 0 else -1)
                parts.append(name if exponent == 1 else f"{name}^{exponent}")
                i = j
            return " ".join(parts)
        if self.model == "abelian":
            return json.dumps(list(x))
        if self.model == "cyclic":
            if x == 0:
                return "1"
            name = self.generator_names[0]
            return name if x == 1 else f"{name}^{x}"
        a, b, c, d = x
        return json.dumps([[a, b], [c, d]])

    def parse_element(
        self, text: str, symbols: "Mapping[str, Element] | None" = None
    ) -> Element:
        """Inverse of :meth:`format_element`; also accepts any word over the
        given symbols and, for vector/matrix models, bracketed lists."""
        stripped = text.strip()
        if not stripped:
            raise ParseError("empty element text")
        if stripped.startswith("["):
            return self._parse_bracketed(stripped)
        return self.evaluate_word(parse_word(text), symbols)

    # -- batch codec -----------------------------------------------------------

    def formatter(self) -> Callable[[Element], str]:
        """:meth:`format_element` for one batch of elements.

        In the free model the callable remembers every text it returns, so
        a word whose prefix ``x[:-1]`` was formatted earlier in the batch
        costs one token: its last letter either starts a new run, whose
        token (``" a"`` or ``" a^-1"``, from a table built once) is appended
        to the prefix's text, or extends the prefix's last run, whose
        exponent is rewritten.  Any other word is formatted whole by
        :meth:`format_element`.  A prefix-closed batch (a ball) formatted
        in the spec's element order hits on every word of two or more
        letters.  Other models format each element alone.
        """
        if self.model != "free":
            return self.format_element
        names = self.generator_names
        tokens = {}
        for letter, name in enumerate(names, 1):
            tokens[letter] = f" {name}"
            tokens[-letter] = f" {name}^-1"
        memo: dict[Element, str] = {}

        def format_word(x: Element) -> str:
            text = memo.get(x)
            if text is not None:
                return text
            head = memo.get(x[:-1]) if len(x) > 1 else None
            if head is None:
                text = self.format_element(x)
            elif x[-2] != x[-1]:
                text = head + tokens[x[-1]]
            else:
                s = x[-1]
                name = names[abs(s) - 1]
                start = head.rfind(" ") + 1
                last = head[start:]
                exponent = 1 if last == name else int(last[len(name) + 1 :])
                text = f"{head[:start]}{name}^{exponent + (1 if s > 0 else -1)}"
            memo[x] = text
            return text

        return format_word

    def parser(self) -> Callable[[str], Element]:
        """:meth:`parse_element` (standard generators) for one batch of texts.

        In the free model the callable remembers every word it returns, so
        a text whose head ``text.rpartition(" ")[0]`` was parsed earlier in
        the batch costs one token.  A last token that is one generator name
        and does not cancel the head's last letter is appended to the
        head's word as that letter; any other is looked up as a cached run
        and reduced onto the head's word.  That is exact because free
        reduction does not depend on where it starts.  A miss, a last token
        that is not ``1`` or a generator power of at most ``_MAX_TOKEN_RUN``
        letters, or a result over ``MAX_FREE_WORD_LENGTH`` parses the whole
        text with :meth:`parse_element`, which raises its own errors.  The
        canonical texts of a ball, sorted as strings or listed in element
        order, hit on every text of two or more tokens.  Other models parse
        each text alone.
        """
        if self.model != "free":
            return self.parse_element
        names = self.generator_names
        letters = {name: letter for letter, name in enumerate(names, 1)}
        memo: dict[str, Element] = {}

        def parse_text(text: str) -> Element:
            word = memo.get(text)
            if word is not None:
                return word
            head, _, token = text.rpartition(" ")
            # "" is never remembered: it does not parse.
            word = memo.get(head)
            if word is not None:
                letter = letters.get(token)
                if letter is not None and not (word and word[-1] == -letter):
                    word = word + (letter,)
                else:
                    run = _free_token_run(names, token)
                    if run is None:
                        word = None
                    else:
                        k = 0
                        while k < len(run) and k < len(word) and word[-1 - k] == -run[k]:
                            k += 1
                        word = word[: len(word) - k] + run[k:]
            if word is None or len(word) > MAX_FREE_WORD_LENGTH:
                word = self.parse_element(text)
            memo[text] = word
            return word

        return parse_text

    def _parse_bracketed(self, text: str) -> Element:
        try:
            value = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad bracketed literal {text!r}: {exc.msg}", exc.pos)
        if self.model == "abelian":
            if (
                not isinstance(value, list)
                or len(value) != self.rank
                or not all(type(a) is int for a in value)
            ):
                raise ParseError(
                    f"expected {self.rank} integers in brackets, got {text!r}"
                )
            return tuple(value)
        if self.model == "sl2z":
            if (
                not isinstance(value, list)
                or len(value) != 2
                or any(
                    not isinstance(row, list)
                    or len(row) != 2
                    or not all(type(a) is int for a in row)
                    for row in value
                )
            ):
                raise ParseError(f"expected a 2x2 integer matrix, got {text!r}")
            element = (value[0][0], value[0][1], value[1][0], value[1][1])
            self.validate_element(element)
            return element
        raise ParseError(
            f"bracketed literals are not meaningful for the {self.model} model"
        )


def parse_word(text: str) -> list[tuple[str, int]]:
    """Parse word syntax like ``a b^-1 c`` into (symbol, exponent) pairs.

    ``1`` denotes the identity and contributes no letter.  Raises
    :class:`ParseError` with the character position of the bad token.
    """
    letters: list[tuple[str, int]] = []
    for match in re.finditer(r"\S+", text):
        token = match.group(0)
        if token == "1":
            continue
        parsed = _WORD_TOKEN.match(token)
        if parsed is None:
            raise ParseError(f"bad word token {token!r}", match.start())
        name, exponent = parsed.group(1), parsed.group(2)
        letters.append((name, 1 if exponent is None else int(exponent)))
    return letters


# Longest run of one letter that a cached token may expand to; larger
# exponents take the general path, whose binary powering they need anyway.
_MAX_TOKEN_RUN = 64


@lru_cache(maxsize=4096)
def _free_token_run(names: tuple[str, ...], token: str) -> "tuple[int, ...] | None":
    """The signed letters of one word token over free generators ``names``,
    or None unless it is ``1`` or a generator power with a short run."""
    if token == "1":
        return ()
    parsed = _WORD_TOKEN.match(token)
    if parsed is None or parsed.group(1) not in names:
        return None
    digits = parsed.group(2)
    if digits is not None and len(digits) > 4:
        return None
    exponent = 1 if digits is None else int(digits)
    if abs(exponent) > _MAX_TOKEN_RUN:
        return None
    letter = names.index(parsed.group(1)) + 1
    return (letter if exponent > 0 else -letter,) * abs(exponent)


# -- group-spec mini-language ------------------------------------------------


def free_group(rank: int) -> GroupSpec:
    return GroupSpec("free", rank)


def free_abelian_group(rank: int) -> GroupSpec:
    return GroupSpec("abelian", rank)


def cyclic_group(order: int) -> GroupSpec:
    return GroupSpec("cyclic", 1, order=order)


def matrix_group(
    generators: "Sequence[tuple[int, int, int, int]] | None" = None,
) -> GroupSpec:
    generators = tuple(generators) if generators else DEFAULT_MATRIX_GENERATORS
    return GroupSpec("sl2z", len(generators), matrix_generators=generators)


def parse_group_spec(text: str) -> GroupSpec:
    """Parse ``free:3``, ``abelian:2``, ``cyclic:12`` or ``sl2z``.

    The matrix model optionally takes its generators as a flat comma-
    separated integer list, four entries per matrix (row-major):
    ``sl2z:1,2,0,1,1,0,2,1``.
    """
    head, _, tail = text.strip().partition(":")
    model = head.strip().lower()
    if model == "sl2z":
        if not tail:
            return matrix_group()
        try:
            entries = [int(part) for part in tail.split(",")]
        except ValueError:
            raise ParseError(f"bad matrix entry list {tail!r}") from None
        if not entries or len(entries) % 4 != 0:
            raise ParseError("matrix generator list length must be a multiple of 4")
        matrices = [tuple(entries[i : i + 4]) for i in range(0, len(entries), 4)]
        return matrix_group(matrices)
    if model in ("free", "abelian", "cyclic"):
        try:
            parameter = int(tail)
        except ValueError:
            raise ParseError(f"expected an integer parameter in {text!r}") from None
        if model == "free":
            return free_group(parameter)
        if model == "abelian":
            return free_abelian_group(parameter)
        return cyclic_group(parameter)
    raise ParseError(f"unknown group model {head!r}")


def spec_to_string(spec: GroupSpec) -> str:
    """Mini-language form of a spec (generator names are the defaults)."""
    if spec.model == "free":
        return f"free:{spec.rank}"
    if spec.model == "abelian":
        return f"abelian:{spec.rank}"
    if spec.model == "cyclic":
        return f"cyclic:{spec.order}"
    if spec.matrix_generators == DEFAULT_MATRIX_GENERATORS:
        return "sl2z"
    flat = ",".join(str(e) for m in spec.matrix_generators for e in m)
    return f"sl2z:{flat}"
