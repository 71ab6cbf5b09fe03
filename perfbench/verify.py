"""Independent checks of paradec's CLI outputs, and tampered witnesses for them.

Nothing here imports paradec.  Elements are read from their text forms,
free words are reduced with a stack, vectors are added coordinate by
coordinate, and ball sizes come from closed forms.  Every check raises
:class:`Rejected` when the output does not hold.
"""

from __future__ import annotations

import copy
import json
import operator


class Rejected(Exception):
    """An output that fails an independent check."""


# What a check raises on a bad output: a failed requirement, or a missing
# key, a malformed number or a wrong type while reading it.
ERRORS = (Rejected, KeyError, ValueError, TypeError, IndexError)


def require(condition: bool, message: str) -> None:
    if not condition:
        raise Rejected(message)


def _word_tokens(text: str):
    """(name, exponent) pairs of word syntax such as ``a b^-1 c^2``."""
    for token in text.split():
        if token == "1":
            continue
        name, _, exponent = token.partition("^")
        yield name, int(exponent) if exponent else 1


class FreeGroup:
    """Free group on the given names; elements are reduced tuples of
    signed 1-based generator indices."""

    def __init__(self, names: str):
        self.index = {name: i + 1 for i, name in enumerate(names)}
        self.rank = len(names)

    def word(self, text: str) -> tuple:
        letters = []
        for name, exponent in _word_tokens(text):
            require(name in self.index, f"unknown generator {name!r}")
            letter = self.index[name] if exponent > 0 else -self.index[name]
            letters.extend([letter] * abs(exponent))
        return self.mul((), tuple(letters))

    parse = word  # the CLI writes free-group elements in word syntax

    def generator(self, name: str, sign: int) -> tuple:
        return (self.index[name] * sign,)

    @staticmethod
    def mul(x: tuple, y: tuple) -> tuple:
        stack = list(x)
        for letter in y:
            if stack and stack[-1] == -letter:
                stack.pop()
            else:
                stack.append(letter)
        return tuple(stack)

    @staticmethod
    def length(x: tuple) -> int:
        return len(x)

    def ball_size(self, radius: int) -> int:
        # 1 + 2k((2k-1)^r - 1)/(2k-2); for k = 3 this is 1 + 6(5^r - 1)/4
        k = self.rank
        return 1 + 2 * k * ((2 * k - 1) ** radius - 1) // (2 * k - 2)


class Abelian2:
    """Z^2 with generators a = (1, 0), b = (0, 1); elements are pairs."""

    units = {"a": (1, 0), "b": (0, 1)}

    def word(self, text: str) -> tuple:
        x = y = 0
        for name, exponent in _word_tokens(text):
            require(name in self.units, f"unknown generator {name!r}")
            ux, uy = self.units[name]
            x += ux * exponent
            y += uy * exponent
        return (x, y)

    def parse(self, text: str) -> tuple:
        value = json.loads(text)
        require(
            isinstance(value, list)
            and len(value) == 2
            and all(type(v) is int for v in value),
            f"not a vector of two integers: {text!r}",
        )
        return tuple(value)

    def generator(self, name: str, sign: int) -> tuple:
        ux, uy = self.units[name]
        return (ux * sign, uy * sign)

    @staticmethod
    def mul(x: tuple, y: tuple) -> tuple:
        return (x[0] + y[0], x[1] + y[1])

    @staticmethod
    def length(x: tuple) -> int:
        return abs(x[0]) + abs(x[1])

    @staticmethod
    def ball_size(radius: int) -> int:
        return 2 * radius * radius + 2 * radius + 1


def translators(group, words: str) -> tuple:
    return tuple(group.word(w) for w in words.split(","))


def _distinct(group, texts, what: str) -> list:
    elements = [group.parse(t) for t in texts]
    require(len(set(elements)) == len(elements), f"{what} repeats an element")
    return elements


def _inside_ball(group, elements, radius: int, what: str) -> None:
    for g in elements:
        require(group.length(g) <= radius, f"{what} leaves the radius-{radius} ball")


def _exact_ball(group, elements, radius: int, what: str) -> None:
    """Distinct elements of length <= r, as many as the ball holds."""
    require(len(set(elements)) == len(elements), f"{what} repeats an element")
    _inside_ball(group, elements, radius, what)
    require(
        len(elements) == group.ball_size(radius),
        f"{what} has {len(elements)} elements, the ball {group.ball_size(radius)}",
    )


def _same_translators(group, texts, expected: tuple, what: str) -> None:
    require(
        sorted(group.parse(t) for t in texts) == sorted(expected),
        f"{what} differs from the requested translators",
    )


def _product_union(group, a1, s1, a2, s2) -> set:
    union = {group.mul(g, s) for g in a1 for s in s1}
    union.update(group.mul(g, s) for g in a2 for s in s2)
    return union


# -- per-command checks ---------------------------------------------------------


def certificate(group, data: dict, s1: tuple, s2: tuple, radius: int) -> None:
    """Both maps send g to some g·s, are injective, have disjoint images,
    and are defined on exactly the radius-r ball."""
    require(data["radius"] == radius, "wrong radius")
    _same_translators(group, data["s1"], s1, "s1")
    _same_translators(group, data["s2"], s2, "s2")
    verdict = data["verdict"]
    require(verdict["kind"] == "certificate", "no certificate")
    images = []
    domains = []
    for pairs, ts in ((verdict["phi1"], s1), (verdict["phi2"], s2)):
        domain = []
        image = set()
        for g_text, target_text in pairs:
            g = group.parse(g_text)
            target = group.parse(target_text)
            require(
                any(group.mul(g, s) == target for s in ts),
                f"{target_text} is not a translate of {g_text}",
            )
            domain.append(g)
            image.add(target)
        require(len(image) == len(pairs), "a map is not injective")
        images.append(image)
        domains.append(domain)
    require(images[0].isdisjoint(images[1]), "the two images intersect")
    require(set(domains[0]) == set(domains[1]), "the maps have different domains")
    _exact_ball(group, domains[0], radius, "the domain")
    require(data["domain_size"] == len(domains[0]), "wrong domain_size")


def violator(group, verdict: dict, s1: tuple, s2: tuple, radius: int) -> None:
    """The recounted union is the recorded one and smaller than |A1|+|A2|,
    with A1, A2 inside the ball."""
    require(verdict["kind"] == "violator", "no violator")
    a1 = _distinct(group, verdict["a1"], "A1")
    a2 = _distinct(group, verdict["a2"], "A2")
    _inside_ball(group, a1 + a2, radius, "the violator")
    union = _product_union(group, a1, s1, a2, s2)
    require(len(union) == verdict["union_size"], "recorded union size is wrong")
    require(len(union) < len(a1) + len(a2), "the pair does not violate")


def decomposition(group, data: dict, s1: tuple, s2: tuple, radius: int) -> None:
    """Pieces are pairwise disjoint and each family covers every domain
    element through a translate."""
    require(data["radius"] == radius, "wrong radius")
    pieces = data["pieces"]
    domain = [group.parse(t) for t in pieces["domain"]]
    _exact_ball(group, domain, radius, "the domain")
    seen = set()
    total = 0
    families = []
    for key, ts in (("pieces1", s1), ("pieces2", s2)):
        family = {group.parse(s): {group.parse(x) for x in xs} for s, xs in pieces[key]}
        require(sorted(family) == sorted(ts), f"{key} is not indexed by its translators")
        for piece in family.values():
            seen |= piece
            total += len(piece)
        families.append((family, ts))
    require(len(seen) == total, "two pieces share an element")
    for family, ts in families:
        for g in domain:
            require(
                any(group.mul(g, s) in family[s] for s in ts),
                "a domain element is not covered",
            )
    require(data["verification"]["passed"] is True, "the program's own check failed")


_RELATIONS = {">=": operator.ge, "==": operator.eq, ">": operator.gt}


def forest_audits(group, data: dict, radius: int, samples: int, seed: int) -> None:
    """Every ledger entry holds and matches the recounted edge sets; Λ has
    A1·S1 ∪ A2·S2 as vertices; |E| = 6|A2| and |E3| = |A1|."""
    s1 = translators(group, "1,a")
    s2 = translators(group, "1,b,c")
    require(data["radius"] == radius and data["seed"] == seed, "wrong radius or seed")
    require(data["samples"] == samples == len(data["audits"]), "wrong number of audits")
    require(data["all_passed"] is True, "not every audit passed")
    for audit in data["audits"]:
        a1 = _distinct(group, audit["a1"], "A1")
        a2 = _distinct(group, audit["a2"], "A2")
        # A2 needs its whole star in the ball, so it lies one step inside.
        _inside_ball(group, a1 + a2, radius - 1, "A1 or A2")
        edges = {}
        for key in ("e", "e1", "e2", "e3"):
            edges[key] = audit[key]
            for g_text, sym, sign, target_text in audit[key]:
                g = group.parse(g_text)
                require(
                    group.mul(g, group.generator(sym, sign)) == group.parse(target_text),
                    f"edge {g_text} -{sym}^{sign}-> {target_text} is wrong",
                )
                require(g in (a1 if key == "e3" else a2), f"{key} edge leaves its set")
        lam = _distinct(group, audit["lambda_vertices"], "Λ vertices")
        require(set(lam) == _product_union(group, a1, s1, a2, s2), "Λ vertices are wrong")
        # The free-basis Cayley graph is a tree, so the only spanning tree of
        # the patch is the whole patch and every star edge of A2 is in it.
        require(len(edges["e"]) == 6 * len(a2), "|E| != 6|A2|")
        require(len(edges["e3"]) == len(a1), "|E3| != |A1|")
        n_e, n_e1, n_e2, n_e3 = (len(edges[k]) for k in ("e", "e1", "e2", "e3"))
        n_v, n_le = len(lam), len(audit["lambda_edges"])
        expected = {
            "degree_sum": (n_e, 5 * len(a2)),
            "e1_lower": (n_e1, n_e - 3 * len(a2)),
            "e1_at_least_twice_a2": (n_e1, 2 * len(a2)),
            "e2_lower": (n_e2, n_e1 - len(a2)),
            "e2_at_least_a2": (n_e2, len(a2)),
            "e3_counts_a1": (n_e3, len(a1)),
            "lambda_edge_count": (n_le, n_e2 + n_e3),
            "vertices_exceed_edges": (n_v, n_le),
            "doubling_conclusion": (n_v, len(a1) + len(a2)),
        }
        names = set()
        for entry in audit["ledger"]:
            name = entry["name"]
            names.add(name)
            holds = _RELATIONS[entry["relation"]](entry["lhs"], entry["rhs"])
            require(entry["passed"] is True and holds, f"ledger entry {name} fails")
            if name in expected:
                require(
                    (entry["lhs"], entry["rhs"]) == expected[name],
                    f"ledger entry {name} does not match the edge sets",
                )
        require(set(expected) <= names, "the ledger misses an entry")
        require(audit["all_passed"] is True, "an audit did not pass")


def tarski_report(data: dict) -> None:
    require(data["upper"] == 5 and data["lower"] == 4, "bounds are not 5 and 4")


def freeness(data: dict, g: str, h: str, max_length: int) -> None:
    """a and b are part of a free basis, so no relation exists at any length."""
    require(data["g"] == g and data["h"] == h, "wrong pair")
    require(data["max_length"] == max_length, "wrong length bound")
    require(data["free"] is True and data["witness"] is None, "a relation was reported")


# -- tampered witnesses ------------------------------------------------------------


def swap_one_image(group, data: dict, s1: tuple) -> dict:
    """Give the first element of phi1 the image of another element that is
    not one of its translates."""
    tampered = copy.deepcopy(data)
    pairs = tampered["verdict"]["phi1"]
    g0 = group.parse(pairs[0][0])
    allowed = {group.mul(g0, s) for s in s1}
    j = next(j for j, (_, t) in enumerate(pairs) if group.parse(t) not in allowed)
    pairs[0][1], pairs[j][1] = pairs[j][1], pairs[0][1]
    return tampered


def drop_one_element(group, verdict: dict, s1: tuple, s2: tuple) -> dict:
    """Drop an element whose removal ends the violation; the recorded union
    size is recounted, so only the violation test can catch it."""
    for key in ("a1", "a2"):
        for i in range(len(verdict[key])):
            tampered = copy.deepcopy(verdict)
            del tampered[key][i]
            a1 = [group.parse(t) for t in tampered["a1"]]
            a2 = [group.parse(t) for t in tampered["a2"]]
            union = len(_product_union(group, a1, s1, a2, s2))
            if union >= len(a1) + len(a2):
                tampered["union_size"] = union
                return tampered
    raise ValueError("every single drop still violates; nothing to tamper")


def move_one_piece_element(data: dict) -> dict:
    """Move one element from the first piece of family 1 to the second."""
    tampered = copy.deepcopy(data)
    family = tampered["pieces"]["pieces1"]
    source = next(i for i, (_, xs) in enumerate(family) if xs)
    target = (source + 1) % len(family)
    family[target][1].append(family[source][1].pop(0))
    return tampered


def edit_one_count(data: dict) -> dict:
    """Raise the left-hand side of the first ledger entry of the first audit."""
    tampered = copy.deepcopy(data)
    tampered["audits"][0]["ledger"][0]["lhs"] += 1
    return tampered
