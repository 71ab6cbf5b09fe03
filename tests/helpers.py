"""Shared test utilities: random elements, small spec menageries and a
product counter."""

from __future__ import annotations

import random

from paradec import (
    GeneratingSet,
    cyclic_group,
    free_abelian_group,
    free_group,
    matrix_group,
)
from paradec.groups import GroupSpec


def all_model_specs():
    return [
        free_group(2),
        free_group(3),
        free_abelian_group(1),
        free_abelian_group(2),
        cyclic_group(5),
        cyclic_group(12),
        matrix_group(),
    ]


def random_element(spec, rng: random.Random, length: int = 6):
    """Random product of up to ``length`` symmetrized generators."""
    gens = [el for _, el in spec.standard_generators()]
    gens += [spec.invert(el) for el in gens]
    x = spec.identity()
    for _ in range(rng.randrange(length + 1)):
        x = spec.multiply(x, rng.choice(gens))
    return x


def standard_gens(spec) -> GeneratingSet:
    return GeneratingSet.standard(spec)


def record_products(monkeypatch, before=None) -> list:
    """Patch ``GroupSpec.multiply`` and ``GroupSpec.translates`` so that
    every product g·s formed through either appends its right factor s to
    the returned list, one entry per product.  ``before(s)``, if given,
    runs ahead of each entry and may raise to forbid the product.  A
    column counts one product per element, all before it is formed, and
    the products it forms through ``multiply`` are not counted again."""
    factors = []
    multiply = GroupSpec.multiply
    translates = GroupSpec.translates
    in_column = [False]

    def record(s, count):
        for _ in range(count):
            if before is not None:
                before(s)
            factors.append(s)

    def counted_multiply(self, x, y):
        if not in_column[0]:
            record(y, 1)
        return multiply(self, x, y)

    def counted_translates(self, elements, s):
        elements = list(elements)
        record(s, len(elements))
        in_column[0] = True
        try:
            return translates(self, elements, s)
        finally:
            in_column[0] = False

    monkeypatch.setattr(GroupSpec, "multiply", counted_multiply)
    monkeypatch.setattr(GroupSpec, "translates", counted_translates)
    return factors
