"""Shared fixtures: the negative-norm corpus and admissible pairs.

The corpus is the ten fixed scalar fields of the command line's
expression table (``cli._corpus()``), sampled on the unit square.  They
are deliberately non-symmetric: a field with an exact odd symmetry about
the center pairs to zero with every coarse test member, which is useful
as a dedicated enrichment example but poisons corpus-wide ratio bands.
"""

import pytest

from orlicz import cli, young

CORPUS_N = 64


def corpus_fields(n=CORPUS_N):
    return [(name, cli._square_field(name, n)) for name in cli._corpus()]


def admissible_pairs():
    return [
        ("p2:p2", young.power(2.0), young.power(2.0)),
        ("zyg11:p1", young.zygmund(1.0, 1.0), young.power(1.0)),
        ("exp1:exp05", young.exponential(1.0), young.exponential(0.5)),
    ]


@pytest.fixture(scope="session")
def negnorm_corpus():
    return corpus_fields()


@pytest.fixture(scope="session")
def negnorm_pairs():
    return admissible_pairs()
