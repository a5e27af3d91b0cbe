"""Finite-horizon workbench for binary trees, pair colorings, and string families.

The package turns a family of classical constructions into executable,
deterministic code over finite data:

- :mod:`rkl.core` — binary strings, prefix-closed trees, pair colorings,
  graded string families, and homogeneity checks.
- :mod:`rkl.predlang` — a tiny total predicate language used wherever a
  construction is parameterized by an arithmetic matrix.
- :mod:`rkl.reductions` — translations between the data kinds: trees to
  stable colorings, colorings to graded families and back, staged
  enumerations to families, bounded two-quantifier membership, paired
  covering matrices to colorings, and sets to characteristic-prefix chains.
- :mod:`rkl.diagonal` — a tree construction that diagonalizes against
  staged enumerations, and the fixed-point-freeness check for its paths.
- :mod:`rkl.oracles` — exhaustive searches and verifiers: largest
  monochromatic sets, longest branches, stability evidence, and
  end-to-end reduction verdicts.
- :mod:`rkl.formats` — line-oriented text formats with deterministic
  rendering for every data kind.
- :mod:`rkl.cli` — the ``rkl`` command.

Everything is deterministic: ties are broken lexicographically with
``0 < 1``, color 0 is preferred over color 1, and serialized output is
sorted by (length, lex) so equal inputs give byte-identical output.
"""

from __future__ import annotations

from rkl.core import (
    BitString,
    FinTree,
    HomWitness,
    NatSet,
    NotPrefixClosed,
    PairColoring,
    StringFamily,
    downward_closure,
    is_homog_path,
    is_homog_string,
    lenlex,
    validate_tree,
)

__version__ = "0.1.0"

__all__ = [
    "BitString",
    "FinTree",
    "HomWitness",
    "NatSet",
    "NotPrefixClosed",
    "PairColoring",
    "StringFamily",
    "downward_closure",
    "is_homog_path",
    "is_homog_string",
    "lenlex",
    "validate_tree",
    "__version__",
]
