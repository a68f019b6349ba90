"""Counting first-order queries over sparse structures.

Two interchangeable evaluation paths: a by-definition reference evaluator,
and a localized engine that decomposes counting terms into neighborhood
counts over ball covers and answers them through a recursive
remove-one-element scheme.  Supporting machinery: an expression grammar,
cluster decompositions, ball covers with an exactly solved removal game,
element-removal transforms, and tree/string graph encodings.  Import the
submodules directly, e.g. `focount.localeval.evaluate`.
"""

__version__ = "0.1.0"
