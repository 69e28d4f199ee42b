"""rszoo: a symbolic workbench for uniform arithmetic principles.

The package mechanizes a proof-transformation pipeline over a
finite-type language with a standardness predicate: normalizing a
uniform principle into a two-block normal form in each direction,
checking scripts of witness rows against them, extracting explicit
witnessing terms, and validating everything against small exhaustive
models.
"""
__version__ = "0.1.0"
