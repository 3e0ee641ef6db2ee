"""innerscope: decision procedures for extended inner endomorphisms.

Subpackages cover reduced words over free products with a finite group,
tensor conditions on algebra endomorphisms and derivations, diamond-lemma
rewriting for finitely presented checks, co-inner maps on G-sets, and a
twisted truncated embedding that certifies injectivity.
"""

__version__ = "0.1.0"

from .exactmath import QQ, GF, Field
