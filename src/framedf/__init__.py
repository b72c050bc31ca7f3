"""framedf: frame difference families and what they build.

Exact construction and verification of strong/relative/frame/partitioned
difference families over finite abelian groups, cyclotomic lifting of
strong difference families over finite fields, resolvable block design
assembly, and the derived constant composition codes and frequency
hopping sequences.  Each layer is a submodule imported by name
(``from framedf import designs``); importing the package loads none of them.
"""

__version__ = "0.1.0"
