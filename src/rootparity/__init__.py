"""Parity sequences of consecutive primitive roots modulo a prime.

Construction, exact statistical and cryptographic quality measures
(balance, pattern distribution, linear and 2-adic complexity), bound
checks, reference-table reproduction and prime search.
"""

__version__ = "0.1.0"
