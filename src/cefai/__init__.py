"""Competitive equilibrium with indivisible items and unequal incomes.

Solvers that implement an equilibrium as a subgame-perfect play of a
priced picking sequence, an exact verifier for candidate equilibria, a
brute-force existence oracle, generalized share-guarantee audits, and
the canonical markets where no equilibrium exists.  The top-level names
below are the entry points; everything else lives in the submodules.
"""

from .core import PreferenceOrder, make_preference
from .fairness import audit_ce_fairness
from .instances import NAMED_INSTANCES
from .market import Allocation, CEPair, IncomeVector, PriceVector, verify_ce
from .oracle import ce_exists
from .pixep import NoValidSpeError
from .solver import NotGenericError, UnsupportedCaseError, solve

__version__ = "0.1.0"
