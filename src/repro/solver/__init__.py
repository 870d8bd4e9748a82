"""From-scratch SMT solving stack for quantifier-free LIA + EUF.

Public entry points:

- :class:`~repro.solver.terms.TermManager` — build formulas.
- :class:`~repro.solver.smt.Solver` — satisfiability checking with models.
- :class:`~repro.solver.validity.ValidityChecker` — the paper's validity
  queries ``∀F ∃X (A ⇒ pc)`` with test-strategy extraction.
- :class:`~repro.solver.euf.CongruenceClosure` — standalone EUF reasoning.
- :class:`~repro.solver.lia.LiaSolver` — standalone integer arithmetic.
- :class:`~repro.solver.sat.SatSolver` — standalone CDCL SAT.
"""

from .terms import FunctionSymbol, Kind, Sort, Term, TermManager
from .sat import SatSolver, SatResult, SatStats
from .euf import CongruenceClosure, EufResult, check_euf_conjunction
from .simplex import Simplex, SimplexResult
from .lia import LiaSolver, LiaResult
from .intervals import Bound, BoundsAnalysis
from .cache import QueryCache, use_cache
from .session import PrefixSession, SolverSession
from .smt import Solver, Model, CheckResult, ackermannize
from .evalmodel import evaluate, evaluate_with_oracle
from .nnf import atoms_of, conjunctive_branches, to_nnf
from .printer import script_for_sat, script_for_validity, term_to_smtlib
from .certificates import InvalidityCertificate, ValidityCertificate, certify

__all__ = [
    "Bound",
    "BoundsAnalysis",
    "evaluate_with_oracle",
    "atoms_of",
    "conjunctive_branches",
    "to_nnf",
    "script_for_sat",
    "script_for_validity",
    "term_to_smtlib",
    "InvalidityCertificate",
    "ValidityCertificate",
    "certify",
    "FunctionSymbol",
    "Kind",
    "Sort",
    "Term",
    "TermManager",
    "SatSolver",
    "SatResult",
    "SatStats",
    "CongruenceClosure",
    "EufResult",
    "check_euf_conjunction",
    "Simplex",
    "SimplexResult",
    "LiaSolver",
    "LiaResult",
    "Solver",
    "Model",
    "CheckResult",
    "ackermannize",
    "evaluate",
    "QueryCache",
    "use_cache",
    "PrefixSession",
    "SolverSession",
]
