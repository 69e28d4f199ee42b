"""Finite-type language: types, terms, formulas, parsing, printing."""
from .types import Arrow, Base, FiniteType, N, Seq, arrows, pure, show_type
from .terms import (Abs, App, CONST_NAMES, Const, INITSEG, RUN, SUCC, Term,
                    TypeCheckError, Var, app, free_vars, fresh_name,
                    infer_type, lam, num, rec_c, spine, subterms)
from .formulas import (And, Atom, Exists, ExistsSt, Forall, ForallSt,
                       Formula, Implies, Not, Or, QUANTS, all_names_f, conj,
                       free_vars_f, is_internal, strip, subformulas, subst_f)
from .parser import ParseError, parse_formula, parse_term, parse_type
from .printer import show_formula, show_term
from . import stdterms
