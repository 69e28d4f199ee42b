"""Finite-type language: types, terms, formulas, parsing, printing."""
from .types import (Arrow, Base, FiniteType, N, Product, Seq, arrows, pure,
                    show_type)
from .terms import (Abs, App, CONST_NAMES, Const, INITSEG, RUN, SEQMAX, SUCC,
                    Term, TypeCheckError, Var, alpha_eq, app, append_c,
                    empty_c, free_vars, fresh_name, fst_c, get_c, infer_type,
                    lam, len_c, num, pair_c, rec_c, snd_c, spine, subterms)
from .formulas import (And, Atom, BExists, BForall, BQUANTS, Exists,
                       ExistsSt, FALSE, Forall, ForallSt, Formula, Implies,
                       Not, Or, QUANTS, TRUE, all_names_f, alpha_eq_f, conj,
                       disj, free_vars_f, is_internal, strip, subformulas,
                       subst_f)
from .parser import ParseError, parse_formula, parse_term, parse_type
from .printer import show_formula, show_term
from . import stdterms
