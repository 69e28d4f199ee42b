"""Finite evaluation layer: bounded models, oracle machines, and the
constructions the corpus entries bind against."""

from .machine import (DidNotHalt, HaltsWith, MachineError, Program,
                      decode_program, enumeration_alphabet, encode_program,
                      phi, program_count, run_program)
from .model import (FnV, MiniModel, ModelError, ModelRefusal, PairV, SeqV,
                    eval_formula, eval_term, parse_model_config,
                    show_model_config, table_fn, tabulate, values_equal,
                    zero_value)
from .constructions import (NoZero, SideConditionError, bounds_pair,
                            build_construction, cohesive_Rprime, colouring_d0,
                            extensionality_search, lt0_order, meeh_g,
                            mu_bruteforce, mu_op, point_at_infinity_Y0,
                            prec_order, psi_theta, theta, uads_selector,
                            udnr_counterexample_D, xi_search)

__all__ = [
    "DidNotHalt", "HaltsWith", "MachineError", "Program", "decode_program",
    "enumeration_alphabet", "encode_program", "phi", "program_count",
    "run_program",
    "FnV", "MiniModel", "ModelError", "ModelRefusal", "PairV", "SeqV",
    "eval_formula", "eval_term", "parse_model_config", "show_model_config",
    "table_fn", "tabulate", "values_equal", "zero_value",
    "NoZero", "SideConditionError", "bounds_pair", "build_construction",
    "cohesive_Rprime", "colouring_d0", "extensionality_search", "lt0_order",
    "meeh_g", "mu_bruteforce", "mu_op", "point_at_infinity_Y0", "prec_order",
    "psi_theta", "theta", "uads_selector", "udnr_counterexample_D",
    "xi_search",
]
