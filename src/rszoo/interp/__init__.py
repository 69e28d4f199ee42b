"""Finite evaluation layer: bounded models, oracle machines, and the
constructions the corpus entries bind against."""

from .machine import (DidNotHalt, HaltsWith, MachineError, Program,
                      decode_program, enumeration_alphabet, encode_program,
                      phi, program_count, run_program, theta)
from .model import (FnV, MiniModel, ModelError, ModelRefusal, eval_formula,
                    eval_term, quantifier, table_fn, tabulate, values_equal,
                    zero_value)
from .constructions import (build_construction, extensionality_search,
                            mu_op, parse_model_config, psi_theta, xi_search)
