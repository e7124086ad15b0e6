"""Reduction: arithmetic parsing, flattening, compilation, witness lifting."""

from .arith import (AAdd, AAnd, AEq, ALe, AMul, ANat, ANot, AOr, AVar,
                    ArithFormula, bounded_nat_sat, eval_arith, parse_arith,
                    print_arith, var_count, variables)
from .compiler import ReductionOutput, compile_formula, macro_env, \
    render_additive
from .flatten import FlattenResult, flatten_multiplications, has_mul
from .lift import (bind_pair, canonical_assignment, lift_witness,
                   sine_certificates)
