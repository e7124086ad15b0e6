"""Logic: syntax, macros, concrete syntax, evaluation, prenex transforms."""

from .ast import (And, Eq, Exists, Forall, Formula, Implies, Le, Lt, Not, Or,
                  SAdd, SConst, SNeg, SNorm, SVar, VAdd, VNeg, VScale, VVar,
                  VZero, VecEq, check_sorts, conj, free_vars,
                  is_quantifier_free, node_count)
from .evaluate import (Assignment, Counterexample, HoldsOnSamples, Sampler,
                       eval_bounded, eval_qf, strip_universal_prefix)
from .macros import (MacroEnv, mk_Def, mk_pG, mk_pMult, mk_pN, mk_pNNMult,
                     mk_pOK, mk_pPar, mk_pPi, mk_pRotund, mk_pSD, mk_pSIN,
                     mk_pW, mk_Periodic, mk_pair_eq, mk_pair_ge, mk_pair_gt,
                     mk_pair_lt)
from .pairs import (E1_VAR, E2_VAR, PairExpr, numeral, padd, pair_var, pneg,
                    pscale, psub)
from .prenex import check_aia_shape, prenex_variants
from .sentences import (b_variable_blocks, mk_A, mk_A_prime, mk_B, mk_B_prime,
                        mk_star)
from .sexpr import parse_sentence, print_sentence
