"""Multivariate Ore polynomial arithmetic over finite fields, with a
Diffie-Hellman-like key exchange and its companion protocols."""

from .commuting import ConstantPolynomial, random_constant_polynomial, sample_private
from .costs import (CostReport, SecurityTuple, brute_force_steps, check_reference_table,
                    cost_report, initial_message_steps, key_size_kb,
                    power_ladder_steps, power_ladder_steps_exact, secret_param_steps,
                    shared_secret_steps)
from .division import left_cofactor, right_cofactor
from .encoding import capacity_bytes, decode_bytes, encode_bytes, min_degree_bound
from .errors import (EncodingError, NotDivisibleError, OreKexError, ParseError,
                     ProtocolError, RingMismatchError, ResampleExhaustedError,
                     ZeroInverseError)
from .fields import Automorphism, FieldElement, FieldSpec
from .orepoly import OrePolynomial, random_polynomial
from .protocols import (CommutingSetup, FactorizationProver, KexResult,
                        PrivateTuple, ProtocolTranscript, PublicParameters,
                        SignatureTuple, ThreePassResult, ZkpCommitment, ZkpRound,
                        decrypt, encrypt, encryption_keygen, kex_finalize,
                        kex_message, run_key_exchange, run_zkp, sign,
                        signature_keygen, signature_sides, three_pass_exchange,
                        verify_signature, zkp_verify_round, REVEAL_P, REVEAL_PI)
from .rings import OreRing, RING_ALIASES, f125_spec, ring_by_name, skew_ring, weyl_ring
from .weakkeys import GradingVector, ScreenReport, grading_vector, screen_private_key

__version__ = "0.1.0"
