"""Distributed evidential transactions: principals hold private
logic-program policies, answer queries by distributed proof search over
hereditary Harrop goals with attestation and knowledge modalities, and
emit signature-backed certificates that anyone can check independently.
"""

from .errors import (
    CyberlogicError,
    ParseError,
    SortError,
    FragmentError,
    MacroError,
    CodecError,
    FlounderError,
    RouteError,
    TransportError,
)
from .syntax import (
    Var,
    Const,
    FunApp,
    Top,
    Bottom,
    Atom,
    Attest,
    Knows,
    And,
    Or,
    Implies,
    Forall,
    Exists,
    Clause,
    Policy,
    normalize,
    clauses_of,
    fmt_formula,
    fmt_clause,
)
from .parser import parse_policy, parse_goal, base_signature
from .crypto import (
    KeyPair,
    PrincipalId,
    SignedAttestation,
    Directory,
    keygen,
    sign_attestation,
    verify_attestation,
    save_keypair,
    load_keypair,
)
from .codec import (
    encode_formula,
    decode_formula,
    encode_certificate,
    decode_certificate,
    encode_policy,
    policy_digest,
)
from .evidence import (
    Certificate,
    CheckResult,
    HypothesisEnv,
    check,
    check_certificate,
    make_certificate,
    render_spine,
)
from .engine import Prover, Answer, unify, mgu, DEFAULT_DEPTH
from .services import TrustedServices, Registry, CheckerEndpoint, remote_check
from .node import Node, SimNetwork, TcpTransport, serve_node
from .scenarios import SCENARIOS, build_world, World, ScenarioResult

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
