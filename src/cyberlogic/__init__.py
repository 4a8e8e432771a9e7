"""Distributed evidential transactions: principals hold private
logic-program policies, answer queries by distributed proof search over
hereditary Harrop goals with attestation and knowledge modalities, and
emit signature-backed certificates that anyone can check independently.
"""

__version__ = "0.1.0"
