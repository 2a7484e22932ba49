"""Pseudo-token construction of the per-message joint tables.

The capped vector a = min(alpha/T, px) is extended with n pseudo entries of
R/n each (R = leftover mass above the cap) until the extension is T-hot
representable; the part-1 allocation then runs on keys of length N+n, and
every key's pseudo-column mass is folded back onto real tokens with weights
r(x)/R.  Fold-back never lands on a cell decoding to the embedded message,
so the decode-to-m column sums still equal min(alpha/T, px(x)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    JointTable,
    ReducedKeySet,
    TokenDistribution,
    WatermarkScheme,
    add_mass,
    check_instance,
)
from .errors import InvariantError, ParameterError
from .rationals import mass_to_string
from .split import cap_vector
from .construct_a import build_pm1, restore_token_order
from .thot import THotDecomposition, THotTerm, decompose_t_hot, is_t_hot_representable

__all__ = ["Extension", "extend_px", "construct_b"]


@dataclass(frozen=True)
class Extension:
    """Extended capped vector: px_prime = (a, (R/n) * ones(n)); r = px - a."""

    n: int
    px_prime: tuple[Fraction, ...]
    r: tuple[Fraction, ...]
    R: Fraction


def extend_px(
    px: TokenDistribution, alpha: Fraction, t: int, force_pseudo: bool = False
) -> Extension:
    """Choose the pseudo-token count and the extended vector.

    No extension is needed when the capped vector is already representable
    (force_pseudo overrides, taking the extension path anyway when there is
    leftover mass).  Otherwise n = ceil(R / a_max) pseudo entries of R/n
    make the total 1 while keeping every entry at most a_max, which
    guarantees representability since T * a_max <= alpha < 1.
    """
    a, r = cap_vector(px, alpha, t)
    big_r = sum(r, Fraction(0))
    representable = is_t_hot_representable(a, t)
    if (representable and not force_pseudo) or big_r == 0:
        return Extension(0, a, r, big_r)
    a_max = a[-1]
    if a_max == 0:
        raise ParameterError(
            "cannot extend: cap alpha/T is zero but mass remains above it"
        )
    n = math.ceil(big_r / a_max)
    px_prime = a + (Fraction(big_r, n),) * n
    if sum(px_prime) != 1:
        raise InvariantError(f"extended vector sums to {sum(px_prime)}")
    if not is_t_hot_representable(px_prime, t):
        raise InvariantError("extended vector is not representable")
    return Extension(n, px_prime, r, big_r)


def construct_b(
    px: TokenDistribution,
    alpha: Fraction,
    t: int,
    force_pseudo: bool = False,
    decomposition: THotDecomposition | None = None,
) -> WatermarkScheme:
    """Full scheme via extension; keys have length N + n, tokens stay 1..N.

    A caller-supplied decomposition replaces the greedy one: every term must
    have a positive weight and a 0/1 omega with exactly T ones, and the terms
    must reconstruct the extended vector exactly; term supports are read in
    the sorted token order.  The terms and the leftover r are then mapped to
    px's own order (restore_token_order), so each key is ranked once at its
    final positions.
    """
    alpha, t = check_instance(px, alpha, t)
    ext = extend_px(TokenDistribution(px.sorted_probs), alpha, t, force_pseudo=force_pseudo)
    length = px.n + ext.n
    keyset = ReducedKeySet(length, t)
    if decomposition is None:
        decomposition = decompose_t_hot(ext.px_prime, t)
    else:
        widths = {len(term.omega) for term in decomposition.terms}
        if widths - {length}:
            raise ParameterError(
                f"supplied terms have lengths {sorted(widths)}, expected {length}"
            )
        for k, term in enumerate(decomposition.terms, 1):
            if term.weight <= 0:
                raise ParameterError(f"supplied term {k} has non-positive weight {term.weight}")
            if set(term.omega) - {0, 1} or sum(term.omega) != t:
                raise ParameterError(f"supplied term {k} is not a {t}-hot 0/1 vector")
        if decomposition.reconstruct(length) != ext.px_prime:
            raise ParameterError(
                "supplied decomposition does not reconstruct the extended vector"
            )
    terms = decomposition.terms
    mapped = tuple(THotTerm(restore_token_order(px, term.omega), term.weight) for term in terms)
    prime_tables = build_pm1(THotDecomposition(mapped), keyset)

    n = px.n
    leftover = restore_token_order(px, ext.r)
    # Pseudo-token mass folds back only onto tokens with leftover r(x) > 0.
    shares = [(x, r / ext.R) for x, r in enumerate(leftover, start=1) if r > 0]
    tables: list[JointTable] = []
    for table in prime_tables:
        rows: dict[int, dict[int, Fraction]] = {}
        for key_index, token, mass in table.cells():
            if token <= n:
                add_mass(rows, key_index, token, mass)
            else:
                for x, share in shares:
                    add_mass(rows, key_index, x, mass * share)
        if ext.n == 0:
            for x in range(1, n + 1):
                add_mass(rows, keyset.zero_index, x, leftover[x - 1])
        folded = JointTable(table.m, rows)
        if folded.total_mass() != 1:
            raise InvariantError(f"table m={table.m} has mass {folded.total_mass()}")
        for key_index in folded.key_support():
            if folded.row_sum(key_index) != table.row_sum(key_index) + (
                ext.R if key_index == keyset.zero_index and ext.n == 0 else 0
            ):
                raise InvariantError(f"fold-back changed row sum of key {key_index}")
        tables.append(folded)

    provenance = {
        "method": "extended",
        "pseudo_tokens": ext.n,
        "leftover": mass_to_string(ext.R),
        "forced": force_pseudo,
    }
    return WatermarkScheme.assemble(alpha, px, keyset, tables, provenance=provenance)
