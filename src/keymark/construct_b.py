"""Pseudo-token construction of the per-message joint tables.

The capped vector a = min(alpha/T, px) is extended with n pseudo entries of
R/n each (R = leftover mass above the cap) until the extension is T-hot
representable.  R, n and the extension's checks are taken on px's
numerators over split.capped's common denominator, with one Fraction for
R and one for R/n.  n grows as T/alpha, so a part-1 bound above
ENUMERATION_CAP raises CapacityError before the extension is built.
Part 1 gives each term's weight, per cell, to the T cyclic shifts of 1..T
over its support in the sorted view's order (not T! keys) on keys of
length N+n, and every key's pseudo-column mass is folded back onto
real tokens with weights r(x)/R.  Fold-back never lands on a cell decoding to
the embedded message, so decode-to-m column sums still equal min(alpha/T, px(x)).
The weights total 1, one exact check, so each folded row keeps its part-1
row sum.  With no pseudo token there is nothing to fold: each table keeps
part 1's rows as they are and adds the all-zero key's row of leftover r.
The mass check, every table summing to 1, reads the decoded view's integer
totals, which check_scheme then reuses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import (
    ENUMERATION_CAP,
    JointTable,
    ReducedKeySet,
    TokenDistribution,
    WatermarkScheme,
    add_mass,
    check_instance,
    check_listing,
)
from .errors import InvariantError, ParameterError
from .rationals import exact_sum, mass_to_string
from .split import capped
from .construct_a import KeyListing, assemble_checked, build_pm1, restore_token_order
from .thot import THotDecomposition, decompose_t_hot

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
    guarantees representability since T * a_max <= alpha < 1.  Part 1 lists
    at most T cyclic keys for each of at most N + n terms, so more than
    ENUMERATION_CAP of those raise CapacityError before px_prime is built.
    R, n and every check are taken on ints over split.capped's E.
    """
    alpha, t = check_instance(px, alpha, t)
    c = capped(px, alpha, t)
    leftover = c.scale * sum(c.numerators[c.light :]) - c.cap * (px.n - c.light)  # R * E
    big_r = Fraction(leftover, c.common)
    a_max = c.entry(px.n - 1)
    if (t * a_max <= c.total and not force_pseudo) or leftover == 0:
        return Extension(0, c.a, c.r, big_r)
    if a_max == 0:
        raise ParameterError(
            "cannot extend: cap alpha/T is zero but mass remains above it"
        )
    n = -(-leftover // a_max)
    length = px.n + n
    check_listing(
        t * length, f"part-1 keys ({length} terms of {t} cyclic keys, {n} pseudo tokens)",
        ENUMERATION_CAP,
    )
    px_prime = c.a + (Fraction(leftover, c.common * n),) * n
    # Over E * n: a(i) reads a(i) * E * n and each pseudo entry R * E.
    total = n * c.total + n * leftover
    if total != n * c.common:
        raise InvariantError(f"extended vector sums to {Fraction(total, n * c.common)}")
    if t * max(n * a_max, leftover) > total:
        raise InvariantError("extended vector is not representable")
    return Extension(n, px_prime, c.r, big_r)


def construct_b(
    px: TokenDistribution,
    alpha: Fraction,
    t: int,
    force_pseudo: bool = False,
    decomposition: THotDecomposition | None = None,
) -> WatermarkScheme:
    """Full scheme via extension; keys have length N + n, tokens stay 1..N.

    A caller-supplied decomposition, read in the sorted token order, replaces
    the greedy one; it needs length N + n and the extended vector as its
    reconstruction.  Supports and the leftover r then move to px's own order,
    so each key is ranked once at its final positions.
    """
    alpha, t = check_instance(px, alpha, t)
    ext = extend_px(TokenDistribution(px.sorted_probs), alpha, t, force_pseudo=force_pseudo)
    length = px.n + ext.n
    keyset = ReducedKeySet(length, t)
    if decomposition is None:
        decomposition = decompose_t_hot(ext.px_prime, t)
    else:
        if decomposition.length != length:
            raise ParameterError(f"supplied length {decomposition.length} != key length {length}")
        if decomposition.reconstruct() != ext.px_prime:
            raise ParameterError(
                "supplied decomposition does not reconstruct the extended vector"
            )
    listing = KeyListing(keyset)
    prime_tables = build_pm1(decomposition, keyset, listing, px.sort_perm + tuple(range(px.n, length)))

    leftover = restore_token_order(px, ext.r)
    if ext.n == 0:
        # Nothing to fold: each table takes part 1's rows as they are (part 1
        # never lists the all-zero key) after that key's row of leftover
        # mass.  Its index is 0, so the rows stay in order.
        zero_row = {x: r for x, r in enumerate(leftover, start=1) if r}
        tables = []
        for table in prime_tables:
            rows = {keyset.zero_index: dict(zero_row), **table.rows} if zero_row else table.rows
            tables.append(JointTable.unchecked(table.m, rows))
    else:
        # Pseudo-token mass folds back onto the tokens with leftover r(x) > 0
        # in shares r(x)/R.  The shares total 1, so each folded row keeps its
        # part-1 row sum: one exact check covers every row of every table.
        shares = [(x, r / ext.R) for x, r in enumerate(leftover, start=1) if r > 0]
        if exact_sum(share for _, share in shares) != 1:
            raise InvariantError("fold-back shares do not total 1")
        tables = [_fold_back(table, px.n, shares) for table in prime_tables]

    provenance = {
        "method": "extended",
        "pseudo_tokens": ext.n,
        "leftover": mass_to_string(ext.R),
        "forced": force_pseudo,
    }
    return assemble_checked(alpha, px, keyset, tables, provenance, listing)


def _fold_back(table: JointTable, n: int, shares: Sequence[tuple[int, Fraction]]) -> JointTable:
    """table with each cell on a token above n spread over (x, share) pairs."""
    rows: dict[int, dict[int, Fraction]] = {}
    for key_index, token, mass in table.cells():
        if token <= n:
            add_mass(rows, key_index, token, mass)
        else:
            for x, share in shares:
                add_mass(rows, key_index, x, mass * share)
    return JointTable(table.m, rows)
