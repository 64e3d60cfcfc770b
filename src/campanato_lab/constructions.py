"""Explicit extremal functions built along nested atom chains.

The chain construction starts from the root indicator and adds one
mean-zero increment per level; its atom averages grow like phi_star while
its oscillation norm stays bounded, which is what makes it the canonical
witness for lower bounds in the multiplier estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .filtration import build_dyadic, chain_to_root
from .functions import LeafFunction, MartingaleSequence, conditional_expectation
from .phi import eval_phi, quotient_phi
from .report import Check, VerificationReport

INEQ_SLACK = 1e-10


def _validate_chain(tree, chain):
    if len(chain) != tree.depth + 1:
        raise ValueError(f"chain has {len(chain)} atoms, expected {tree.depth + 1}")
    if chain[0] is not tree.root:
        raise ValueError("chain must start at the root atom")
    for prev, cur in zip(chain, chain[1:]):
        if cur.parent is not prev:
            raise ValueError(f"chain is not nested at atom {cur.id}")


def _increment(tree, coeff, prev, cur):
    """coeff * ((P(prev)/P(cur)) * chi_cur - chi_prev) as leaf values.

    Persistence steps (equal measures, same leaf span) produce the zero
    function without special-casing.
    """
    ratio = prev.measure / cur.measure
    values = [0] * tree.leaf_count
    for i in range(prev.leaf_start, prev.leaf_end):
        values[i] = -coeff
    on_cur = coeff * (ratio - 1)
    for i in range(cur.leaf_start, cur.leaf_end):
        values[i] = on_cur
    return LeafFunction(tree, values)


@dataclass(frozen=True)
class ChainConstruction:
    """The chain function f = chi_root + sum of increments, with its
    martingale of partial sums."""

    chain: tuple
    phi: object
    u_terms: tuple
    f: LeafFunction
    sequence: MartingaleSequence

    def truncation_tail_scale(self, p):
        """phi(P(B_N)) * P(B_N)^(1/p): the scale of the difference between
        this finite-depth sum and its infinite-chain limit (reported, not
        bounded away)."""
        m = float(self.chain[-1].measure)
        return float(eval_phi(self.phi, m)) * m ** (1.0 / p)


def extremal_chain_function(tree, chain, phi_spec):
    """Build the bounded-norm, growing-average function along a chain.

    Increment k has coefficient phi(P(B_k)); the k-th partial sum is
    measurable at level k, and the conditional expectations of the full
    sum reproduce the partial sums exactly.
    """
    _validate_chain(tree, chain)
    ones = [1] * tree.leaf_count
    u_terms = []
    partial = LeafFunction(tree, ones)
    partials = [partial]
    for k in range(1, len(chain)):
        coeff = eval_phi(phi_spec, float(chain[k].measure))
        u = _increment(tree, coeff, chain[k - 1], chain[k])
        u_terms.append(u)
        partial = partial + u
        partials.append(partial)
    return ChainConstruction(
        chain=tuple(chain),
        phi=phi_spec,
        u_terms=tuple(u_terms),
        f=partial,
        sequence=MartingaleSequence(tree, partials),
    )


def chain_values(tree, chain, phi_spec):
    """Leaf values of extremal_chain_function(tree, chain, phi_spec).f as a
    float array, built without the increments.

    A leaf in B_K but in no deeper chain atom has the value

        1 + sum_{k <= K} phi(P(B_k)) (P(B_{k-1})/P(B_k) - 1) - phi(P(B_{K+1}))

    (no last term when K = N), so the row is a table of N + 1 running sums
    indexed by K, and K is a cumulative sum of +-1 steps at the edges of
    the chain atoms' leaf spans.  For float weights the running sums add
    the same terms in the same order as the increments do.
    """
    _validate_chain(tree, chain)
    coeff = [float(eval_phi(phi_spec, float(B.measure))) for B in chain[1:]]
    coeff.append(0.0)
    ring = [1.0 - coeff[0]]
    total = 1.0
    for k in range(1, len(chain)):
        ratio = chain[k - 1].measure / chain[k].measure
        total += coeff[k - 1] * float(ratio - 1)
        ring.append(total - coeff[k])
    edges = np.zeros(tree.leaf_count + 1, dtype=np.int64)
    for B in chain:
        edges[B.leaf_start] += 1
        edges[B.leaf_end] -= 1
    return np.asarray(ring)[np.cumsum(edges[:-1]) - 1]


def h_function(tree, chain, phi_spec):
    """The mean-zero part: the sum of the chain increments alone."""
    _validate_chain(tree, chain)
    total = LeafFunction(tree, [0] * tree.leaf_count)
    for k in range(1, len(chain)):
        coeff = eval_phi(phi_spec, float(chain[k].measure))
        total = total + _increment(tree, coeff, chain[k - 1], chain[k])
    return total


def dyadic_h_closed_form(depth, leaf_index, tree=None):
    """Closed form of the chain sum on the dyadic tree with the
    reciprocal-log weight.

    The coefficient at level k is 1/(1 + k log 2), and on the ring
    B_n minus B_{n+1} the value is the k <= n coefficient sum minus the
    (n+1)-st coefficient; on the final atom it is the full sum.  The sup
    of |h| grows without bound as depth increases.
    """
    if tree is None:
        tree = build_dyadic(depth)
    elif tree.depth != depth or tree.leaf_count != 2 ** depth:
        raise ValueError("tree is not dyadic of the requested depth")
    leaf = tree.leaves[leaf_index]
    chain = chain_to_root(tree, leaf)
    log2 = math.log(2.0)
    coeff = [0.0] + [1.0 / (1.0 + k * log2) for k in range(1, depth + 2)]
    values = [0.0] * tree.leaf_count
    running = 0.0
    for n in range(depth):
        ring_value = running - coeff[n + 1]
        cur, nxt = chain[n], chain[n + 1]
        for i in range(cur.leaf_start, cur.leaf_end):
            if not nxt.leaf_start <= i < nxt.leaf_end:
                values[i] = ring_value
        running += coeff[n + 1]
    for i in range(chain[depth].leaf_start, chain[depth].leaf_end):
        values[i] = running
    return LeafFunction(tree, values)


def sin_h_multiplier(tree, chain, phi_spec):
    """g = sin(h) with increments weighted by phi/phi_star.

    Bounded by 1 in sup norm, and inherits the chain sum's oscillation
    bounds up to the Lipschitz factor 2, so it is the standard example of
    a multiplier that is not a norm-trivial one.
    """
    h = h_function(tree, chain, quotient_phi(phi_spec))
    return h.apply(lambda v: math.sin(float(v)))


def lipschitz_compose_check(f, lip_constant, composed):
    """Check on every atom that composing with a Lipschitz map at most
    doubles the (scaled) mean oscillation: for all atoms B at level n,

        int_B |F(f) - E_n F(f)| dP  <=  2 C int_B |f - E_n f| dP.

    The caller asserts that `composed` is F(f) with |F' | <= lip_constant.
    """
    from .norms import _level_cints

    tree = f.tree
    if composed.tree is not tree:
        raise ValueError("functions live on different trees")
    worst_margin = -math.inf
    worst_ratio = 0.0
    worst_witness = None
    atoms_checked = 0
    block = np.stack([composed.values_array, f.values_array])
    for n, ((lhs, rhs), _) in enumerate(_level_cints(tree, block, 1)):
        for j, (a, b) in enumerate(zip(lhs, rhs)):
            atoms_checked += 1
            margin = float(a - 2.0 * lip_constant * b)
            if margin > worst_margin:
                worst_margin = margin
                worst_witness = (n, j)
            if b > 1e-15:
                worst_ratio = max(worst_ratio, float(a / b))
    check = Check(
        name="lipschitz_composition_factor2",
        anchor="composition with a Lipschitz map doubles mean oscillation "
               "at most",
        measured={"worst_margin": worst_margin, "worst_ratio": worst_ratio,
                  "lip_constant": float(lip_constant),
                  "atoms_checked": atoms_checked},
        threshold=f"margin <= {INEQ_SLACK}",
        passed=worst_margin <= INEQ_SLACK,
        witness=list(worst_witness) if worst_witness else None,
    )
    return VerificationReport(suite="lipschitz_composition", checks=[check])


def chain_through_leaf(tree, leaf_index):
    """Convenience: the root-to-leaf chain through the given leaf index."""
    return chain_to_root(tree, tree.leaves[leaf_index])


def measure_chain_constants(construction, p, phi_spec):
    """Measured constants of the chain construction.

    Returns (upper, lower): `upper` is the full norm of f; `lower` is the
    min over levels of |f_{B_n}| / phi_star(P(B_n)).  The construction
    promises upper bounded and lower bounded away from 0, uniformly over
    chains.
    """
    from .functions import atom_average
    from .norms import campanato_norm
    from .phi import phi_star

    f = construction.f
    upper = float(campanato_norm(f, p, phi_spec, exact=False).value)
    lower = math.inf
    for B in construction.chain:
        star = phi_star(phi_spec, float(B.measure))
        lower = min(lower, abs(float(atom_average(f, B))) / star)
    return upper, lower


def martingale_identity_defect(construction):
    """max deviation between E_n f and the stored n-th partial sum."""
    f = construction.f
    worst = 0
    for n, fn in enumerate(construction.sequence.levels):
        en = conditional_expectation(f, n)
        for a, b in zip(en.values, fn.values):
            d = abs(a - b)
            if d > worst:
                worst = d
    return worst
