"""Explicit extremal functions built along nested atom chains.

The chain construction starts from the root indicator and adds one
mean-zero increment per level; its atom averages grow like phi_star while
its oscillation norm stays bounded, which is what makes it the canonical
witness for lower bounds in the multiplier estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .filtration import (build_dyadic, chain_to_root, common_denominator,
                         is_dyadic)
from .functions import (LeafFunction, MartingaleSequence,
                        conditional_expectation, linf_norm)
from .norms import _level_cints, campanato_norm
from .phi import eval_phi, phi_star, quotient_phi
from .report import INEQ_SLACK, Check, VerificationReport


def _validate_chain(tree, chain):
    if len(chain) != tree.depth + 1:
        raise ValueError(f"chain has {len(chain)} atoms, expected {tree.depth + 1}")
    if chain[0] is not tree.root:
        raise ValueError("chain must start at the root atom")
    for prev, cur in zip(chain, chain[1:]):
        if cur.parent is not prev:
            raise ValueError(f"chain is not nested at atom {cur.id}")


def _chain_table(tree, chain, phi_spec, start):
    """The running sums behind every chain construction.

    With c_k = phi(P(B_k)), totals[n] = start + sum_{k <= n} c_k
    (P(B_{k-1})/P(B_k) - 1) is the value of the n-th partial sum on B_n.
    A leaf in B_K but in no deeper chain atom has the value ring[K] =
    totals[K] - c_{K+1} (ring[N] = totals[N]); `deepest` holds K per leaf,
    a cumulative sum of +-1 steps at the edges of the chain atoms' leaf
    spans.  The sums use the scalars the weight and the tree provide:
    ints and Fractions stay exact, anything float makes them floats.
    """
    _validate_chain(tree, chain)
    # totals[k] and ring[k - 1] depend on B_k alone, so they are kept per
    # atom on the tree and shared by every chain through it
    sums = tree._phi_cache.setdefault(("chain sums", phi_spec, start), {})
    totals, ring = [start], []
    for prev, cur in zip(chain, chain[1:]):
        entry = sums.get(cur.id)
        if entry is None:
            c, t = eval_phi(phi_spec, float(cur.measure)), totals[-1]
            entry = sums[cur.id] = (
                t + c * (prev.measure / cur.measure - 1), t - c)
        totals.append(entry[0])
        ring.append(entry[1])
    ring.append(totals[-1])
    edges = np.zeros(tree.leaf_count + 1, dtype=np.int64)
    for B in chain:
        edges[B.leaf_start] += 1
        edges[B.leaf_end] -= 1
    return totals, ring, np.cumsum(edges[:-1]) - 1


def _from_table(tree, row, index):
    """The leaf function with value row[index[i]] on leaf i: exact, on the
    row's numerators over its one denominator, when the row is rational
    (common_denominator fails on a float), and float64 otherwise."""
    try:
        nums, den = common_denominator(row)
    except AttributeError:
        return LeafFunction.from_float_array(
            tree, np.array([float(v) for v in row])[index])
    return LeafFunction._from_numerators(
        tree, np.array(nums, dtype=object)[index], den)


@dataclass(frozen=True, eq=False)
class ChainConstruction:
    """The chain function f = chi_root + sum_k phi(P(B_k)) (P(B_{k-1})/P(B_k)
    chi_{B_k} - chi_{B_{k-1}}), with the running sums it was built from."""

    chain: tuple
    phi: object
    f: LeafFunction
    totals: tuple
    ring: tuple
    deepest: np.ndarray

    def partial_sum(self, n):
        """The n-th partial sum, measurable at level n: ring[K] on a leaf
        whose deepest chain atom B_K has K < n, totals[n] on B_n."""
        return _from_table(self.f.tree, self.ring[:n] + (self.totals[n],),
                           np.minimum(self.deepest, n))

    @property
    def sequence(self):
        """The martingale of partial sums, built on demand."""
        return MartingaleSequence(self.f.tree,
                                  [self.partial_sum(n)
                                   for n in range(len(self.chain))])

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
    totals, ring, deepest = _chain_table(tree, chain, phi_spec, 1)
    return ChainConstruction(chain=tuple(chain), phi=phi_spec,
                             f=_from_table(tree, ring, deepest),
                             totals=tuple(totals), ring=tuple(ring),
                             deepest=deepest)


def chain_values(tree, chain, phi_spec):
    """Leaf values of extremal_chain_function(tree, chain, phi_spec).f as a
    float array: the ring of its running-sum table in float64, indexed by
    each leaf's deepest chain level."""
    _, ring, deepest = _chain_table(tree, chain, phi_spec, 1)
    return np.array([float(v) for v in ring])[deepest]


def h_function(tree, chain, phi_spec):
    """The mean-zero part: the sum of the chain increments alone."""
    _, ring, deepest = _chain_table(tree, chain, phi_spec, 0)
    return _from_table(tree, ring, deepest)


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
    elif tree.depth != depth or not is_dyadic(tree):
        raise ValueError("tree is not dyadic of the requested depth")
    chain = chain_to_root(tree, tree.leaves[leaf_index])
    log2 = math.log(2.0)
    values = [0.0] * tree.leaf_count
    running = 0.0
    for n, B in enumerate(chain):
        # B_n's value; the chain atoms below overwrite all but its ring
        coeff = 1.0 / (1.0 + (n + 1) * log2) if n < depth else 0.0
        values[B.leaf_start:B.leaf_end] = \
            [running - coeff] * (B.leaf_end - B.leaf_start)
        running += coeff
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
    min over levels of |f_{B_n}| / phi_star(P(B_n)), with f_{B_n} read off
    E_n f.  The construction promises upper bounded and lower bounded
    away from 0, uniformly over chains.
    """
    f = construction.f
    upper = float(campanato_norm(f, p, phi_spec, exact=False).value)
    return upper, min(
        abs(float(conditional_expectation(f, n).values_array[B.leaf_start]))
        / phi_star(phi_spec, float(B.measure))
        for n, B in enumerate(construction.chain))


def martingale_identity_defect(construction):
    """max over n < N of sup |E_n f - (n-th partial sum)| (E_N f is f):
    the int 0 when the identity holds, else a Fraction for rational f and
    partial sums on a rational tree, or a float."""
    f = construction.f
    worst = 0
    for n in range(f.tree.depth):
        d = linf_norm(conditional_expectation(f, n)
                      - construction.partial_sum(n))
        if d > worst:
            worst = d if isinstance(d, float) else Fraction(d)
    return worst
