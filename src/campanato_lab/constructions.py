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

from .filtration import build_dyadic, chain_to_root, is_dyadic
from .functions import (LeafFunction, MartingaleSequence,
                        conditional_expectation, linf_norm)
from .norms import _level_cints, campanato_norm
from .phi import eval_phi, phi_star, quotient_phi
from .report import VerificationReport, limit_check, margins


def _validate_chain(tree, chain):
    """The atom indices of `chain`, which must be chain_to_root's chain."""
    if list(chain) != chain_to_root(tree, chain[-1]):
        raise ValueError("chain is not nested from the root to its last atom")
    return [B.index for B in chain]


def _chain_table(tree, path, phi_spec, start):
    """The running sums behind every chain construction, along the chain
    with the atom indices `path` (root first, as from _validate_chain).

    With c_k = phi(P(B_k)), totals[n] = start + sum_{k <= n} c_k
    (P(B_{k-1})/P(B_k) - 1) is the value of the n-th partial sum on B_n.
    A leaf in B_K but in no deeper chain atom has the value ring[K] =
    totals[K] - c_{K+1} (ring[N] = totals[N]); `deepest` holds K per leaf.
    The chain atoms' leaf spans are nested, so K runs 0, ..., N between
    their starts and N - 1, ..., 0 between their ends.  Returns (totals,
    ring, den, deepest).  With the constant weight on a rational tree, or
    with no step at all, the sums are Python ints over den, the lcm of the
    chain's measure numerators S_k, as P(B_{k-1})/P(B_k) - 1 =
    (S_{k-1} - S_k)/S_k; otherwise they are floats added left to right
    (den is None), each step (S_{k-1} - S_k)/S_k correctly rounded on a
    rational tree and P(B_{k-1})/P(B_k) - 1 on a float one.
    """
    levels, tree_den = tree.numerator_arrays()
    rational = tree_den is not None
    s, edges = [], [0] * (2 * len(path))  # edges: span starts, then ends
    for n, i in enumerate(path):
        starts, lengths, _ = tree.level_arrays(n)
        s.append(levels[n].item(i))
        edges[n] = starts.item(i)
        edges[-1 - n] = edges[n] + lengths.item(i)
    if len(s) == 1 or rational and phi_spec.family == "one":
        den = math.lcm(*s[1:])
        totals = [start * den]
        for a, b in zip(s, s[1:]):
            totals.append(totals[-1] + (a - b) * (den // b))
        ring = [t - den for t in totals[:-1]]
    else:
        totals, ring, den = [start], [], None
        for n, a, b in zip(range(1, len(s)), s, s[1:]):
            c = eval_phi(phi_spec, tree.level_arrays(n)[2][path[n]])
            ring.append(totals[-1] - c)
            totals.append(totals[-1] + c * ((a - b) / b if rational
                                            else a / b - 1))
    ring.append(totals[-1])
    edges = np.array(edges)
    steps = list(range(len(path))) + list(range(len(path) - 2, -1, -1))
    return totals, ring, den, np.array(steps).repeat(edges[1:] - edges[:-1])


def _from_table(tree, row, den, index):
    """The leaf function with value row[index[i]] on leaf i: the row's
    integer numerators over den, or its floats when den is None."""
    if den is None:
        return LeafFunction.from_float_array(
            tree, np.array(row, dtype=np.float64)[index])
    return LeafFunction._from_numerators(
        tree, np.array(row, dtype=object)[index], den)


@dataclass(frozen=True, eq=False)
class ChainConstruction:
    """The chain function f = chi_root + sum_k phi(P(B_k)) (P(B_{k-1})/P(B_k)
    chi_{B_k} - chi_{B_{k-1}}), with the running sums it was built from."""

    chain: tuple
    phi: object
    f: LeafFunction
    totals: tuple
    ring: tuple
    den: object
    deepest: np.ndarray

    def partial_sum(self, n):
        """The n-th partial sum, measurable at level n: ring[K] on a leaf
        whose deepest chain atom B_K has K < n, totals[n] on B_n.  The 0-th
        is the int 1 on every leaf, as in the table of a one-atom chain."""
        den = 1 if n == 0 and self.den is None else self.den
        return _from_table(self.f.tree, self.ring[:n] + (self.totals[n],),
                           den, np.minimum(self.deepest, n))

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
        m = self.f.tree.leaf_measures_f().item(self.chain[-1].index)
        return float(eval_phi(self.phi, m)) * m ** (1.0 / p)


def extremal_chain_function(tree, chain, phi_spec):
    """Build the bounded-norm, growing-average function along a chain.

    Increment k has coefficient phi(P(B_k)); the k-th partial sum is
    measurable at level k, and the conditional expectations of the full
    sum reproduce the partial sums exactly.
    """
    totals, ring, den, deepest = _chain_table(
        tree, _validate_chain(tree, chain), phi_spec, 1)
    return ChainConstruction(chain=tuple(chain), phi=phi_spec,
                             f=_from_table(tree, ring, den, deepest),
                             totals=tuple(totals), ring=tuple(ring), den=den,
                             deepest=deepest)


def chain_values(tree, chain, phi_spec):
    """Leaf values of extremal_chain_function(tree, chain, phi_spec).f as a
    float array: the ring of its running-sum table in float64, indexed by
    each leaf's deepest chain level."""
    return _path_values(tree, _validate_chain(tree, chain), phi_spec)


def _path_ring(tree, path, phi_spec):
    """(ring, deepest) of the chain table along the atom indices `path`,
    taken as given, the ring in float64: chain_values is ring[deepest]."""
    _, ring, den, deepest = _chain_table(tree, path, phi_spec, 1)
    if den is not None:
        ring = [v / den for v in ring]  # int / int rounds correctly
    return np.array(ring, dtype=np.float64), deepest


def _path_values(tree, path, phi_spec):
    """chain_values along the atom indices `path`, taken as given."""
    ring, deepest = _path_ring(tree, path, phi_spec)
    return ring[deepest]


def h_function(tree, chain, phi_spec):
    """The mean-zero part: the sum of the chain increments alone."""
    _, ring, den, deepest = _chain_table(tree, _validate_chain(tree, chain),
                                         phi_spec, 0)
    return _from_table(tree, ring, den, deepest)


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
    chain = chain_through_leaf(tree, leaf_index)
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
    levels = list(_level_cints(tree, np.stack([composed.values_array,
                                                f.values_array]), 1))
    # every atom in level order; the witness is the first largest margin
    lhs, rhs = np.concatenate([cint for cint, _ in levels], axis=-1)
    m = margins(lhs, 2.0 * lip_constant * rhs)
    n = int(np.searchsorted(tree.offsets, m.index, side="right")) - 1
    usable = rhs > 1e-15
    check = limit_check(
        "lipschitz_composition_factor2",
        "composition with a Lipschitz map doubles mean oscillation at most",
        {"worst_margin": m.worst,
         "worst_ratio": float(np.max(lhs[usable] / rhs[usable], initial=0.0)),
         "lip_constant": float(lip_constant), "atoms_checked": len(lhs)},
        "margin <= {0}", m, witness=[n, m.index - int(tree.offsets[n])])
    return VerificationReport(suite="lipschitz_composition", checks=[check])


def chain_through_leaf(tree, leaf_index):
    """The root-to-leaf chain through the given leaf index."""
    return chain_to_root(tree, tree.atom(tree.depth, leaf_index))


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
        / phi_star(phi_spec, f.tree.level_arrays(n)[2].item(B.index))
        for n, B in enumerate(construction.chain))


def martingale_identity_defect(construction):
    """max over n < N of sup |E_n f - (n-th partial sum)| (E_N f is f):
    the int 0 when the identity holds, else an int or Fraction for
    rational f and partial sums on a rational tree, or a float."""
    f = construction.f
    return max([0, *(linf_norm(conditional_expectation(f, n)
                               - construction.partial_sum(n))
                     for n in range(f.tree.depth))])
