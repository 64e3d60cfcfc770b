"""Pointwise-multiplier functionals, operator-norm lower bounds, and the
empirical certificates for the multiplier characterization.

True operator norms are sups over all of the space; everything here
reports finite-family lower bounds next to measured-constant upper
inequalities, never exact operator norms.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import phi as phimod
from .constructions import _path_ring, _path_values
from .filtration import Atom, own_atom, regularity_constant, truncate
from .functions import (LeafFunction, _indicator_row, check_p, expectation,
                        level_means, level_projection, linf_norm)
from .norms import (BLOCK_ELEMENTS, _level_scan, campanato_seminorm,
                    phi_level_values, phi_star_level_values, scan_block)
from .report import (EXACT_SLACK, VerificationReport, limit_check, margins,
                     reported_check)

# A family member is the witness of L when its ratio is at least
# L (1 - WITNESS_TIE): the first such member in family order, so that the
# summation order of a scan cannot move the label between tied members.
WITNESS_TIE = 1e-12

INDICATORS = object()  # a family's indicator block, as in _family_norms


class ChainPath(tuple):
    """A family member: the chain function along these atom indices."""


# -- the product functional ---------------------------------------------------


def capital_F(f, g, p, spec):
    """sup over all atoms B of
    (|f_B| / phi(P(B))) * ((1/P(B)) int_B |g - E_n g|^p dP)^(1/p)."""
    check_p(p)
    tree = f.tree
    if g.tree is not tree:
        raise ValueError("functions live on different trees")
    best = 0.0
    for n, _, ratios in _level_scan(tree, g.values_array[None, :], p, spec):
        terms = np.abs(level_means(tree, n, f.values_array)) * ratios[0]
        best = max(best, float(np.max(terms)))
    return best


def check_product_estimate(f, g, p, spec):
    """The two-sided product estimate: the functional above differs from
    the seminorm of fg by at most twice seminorm(f) * sup|g|."""
    F = capital_F(f, g, p, spec)
    sem_fg = float(campanato_seminorm(f * g, p, spec, exact=False).value)
    sem_f = float(campanato_seminorm(f, p, spec, exact=False).value)
    sup_g = float(linf_norm(g))
    gap = abs(F - sem_fg)
    bound = 2.0 * sem_f * sup_g
    return VerificationReport(suite="product_estimate", checks=[limit_check(
        "product_estimate_two_sided",
        "product functional vs product seminorm gap bound",
        {"F": F, "seminorm_fg": sem_fg, "seminorm_f": sem_f, "sup_g": sup_g,
         "gap": gap, "bound": bound},
        "gap <= bound + {0}", margins(gap, bound))])


# -- families and operator-norm lower bounds ----------------------------------


def _family_members(tree, spec, chains, randoms, seed, paths=True):
    """The default test family as (label, member) pairs: the indicator
    block ("chi", INDICATORS), each sampled chain a ChainPath (its leaf
    values unless paths), every other member an array of leaf values."""
    rng = np.random.default_rng(seed)
    yield "const:1", np.ones(tree.leaf_count)
    yield "chi", INDICATORS
    count = min(chains, tree.leaf_count)
    if count > 0:
        picks = rng.choice(tree.leaf_count, size=count, replace=False)
        for j in sorted(int(x) for x in picks):
            path = tree.ancestors(tree.depth, j)
            yield f"chain:leaf={j}", (ChainPath(path) if paths
                                      else _path_values(tree, path, spec))
    for k in range(randoms):
        yield f"rand:{k}", rng.standard_normal(tree.leaf_count)


def default_test_family(tree, spec, chains=8, randoms=32, seed=0):
    """Deterministic test family: the constant 1, all atom indicators,
    chain functions through sampled leaves, and seeded random functions.

    Yields (label, function) pairs lazily; the composition mirrors the
    witnesses the lower-bound arguments actually use.
    """
    for label, member in _family_members(tree, spec, chains, randoms, seed,
                                         paths=False):
        if member is not INDICATORS:
            yield label, LeafFunction.from_float_array(tree, member)
            continue
        for n in range(tree.depth + 1):
            for i in range(len(tree.level_arrays(n)[0])):
                yield f"{label}:{n},{i}", LeafFunction.from_float_array(
                    tree, _indicator_row(tree, n, i))


def _subtree_max(tree, per_level):
    """Per level, the max of per_level over each atom and its descendants
    (per_level holds one array per level, one value per atom)."""
    out = [per_level[-1]]
    for n in range(tree.depth - 1, -1, -1):
        kids = tree.child_arrays(n)[0]
        out.append(np.maximum(per_level[n], np.maximum.reduceat(out[-1], kids)))
    return out[::-1]


def _sibling_max(tree, per_level):
    """Per level, the max of per_level >= 0 over each atom's siblings, the
    other children of its parent (0 for an only child and the root)."""
    out = [np.zeros(1)]
    for n in range(1, tree.depth + 1):
        vals = per_level[n]
        kids, up = tree.child_arrays(n - 1)
        top = np.maximum.reduceat(vals, kids)[up]
        # the first child at its family's top sees the rest, the others it
        first = np.minimum.reduceat(
            np.where(vals < top, len(vals), np.arange(len(vals))), kids)
        rest = vals.copy()
        rest[first] = 0.0
        top[first] = np.maximum.reduceat(rest, kids)
        out.append(top)
    return out


def _subtree_tables(g, p, spec, want_fb):
    """Per level, the max over each atom and its descendants of g's
    weighted oscillation and, when want_fb (else None), of 1/phi_star: one
    scan of g for the indicator block and the chains."""
    tree = g.tree
    osc = [ratios[0] for _, _, ratios
           in _level_scan(tree, g.values_array[None, :], p, spec)]
    stars = phi_star_level_values(tree, spec) if want_fb else None
    return (_subtree_max(tree, osc + [np.zeros(tree.leaf_count)]),
            _subtree_max(tree, [1.0 / s for s in stars]) if want_fb else None)


def _indicator_norms(g, p, spec, want_fb=False, tables=None):
    """norm(chi_B), norm(chi_B g) and the sup of |(chi_B)_A| / phi_star(P(A))
    over atoms A, for every atom B of g's tree in level order, without a
    leaf pass per member.

    On atoms inside B or disjoint from it chi_B has zero oscillation, and
    chi_B g has g's own oscillation or none, so subtree maxima of g's
    per-atom oscillation (and of 1/phi_star) cover those atoms.  Only the
    strict ancestors A of B need leaves: chi_B g averages S_B / P(A) on A,
    with S_B = int_B g, and each leaf of A outside B deviates by exactly
    that average, so a pass over B's leaves suffices.  For all atoms of a
    level together, their ancestors' levels stack as the rows of one leaf
    pass per BLOCK_ELEMENTS values, so the family costs O(leaves depth^2).
    """
    tree, gv, leafm = g.tree, g.values_array, g.tree.leaf_measures_f()
    measures = np.concatenate([tree.level_arrays(n)[2]
                               for n in range(tree.depth + 1)])
    phis = np.concatenate(phi_level_values(tree, spec))
    stars = want_fb and np.concatenate(phi_star_level_values(tree, spec))
    invp = 1.0 / p
    sub_osc, sub_inv = tables or _subtree_tables(g, p, spec, want_fb)

    w = gv * leafm
    size = max(1, BLOCK_ELEMENTS // tree.leaf_count)
    anc = np.empty((0, 1), np.int64)  # row n: level-n ancestors' places
    per_level = []
    for m in range(tree.depth + 1):
        meas = tree.level_arrays(m)[2]
        if m:
            up = tree.child_arrays(m - 1)[1]
            anc = np.vstack([anc.take(up, axis=1), tree.offsets[m - 1] + up])
        S = tree.atom_sums(m, w)
        sem_f = np.zeros(len(meas))
        sem_fg = sub_osc[m].copy()
        fb = sub_inv[m].copy() if want_fb else None
        for a in (anc[lo:lo + size] for lo in range(0, m, size)):
            PA, phi = measures[a], phis[a]
            r = meas / PA
            avg = S / PA
            dev = np.empty((len(a), len(gv)))
            np.abs(tree.spread(m, avg, np.subtract, np.broadcast_to(
                gv, dev.shape), out=dev), out=dev)
            # x ** 1 copies x bit for bit, so p = 1 takes the same lines
            dev **= p
            dev *= leafm
            chi = ((meas * (1.0 - r) ** p + (PA - meas) * r ** p)
                   / PA) ** invp
            cint = tree.atom_sums(m, dev) + (PA - meas) * np.abs(avg) ** p
            prod = (cint / PA) ** invp
            np.maximum(sem_f, (chi / phi).max(axis=0), out=sem_f)
            np.maximum(sem_fg, (prod / phi).max(axis=0), out=sem_fg)
            if want_fb:
                np.maximum(fb, (r / stars[a]).max(axis=0), out=fb)
            del PA, phi, r, avg, dev, chi, cint, prod  # free before next block
        per_level.append((sem_f + meas, sem_fg + np.abs(S), fb))
    norm_f, norm_fg, fb = zip(*per_level)
    return (np.concatenate(norm_f), np.concatenate(norm_fg),
            np.concatenate(fb) if want_fb else None)


def _chain_norms(g, p, spec, paths, want_fb=False, tables=None):
    """As _indicator_norms, for the chain function f along each path (atom
    indices, root to leaf): f is its ring value r_k (_path_ring) on R_k =
    B_k minus B_{k+1}, which holds every atom that leaves the chain below
    B_k, so f oscillates on the chain atoms only (O(depth^2) per chain
    from the r_k and P(R_k)), and off the chain f g = r_k g adds |r_k|
    times the largest subtree maximum of the siblings of B_{k+1}.  Only
    B_0, ..., B_{N-1} get a leaf pass for f g, in blocks of at most
    BLOCK_ELEMENTS values, and the root's gives E(f g)."""
    tree, gv, N = g.tree, g.values_array, g.tree.depth
    sub_osc, sub_inv = tables or _subtree_tables(g, p, spec, want_fb)
    idx = np.array(paths, dtype=np.int64) + tree.offsets[:-1]

    def along(per_level):  # each chain atom's entry, per chain and level
        return np.concatenate(per_level)[idx]

    starts, lengths, meas = (along([tree.level_arrays(n)[k]
                                    for n in range(N + 1)]) for k in range(3))
    phis = along(phi_level_values(tree, spec))
    nums, den = tree.numerator_arrays()
    s = along(nums)
    keys = list(map(tuple, s.tolist()))  # a ring depends on these only
    rings = {k: _path_ring(tree, path, spec)[0]
             for k, path in dict(zip(keys, paths)).items()}
    ring = np.array([rings[k] for k in keys])
    mu = (np.concatenate([s[:, :-1] - s[:, 1:], s[:, -1:]], axis=1)
          / (den or 1)).astype(np.float64)  # the P(R_k)
    avg = np.cumsum((mu * ring)[:, ::-1], axis=1)[:, ::-1] / meas  # f_{B_n}
    cint = (np.triu(np.abs(ring[:, None] - avg[..., None]) ** p)
            * mu[:, None]).sum(axis=2)
    sem_f = ((cint / meas) ** (1.0 / p) / phis)[:, :N].max(axis=1, initial=0.0)

    def off_chain(sub):  # max over k < N of |r_k| times B_{k+1}'s siblings'
        return (np.abs(ring[:, :N]) * along(_sibling_max(tree, sub))[:, 1:]
                ).max(axis=1, initial=0.0)

    fb = np.maximum(off_chain(sub_inv), (np.abs(np.concatenate(
        [avg[:, :N], ring[:, N:]], axis=1)) / along(phi_star_level_values(
            tree, spec))).max(axis=1)) if want_fb else None
    # B_n spans pieces n, ..., 2N - n of the chain's nested leaf spans, and
    # piece j holds ring value min(j, 2N - j)
    M = max(N, 1)  # the chain atoms with oscillation; the root at least
    pieces = np.diff(np.concatenate([starts, (starts + lengths)[:, ::-1]],
                                    axis=1), axis=1)
    pick = np.concatenate([np.arange(n, 2 * N + 1 - n) for n in range(M)])
    leafm, out = tree.leaf_measures_f(), []
    size = max(1, BLOCK_ELEMENTS // int(lengths[:, :M].sum(axis=1).max()))
    for b in (slice(lo, lo + size) for lo in range(0, len(idx), size)):
        seg = lengths[b, :M].ravel()
        at = np.cumsum(seg) - seg
        leaf = np.repeat(starts[b, :M].ravel() - at, seg) + np.arange(
            seg.sum())
        fg = np.repeat(ring[b, np.minimum(pick, 2 * N - pick)].ravel(),
                       pieces[b, pick].ravel()) * gv[leaf]
        m = leafm[leaf]
        sums = np.add.reduceat(fg * m, at)
        dev = np.abs(fg - np.repeat(sums / meas[b, :M].ravel(), seg))
        dev **= p
        dev *= m
        out.append(((np.add.reduceat(dev, at).reshape(-1, M) / meas[b, :M])
                    ** (1.0 / p) / phis[b, :M], sums.reshape(-1, M)[:, 0]))
    ratios, mean_fg = map(np.concatenate, zip(*out))
    sem_fg = np.maximum(off_chain(sub_osc), ratios.max(axis=1))
    return sem_f + np.abs(avg[:, 0]), sem_fg + np.abs(mean_fg), fb


class _Labels(Sequence):
    """A family's labels, each indicator's label:n,i formatted when read."""

    def __init__(self, names, offsets):
        self._names, self._offsets = names, offsets

    def __len__(self):
        return len(self._names)

    def __getitem__(self, k):
        if isinstance(name := self._names[k], str):
            return name
        j = k % len(self) - name[1]  # name[1]: the block's first place
        n = int(np.searchsorted(self._offsets, j, side="right")) - 1
        return f"{name[0]}:{n},{j - self._offsets[n]}"


def _family_norms(g, p, spec, members, want_fb=False):
    """norm(f), norm(f g) and, when asked, sup_B |f_B| / phi_star(P(B)) for
    every family member, in family order.

    Members are (label, member) pairs, consumed lazily: an array of leaf
    values goes to scan_block, its product f g the next row; INDICATORS
    (label:n,i per atom, see _Labels) and Atom members read one
    _indicator_norms pass, ChainPath members one _chain_norms pass, both
    on one scan of g.  Returns (labels, norm_f, norm_fg, fb or None).
    """
    tree, gv, offsets = g.tree, g.values_array, g.tree.offsets
    labels, dense, chi, at, chains = [], [], [], [], []

    def rows():  # fills the lists above as scan_block consumes it
        for label, member in members:
            if member is INDICATORS:
                chi.extend(range(len(labels), len(labels) + offsets[-1]))
                at.extend(range(offsets[-1]))
                labels.extend([(label, len(labels))] * offsets[-1])
            elif isinstance(member, Atom):
                chi.append(len(labels))
                at.append(offsets[member.level] + member.index)
                labels.append(label)
            elif isinstance(member, ChainPath):
                chains.append((len(labels), member))
                labels.append(label)
            else:
                dense.append(len(labels))
                labels.append(label)
                yield member
                yield member * gv

    sups, _, mean, fb = scan_block(tree, rows(), p, spec, want_fb)
    norms = sups.max(axis=1) + np.abs(mean)
    parts = [(dense, norms[0::2], norms[1::2], fb[0::2] if want_fb else None)]
    tables = _subtree_tables(g, p, spec, want_fb) if chi or chains else None
    if chi:
        block = _indicator_norms(g, p, spec, want_fb, tables)
        parts.append((chi, *(None if b is None else b[at] for b in block)))
    if chains:
        where, paths = map(list, zip(*chains))
        parts.append((where, *_chain_norms(g, p, spec, paths, want_fb, tables)))
    norm_f, norm_fg, fb_all = np.empty((3, len(labels)))
    for where, nf, nfg, b in parts:
        norm_f[where], norm_fg[where] = nf, nfg
        if want_fb:
            fb_all[where] = b
    return (_Labels(labels, offsets), norm_f, norm_fg,
            fb_all if want_fb else None)


def _lower_bound(labels, norm_f, norm_fg):
    """(L, witness, usable): L is the max of norm_fg / norm_f over members
    with nonzero norm (the others are skipped with a warning), the witness
    is the first member in family order whose ratio is at least
    L (1 - WITNESS_TIE), and usable masks the members that count."""
    usable = norm_f != 0.0
    for k in np.flatnonzero(~usable):
        warnings.warn(f"family member {labels[k]!r} has zero norm; skipped")
    if not usable.any():
        raise ValueError("family contained no usable member")
    ratios = np.full(len(labels), -math.inf)
    ratios[usable] = norm_fg[usable] / norm_f[usable]
    L = float(ratios.max())
    witness = labels[int(np.argmax(ratios >= L * (1.0 - WITNESS_TIE)))]
    return L, witness, usable


def _family_lower_bound(g, p, spec, members):
    """(L, witness) of g over (label, member) pairs, as in _family_norms."""
    L, witness, _ = _lower_bound(*_family_norms(g, p, spec, members)[:3])
    return L, witness


def op_norm_lower_bound(g, p, spec, family):
    """max over the family of norm(f*g)/norm(f); a lower bound for the
    multiplier operator norm.  Zero-norm members are skipped with a warning.

    Family items may be bare members or (label, member) pairs.  A member is
    a LeafFunction on g's tree, or an Atom of that tree standing for its
    indicator.  The witness follows the tie rule of WITNESS_TIE.
    """
    tree = g.tree
    members = []
    for k, item in enumerate(family):
        label, f = item if isinstance(item, tuple) else (f"f#{k}", item)
        if isinstance(f, Atom):
            own_atom(tree, f)
        elif f.tree is not tree:
            raise ValueError(f"family member {label!r} is not on g's tree")
        members.append((label, f if isinstance(f, Atom) else f.values_array))
    return _family_lower_bound(g, p, spec, members)


# -- the main certificate ------------------------------------------------------


@dataclass
class MultiplierReport:
    """Measured evidence that T(g) = quotient-seminorm + sup norm is
    two-sidedly comparable to the multiplier operator norm of g."""

    g_label: str
    sup_norm: float
    seminorm_quotient: float
    T: float
    op_lower: float
    op_witness: str
    ratio: float
    c_fb: float
    family_size: int
    upper_checked: int
    upper_violations: int
    upper_worst_margin: float
    conditions: dict = field(default_factory=dict)
    status: str = "ok"
    checks: list = field(default_factory=list)

    @property
    def passed(self):
        return (self.status == "ok" and self.upper_violations == 0
                and all(c.passed for c in self.checks))

    def to_dict(self):
        return {
            "g": self.g_label,
            "sup_norm": self.sup_norm,
            "seminorm_quotient": self.seminorm_quotient,
            "T": self.T,
            "op_lower": self.op_lower,
            "op_witness": self.op_witness,
            "ratio_T_over_L": self.ratio,
            "c_fb": self.c_fb,
            "family_size": self.family_size,
            "upper_bound": {
                "checked": self.upper_checked,
                "violations": self.upper_violations,
                "worst_margin": self.upper_worst_margin,
            },
            "conditions": self.conditions,
            "status": self.status,
            "checks": [c.to_dict() for c in self.checks],
            "passed": self.passed,
        }


def theorem1_certificate(g, p, spec, sample_chains=64, seed=0, randoms=32,
                         g_label="g"):
    """Two-sided multiplier certificate for g.

    Computes T(g) (quotient-weight seminorm plus sup norm) and the family
    lower bound L(g), measures the atom-average growth constant on the
    same family, and checks the derived upper inequality

        norm(fg) <= (C_fb * seminorm_quot(g) + (2 + max(1, phi(1))) * sup|g|)
                    * norm(f)

    for every family member.  The weight conditions are measured over
    phi.default_grid(), and their failures downgrade the certificate
    status to "assumptions unmet".  The witness of L follows the tie rule
    of WITNESS_TIE.
    """
    tree = g.tree
    grid = phimod.default_grid()
    doubling = phimod.doubling_constant(spec, grid)
    int_cond = phimod.int_condition_constant(spec, p, grid)
    conditions = {
        "doubling": doubling,
        "int_condition": int_cond,
        "ok": math.isfinite(doubling) and math.isfinite(int_cond),
    }
    quotient = phimod.quotient_phi(spec)
    sem_q = float(campanato_seminorm(g, p, quotient, exact=False).value)
    sup_g = float(linf_norm(g))
    T = sem_q + sup_g

    family = _family_members(tree, spec, chains=sample_chains,
                             randoms=randoms, seed=seed)
    labels, norm_f, norm_fg, fb = _family_norms(g, p, spec, family,
                                                want_fb=True)
    L, L_witness, usable = _lower_bound(labels, norm_f, norm_fg)
    norm_f, norm_fg = norm_f[usable], norm_fg[usable]
    c_fb = float(np.max(fb[usable] / norm_f))

    phi_at_1 = float(phimod.eval_phi(spec, 1.0))
    upper_coeff = c_fb * sem_q + (2.0 + max(1.0, phi_at_1)) * sup_g
    upper = margins(norm_fg, upper_coeff * norm_f)
    members = int(np.count_nonzero(usable))

    return MultiplierReport(
        g_label=g_label,
        sup_norm=sup_g,
        seminorm_quotient=sem_q,
        T=T,
        op_lower=L,
        op_witness=L_witness,
        ratio=(T / L) if L > 0 else math.inf,
        c_fb=c_fb,
        family_size=members,
        upper_checked=members,
        upper_violations=upper.failures,
        upper_worst_margin=upper.worst,
        conditions=conditions,
        status="ok" if conditions["ok"] else "assumptions unmet",
    )


# -- sup-norm control ----------------------------------------------------------


def linf_bound_check(g, p, spec):
    """Evidence that the sup norm of a multiplier is controlled by its
    operator norm on a regular tree.

    Checks, per level: the cut-off function g * chi_B at the atom with the
    largest conditional average has norm at least sup|E_n g| divided by
    2 R (R+1)^(1/p) phi(P(B')) for the nearest coarser ancestor B'; also
    the level-by-level growth bound of conditional absolute means.
    """
    tree = g.tree
    R = float(regularity_constant(tree))
    checks = []

    # E_n |g| grows by at most R per level: each atom against its parent.
    means = [level_means(tree, n, np.abs(g.values_array))
             for n in range(tree.depth + 1)]
    parents = [m[tree.child_arrays(n)[1]] for n, m in enumerate(means[:-1])]
    growth = margins(np.concatenate([[], *means[1:]]),
                     R * np.concatenate([[], *parents]))
    checks.append(limit_check(
        "conditional_growth_per_level",
        "regularity bound on successive conditional absolute means",
        {"R": R, "worst_margin": growth.worst}, "margin <= {0}", growth))

    # norm(f) and norm(f g): the constant, then chi_B for each atom B
    family = _family_norms(g, p, spec, _family_members(
        tree, spec, chains=0, randoms=0, seed=0))[:3]
    cutoffs = np.split(family[2][1:], tree.offsets[1:-1])
    nums = tree.numerator_arrays()[0]
    sides = []  # (rhs, lhs) of each checked level and its witness
    skipped = 0
    for n in range(1, tree.depth + 1):
        avg = level_means(tree, n, g.values_array)
        j = int(np.argmax(np.abs(avg)))
        sup_en = float(np.abs(avg[j]))
        path = tree.ancestors(n, j)
        k = next((k for k in range(n - 1, -1, -1)
                  if nums[k].item(path[k]) != nums[n].item(j)), None)
        if k is None:
            skipped += 1  # atom persists to the root; no coarser ancestor
            continue
        phi_B1 = float(phimod.eval_phi(
            spec, tree.level_arrays(k)[2].item(path[k])))
        rhs = sup_en / (2.0 * R * (R + 1.0) ** (1.0 / p) * phi_B1)
        lhs = float(cutoffs[n][j])
        sides.append((rhs, lhs, {"level": n, "atom": j, "ancestor_level": k,
                                 "lhs": lhs, "rhs": rhs}))
    rhs, lhs, witnesses = zip(*sides) if sides else ((), (), ())
    cut = margins(rhs, lhs)
    checks.append(limit_check(
        "cutoff_norm_vs_sup",
        "norm of the atom cut-off dominates the scaled conditional sup norm",
        {"levels_checked": len(sides), "levels_skipped": skipped,
         "worst_margin": cut.worst if sides else 0.0},
        "margin <= {0}", cut,
        witness=witnesses[cut.index] if sides else None))

    L_chi, witness, _ = _lower_bound(*family)
    sup_g = float(linf_norm(g))
    checks.append(reported_check(
        "sup_norm_vs_indicator_lower_bound",
        "sup norm against the indicator-family operator lower bound",
        {"sup_norm": sup_g, "op_lower_indicators": L_chi,
         "ratio": (sup_g / L_chi) if L_chi > 0 else math.inf},
        witness=witness))
    return VerificationReport(suite="linf_bound", checks=checks)


# -- truncation compatibility ----------------------------------------------------


def conditional_multiplier_check(g, p, spec, chains=8, randoms=16, seed=0):
    """Truncation compatibility of the multiplier quantities.

    For each level n the tree is truncated at depth n and E_n g acts on
    projections of a shared family.  The family is closed under
    conditioning (projections of indicators and constants are scalar
    multiples of shallower members, so only chain and random members need
    explicit closure), which makes the per-level lower bounds L_n provably
    dominated by the full-tree bound L(g) up to float slack.  On the
    truncation the dense members, chains as leaf values among them, are
    averaged over the level-n atoms, and the indicator block is that of
    its own atoms, each once: E_n of a deeper atom B's indicator is
    (P(B)/P(A)) chi_A for its level-n ancestor A, whose ratio
    norm(fg)/norm(f) is that of chi_A.
    Level N runs on a fresh depth-N truncation too, so its values check
    the full-tree computation independently.
    """
    tree = g.tree
    N = tree.depth
    base = list(_family_members(tree, spec, chains=chains, randoms=randoms,
                                seed=seed, paths=False))
    shared = base + [(f"E{n}[{label}]", level_projection(tree, n, row))
                     for label, row in base
                     if label.startswith(("chain:", "rand:"))
                     for n in range(1, N)]

    quotient = phimod.quotient_phi(spec)

    def T_of(g_n):
        return float(campanato_seminorm(g_n, p, quotient, exact=False).value) \
            + float(linf_norm(g_n))

    L_full, _ = _family_lower_bound(g, p, spec, shared)
    T_full = T_of(g)
    L_n = []
    T_n = []
    for n in range(N + 1):
        trunc = truncate(tree, n)
        g_proj = LeafFunction.from_float_array(
            trunc, level_means(tree, n, g.values_array))
        members = [(label, row if row is INDICATORS
                    else level_means(tree, n, row)) for label, row in shared]
        L_n.append(_family_lower_bound(g_proj, p, spec, members)[0])
        T_n.append(T_of(g_proj))

    forward = margins(L_n, L_full)
    sup = margins(T_n, T_full)
    identity_diff = abs(L_n[N] - L_full)
    T_diff = abs(T_n[N] - T_full)
    eg = abs(float(expectation(g)))
    checks = [
        limit_check(
            "truncated_lower_bounds_dominated",
            "conditioned multiplier never beats the full-tree lower bound on "
            "the shared family",
            {"L_full": L_full, "L_n": L_n, "worst_margin": forward.worst},
            "margin <= {0}", forward),
        limit_check(
            "deepest_truncation_identity",
            "the depth-N truncation, rebuilt with projected members, "
            "reproduces the full-tree lower bound",
            {"L_N": L_n[N], "L_full": L_full, "diff": identity_diff},
            "diff <= {0} * max(1, L_full)",
            margins(identity_diff, slack=EXACT_SLACK, scale=L_full)),
        limit_check(
            "level0_lower_bound_is_mean",
            "conditioning to the trivial level leaves only the mean",
            {"L_0": L_n[0], "abs_mean": eg, "diff": abs(L_n[0] - eg)},
            "diff <= {0}", margins(abs(L_n[0] - eg), slack=EXACT_SLACK)),
        limit_check(
            "quotient_norm_sup_at_deepest",
            "quotient-weight norms of truncations peak at full depth",
            {"T_full": T_full, "T_n": T_n, "worst_margin": sup.worst,
             "diff_at_N": T_diff},
            "margin <= {0} and diff at N <= {1} * max(1, T_full)",
            sup, margins(T_diff, slack=EXACT_SLACK, scale=T_full)),
    ]
    return VerificationReport(suite="conditional_multipliers", checks=checks)
