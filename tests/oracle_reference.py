"""Loop forms of the oracle's array code, for the tests.

zalmsim.oracle._chain_value contracts one chain over its TMSV indices (u, v)
and the splitter output index a as one array expression.  This module keeps
the loop it replaced: for every (u, v) inside the ladder, the 50:50 sector
unitaries of the ket total u + v and the bra total (u + du) + (v + dv)
threaded through the two splitter-output kernels, term by term.  It also
keeps the dict-of-occupations full state that the array TruncatedState
replaced (below).
"""

import itertools
from math import factorial, sqrt

from zalmsim.oracle import _bs_sector, _tmsv_amps


def chain_value_loop(mu, cutoff, outer1, outer2, bs1, bs2):
    """One chain's contribution, summed one (u, v, a) term at a time."""
    du, vec_u = outer1
    dv, vec_v = outer2
    s1, w1 = bs1
    s2, w2 = bs2
    if du + dv != s1 + s2:
        return 0.0
    amps = _tmsv_amps(mu, cutoff + max(abs(du), abs(dv)))
    total = 0.0
    for u in range(cutoff + 1):
        ub = u + du
        if not 0 <= ub <= cutoff:
            continue
        cu = amps[u] * amps[ub] * vec_u[u]
        if cu == 0.0:
            continue
        for v in range(cutoff + 1):
            vb = v + dv
            if not 0 <= vb <= cutoff:
                continue
            cv = amps[v] * amps[vb] * vec_v[v]
            if cv == 0.0:
                continue
            t = u + v
            tb = ub + vb
            uk = _bs_sector(t)
            ukb = _bs_sector(tb)
            acc = 0.0
            for a in range(t + 1):
                ab = a + s1
                if not 0 <= ab <= tb:
                    continue
                acc += uk[a, u] * ukb[ab, ub] * w1[a] * w2[t - a]
            total += cu * cv * acc
    return total


# The truncated full state as Python dicts, one {occupation tuple: amplitude}
# per Kraus branch: the representation zalmsim.oracle's array TruncatedState
# replaced.  The array path must give the same occupations in the same order
# with bit-equal amplitudes, so these loops fix the order of every insertion,
# product and sum.


def build_pre_bsm_state_dict(mu, cutoff):
    """Two SPDC sources side by side, before the BSM splitters mix (3,5) and (4,6)."""
    amps = _tmsv_amps(mu, cutoff).tolist()
    state = {}
    rng = range(cutoff + 1)
    for n, m, k, l in itertools.product(rng, rng, rng, rng):
        amp = amps[n] * amps[m] * amps[k] * amps[l]
        if amp != 0.0:
            state[(n, m, m, n, k, l, l, k)] = amp
    return [state]


def apply_beamsplitter_dict(branches, i, j):
    """The 50:50 (i, j) beam splitter on every branch, entry by entry, summing equal outputs in order."""
    new_branches = []
    for branch in branches:
        nb = {}
        for occ, amp in branch.items():
            oi, oj = occ[i - 1], occ[j - 1]
            for a, f in enumerate(_bs_sector(oi + oj)[:, oi].tolist()):
                if f == 0.0:
                    continue
                new_occ = list(occ)
                new_occ[i - 1] = a
                new_occ[j - 1] = oi + oj - a
                key = tuple(new_occ)
                nb[key] = nb.get(key, 0.0) + amp * f
        new_branches.append(nb)
    return new_branches


def apply_loss_dict(branches, mode, eta):
    """Kraus loss on one mode: per input branch, one output branch per Kraus index kk, empty ones dropped."""
    i = mode - 1
    max_occ = max((occ[i] for branch in branches for occ in branch), default=0)
    coeffs = [
        [
            sqrt((1.0 - eta) ** kk / factorial(kk)) * eta ** ((o - kk) / 2.0) * sqrt(factorial(o) / factorial(o - kk))
            for kk in range(o + 1)
        ]
        for o in range(max_occ + 1)
    ]
    new_branches = []
    for branch in branches:
        by_kk = [{} for _ in range(max_occ + 1)]
        for occ, amp in branch.items():
            o = occ[i]
            head, tail = occ[:i], occ[i + 1 :]
            for kk, coeff in enumerate(coeffs[o]):
                if coeff != 0.0:
                    by_kk[kk][head + (o - kk,) + tail] = amp * coeff
        new_branches.extend(nb for nb in by_kk if nb)
    return new_branches


def pattern_probability_dict(branches, modes, pattern):
    """Probability of an exact pattern on a mode subset: |amp|^2 summed branch by branch, entry by entry."""
    idx = tuple(m - 1 for m in modes)
    pattern = tuple(pattern)
    return sum(
        abs(amp) ** 2 for branch in branches for occ, amp in branch.items() if tuple(occ[i] for i in idx) == pattern
    )


def per_kraus_index_loss(branches, mode, eta):
    """Loss channel written from the Kraus operators: one pass over every branch per Kraus index kk."""
    max_occ = max(occ[mode - 1] for branch in branches for occ in branch)
    out = []
    for branch in branches:
        for kk in range(max_occ + 1):
            nb = {}
            for occ, amp in branch.items():
                o = occ[mode - 1]
                if o < kk:
                    continue
                coeff = sqrt((1.0 - eta) ** kk / factorial(kk)) * eta ** ((o - kk) / 2.0) * sqrt(
                    factorial(o) / factorial(o - kk)
                )
                if coeff != 0.0:
                    nb[occ[: mode - 1] + (o - kk,) + occ[mode:]] = amp * coeff
            if nb:
                out.append(nb)
    return out


def as_dicts(state):
    """An array TruncatedState's branches as {occupation tuple: amplitude} dicts, entry order kept."""
    return [dict(zip(map(tuple, occ.tolist()), amp.tolist())) for occ, amp in state.branches]
