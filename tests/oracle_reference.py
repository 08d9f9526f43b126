"""The oracle's chain contraction as an explicit loop, for the tests.

zalmsim.oracle._chain_value contracts one chain over its TMSV indices (u, v)
and the splitter output index a as one array expression.  This module keeps
the loop it replaced: for every (u, v) inside the ladder, the 50:50 sector
unitaries of the ket total u + v and the bra total (u + du) + (v + dv)
threaded through the two splitter-output kernels, term by term.
"""

from zalmsim.oracle import BS_THETA, _bs_sector, _tmsv_amps


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
            uk = _bs_sector(t, BS_THETA)
            ukb = _bs_sector(tb, BS_THETA)
            acc = 0.0
            for a in range(t + 1):
                ab = a + s1
                if not 0 <= ab <= tb:
                    continue
                acc += uk[a, u] * ukb[ab, ub] * w1[a] * w2[t - a]
            total += cu * cv * acc
    return total
