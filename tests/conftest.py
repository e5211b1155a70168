"""Shared builders for randomized states and local unitaries.

Everything takes an explicit numpy Generator so tests stay reproducible;
no module-level randomness.
"""
import numpy as np

from framesync import BipartiteFrameState, Generator


def random_unit(gen, n, complex_valued=True):
    a = gen.normal(size=n)
    if complex_valued:
        a = a + 1j * gen.normal(size=n)
    return a / np.linalg.norm(a)


def random_frame_state(gen, n_tot, max_deg=1):
    """Random valid sector-form state on ladder-like generators.

    With max_deg > 1 each level gets an independent degeneracy and each
    sector a random Schmidt vector within the rank cap.
    """
    degs_a = gen.integers(1, max_deg + 1, size=n_tot + 1)
    degs_b = gen.integers(1, max_deg + 1, size=n_tot + 1)
    gen_a = Generator(tuple((n, int(degs_a[n])) for n in range(n_tot + 1)))
    gen_b = Generator(tuple((n, int(degs_b[n])) for n in range(n_tot + 1)))
    amps = random_unit(gen, n_tot + 1)
    ranks, lams = [], []
    for n in range(n_tot + 1):
        cap = int(min(degs_a[n_tot - n], degs_b[n]))
        rank = int(gen.integers(1, cap + 1))
        lam = np.abs(gen.normal(size=rank)) + 0.1   # bounded away from zero
        ranks.append(rank)
        lams.append(lam / np.linalg.norm(lam))
    return BipartiteFrameState(n_tot, gen_a, gen_b, amps, ranks, np.concatenate(lams))


def haar_unitary(gen, d):
    m = gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def level_preserving_unitary(gen, g):
    """Block-diagonal unitary acting arbitrarily within each level."""
    u = np.zeros((g.dim, g.dim), dtype=complex)
    off = 0
    for _, d in g.levels:
        u[off:off + d, off:off + d] = haar_unitary(gen, d)
        off += d
    return u
