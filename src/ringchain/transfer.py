"""The P/Q recursion of the transfer-matrix product.

Vertex values psi_j := psi(j*pi) of any solution at energy E in a gap
satisfy the three-term relation

    psi_{j+1} + psi_{j-1} = 2 * xi_j(E) * psi_j,

propagated by the unimodular matrix N_j = [[2*xi_j, -1], [1, 0]] acting on
(psi_j, psi_{j-1}).  The product N_m ... N_1 is [[P_m, -Q_m], [P_{m-1},
-Q_{m-1}]], and pq_advance runs its recursion on plain 4-tuples of floats
or arrays.  The tests check it against the matrices themselves, their
Chebyshev closed form for identical couplings, and the continuum wave
rebuilt from the vertex values.
"""


# (P_0, Q_0, P_{-1}, Q_{-1}): the first advance gives P_1 = 2*xi_1, Q_1 = 1
PQ_SEED = (1.0, 0.0, 0.0, -1.0)


def pq_advance(state, xis):
    """(P_m, Q_m, P_{m-1}, Q_{m-1}) advanced across xis by
    P_{j+1} = 2*xi_{j+1}*P_j - P_{j-1} (Q analogous); floats or arrays.

    The unimodularity of the product reads Q_m * P_{m-1} - P_m * Q_{m-1} = 1
    at every step.
    """
    P, Q, P_prev, Q_prev = state
    for x in xis:
        two_xi = 2.0 * x
        P, Q, P_prev, Q_prev = two_xi * P - P_prev, two_xi * Q - Q_prev, P, Q
    return P, Q, P_prev, Q_prev
