"""The conormal slices built the long way: phi_d once per basis row of an ideal slice.

This is the construction `ribbonlab.conormal` used before its slices became
one kernel over the monomials, kept as the oracle for that kernel.  The
ideal slice is built first, every basis row is sent through `phi_d` (or
`psi_d`), and the relations among the images are mapped back into the
slice.
"""

from ribbonlab.conormal import phi_d, psi_d
from ribbonlab.exact import RatMatrix, left_kernel, row_space_matrix
from ribbonlab.rnc import IdealSlice, ideal_slice


def phi_map_matrix(slice_):
    """Matrix of phi_d on a slice: row b = flattened phi_d(basis_b)."""
    g, d = slice_.g, slice_.d
    width = (g - 2) * ((d - 1) * (g - 1) - 1)
    rows = []
    for p in slice_.basis:
        rows.append([x for row in phi_d(p, d).rows for x in row])
    return RatMatrix(rows, ncols=width)


def kernel_in_slice(slice_, images):
    """The combinations sum_b a_b basis_b of the slice with sum_b a_b images[b] = 0."""
    vectors = []
    for relation in left_kernel(images, len(images[0]) if images else 0):
        vec = {}
        for b, a in relation.items():
            for c, v in slice_.rows[b].items():
                vec[c] = vec.get(c, 0) + a * v
        vectors.append(vec)
    return IdealSlice(slice_.g, slice_.d, slice_.monomials,
                      row_space_matrix(vectors, len(slice_.monomials)))


def oracle_phi_kernel_slice(g, d):
    """ker(phi_d) on the degree-d ideal slice, from the stacked phi_d images."""
    slice_ = ideal_slice(g, d)
    return kernel_in_slice(slice_, phi_map_matrix(slice_).rows)


def oracle_ribbon_slice(lam, g, d):
    """The degree-d relations x with psi_d(lam, x) = 0, one psi_d per basis row."""
    slice_ = ideal_slice(g, d)
    return kernel_in_slice(slice_, [psi_d(lam, p, d).coeffs for p in slice_.basis])
