"""Exact extreme points of unit balls of multilinear forms on R^n.

The unit ball of m-linear forms under the sup norm is a polytope whose
extreme points this package enumerates exactly, by solving sign-vector
systems over anchored vertex-tensor bases and expanding the results by a
finite sign-group orbit. On top of the enumerated sets it computes sharp
constants of classical multilinear inequalities (Bohnenblust-Hille, mixed
Littlewood, Khinchin) and lower bounds for truncated Grothendieck
constants.
"""

from extremeforms.core import (
    FormVector,
    GroupElement,
    ResourceBudgetError,
    act,
    enumerate_group,
    enumerate_tensor_vertices,
    factorize,
    flatten,
    group_compose,
    group_identity,
    inner,
    is_tensor_vertex,
    omega,
    tensor_vertex_count,
    transporter,
    unflatten,
)

__version__ = "0.1.1"

__all__ = [
    "FormVector",
    "GroupElement",
    "ResourceBudgetError",
    "act",
    "enumerate_group",
    "enumerate_tensor_vertices",
    "factorize",
    "flatten",
    "group_compose",
    "group_identity",
    "inner",
    "is_tensor_vertex",
    "omega",
    "tensor_vertex_count",
    "transporter",
    "unflatten",
    "__version__",
]
