"""Exact extreme points of unit balls of multilinear forms on R^n.

The unit ball of m-linear forms under the sup norm is a polytope whose
extreme points this package enumerates exactly. A complete run is a
double description of the ball's rows (n >= 3), the closed form of the
parallelotope (n = 2) or the two ends of the interval (n = 1); a
budgeted or resumed run walks anchored vertex-tensor bases, solves their
sign-vector systems and expands the results by a finite sign-group
orbit. On top of the enumerated sets it computes sharp
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
