"""Exact integer geometry for lattice polygons.

Everything here works in doubled-area units so that all identities stay
in integer arithmetic: a polygon with vertices on the integer lattice
has 2A = 2i + u - 2, where i counts interior lattice points and u
boundary ones. The package verifies that identity by exact lattice-point
counts that never use the area and, independently, decomposes any
simple lattice polygon into triangles of doubled area 1.
"""

from .bezout import interior_split_point, normalize
from .core import (
    COORDINATE_LIMIT,
    BezoutResult,
    CoordinateRangeError,
    DegenerateSegmentError,
    DegenerateTriangleError,
    GeometryError,
    InternalInvariantError,
    LatticePoint,
    LatticePolygon,
    LatticeVector,
    PointLocation,
    PolygonError,
    PreconditionError,
    RepeatedVertexError,
    SelfIntersectionError,
    TooFewVerticesError,
    ZeroAreaError,
    edge_gcd,
    extended_gcd,
    point_in_polygon,
    point_on_segment,
    segment_lattice_points,
    twice_polygon_area,
    twice_signed_area,
    validate_polygon,
)
from .pick import (
    AdditivityWitness,
    InvalidCutError,
    PickCount,
    boundary_count,
    closed_triangle_count,
    interior_count_oracle,
    pick_twice_area,
    polygon_lattice_points,
    triangle_lattice_counts,
    verify_additivity,
    verify_pick,
)
from .triangulate import (
    LatticeTriangle,
    SplitEvent,
    SplitRule,
    Triangulation,
    gcd_edge_split,
    initial_triangulation,
    interior_split,
    primitive_triangulation,
)

__version__ = "0.1.0"

__all__ = [
    "AdditivityWitness",
    "BezoutResult",
    "COORDINATE_LIMIT",
    "CoordinateRangeError",
    "DegenerateSegmentError",
    "DegenerateTriangleError",
    "GeometryError",
    "InternalInvariantError",
    "InvalidCutError",
    "LatticePoint",
    "LatticePolygon",
    "LatticeTriangle",
    "LatticeVector",
    "PickCount",
    "PointLocation",
    "PolygonError",
    "PreconditionError",
    "RepeatedVertexError",
    "SelfIntersectionError",
    "SplitEvent",
    "SplitRule",
    "TooFewVerticesError",
    "Triangulation",
    "ZeroAreaError",
    "boundary_count",
    "closed_triangle_count",
    "edge_gcd",
    "extended_gcd",
    "gcd_edge_split",
    "initial_triangulation",
    "interior_count_oracle",
    "interior_split",
    "interior_split_point",
    "normalize",
    "pick_twice_area",
    "point_in_polygon",
    "point_on_segment",
    "polygon_lattice_points",
    "primitive_triangulation",
    "segment_lattice_points",
    "triangle_lattice_counts",
    "twice_polygon_area",
    "twice_signed_area",
    "validate_polygon",
    "verify_additivity",
    "verify_pick",
    "__version__",
]
