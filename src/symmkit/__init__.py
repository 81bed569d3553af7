"""Grid-scale rearrangement and symmetrization operators with a verification harness."""

from .contractions import PLContraction, canonical_contraction, sawtooth_contraction
from .chordmaps import (
    ChordMovedRegion,
    SetMap,
    blaschke_composite_set_map,
    chord_move_gridset,
    chord_move_polygon,
    chord_movement_set_map,
    chordwise_distance,
    cog_reflect,
    cog_reflection_set_map,
    graph_lengths,
    grid_perimeter,
    identity_set_map,
    near_swap,
    near_swap_set_map,
    perimeter_region,
    polarization_dagger_set_map,
    polarization_set_map,
    reflection_set_map,
    region_is_convex,
    shake_set,
    union_of_translates,
)
from .errors import (
    DegenerateBody,
    EmptySet,
    GalleryMismatch,
    MisalignedHyperplane,
    NonConvexColumn,
    NonMonotoneMap,
    NotARearrangement,
    OffGrid,
    SymmkitError,
    UnknownName,
)
from .experiments import (
    ConvergenceTrace,
    run_convergence,
    run_gallery,
    run_verify,
)
from .geometry import (
    DistributionProfile,
    Grid,
    GridFunction,
    GridSet,
    OrientedHyperplane,
    Reflection,
    axis_plane,
    box_raster,
    centered_grid,
    disk_raster,
    distribution,
    plus_mask,
    reflect_grid_function,
    reflect_grid_set,
    set_from_indicator,
)
from .harness import (
    LP_EXPONENTS,
    MODULUS_MAX_TRIALS,
    SETMAP_LAWS,
    TRANSFORMER_LAWS,
    PropertyReport,
    check_equimeasurable,
    check_lp_contracting,
    check_modulus_reducing,
    check_monotonic,
    check_setmap_law,
    check_setmap_properties,
    check_transformer,
    check_transformers,
    classify_rearrangement,
    modulus_profile,
)
from .polygons import ConvexPolygon, chord, convex_hull, polygon_raster
from .rearrange import (
    ASSOCIATED_PAIRS,
    CANONICAL_TRANSFORMERS,
    AssociatedFunctionPair,
    MonotonePL,
    MonotoneStep,
    PointwiseTransformer,
    check_fvalues,
    compose_monotone,
    induced_set_map,
    layer_cake_rearrangement,
    polarize,
    polarize_set,
    schwarz_symmetrize_set,
    steiner_symmetrize_function,
    steiner_symmetrize_set,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
