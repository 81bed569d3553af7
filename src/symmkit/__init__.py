"""Grid-scale rearrangement and symmetrization operators with a verification harness.

Public names load on first use (PEP 562): ``import symmkit`` imports no
submodule, and ``symmkit.name`` imports only the module that defines
``name``.  The lookup is not cached, so ``symmkit.name`` always shows what
its home module binds now, a patched function included.
"""

from importlib import import_module

# home module -> the public names it defines
_EXPORTS = {
    "contractions": ("PLContraction", "canonical_contraction", "sawtooth_contraction"),
    "chordmaps": (
        "SetMap", "blaschke_composite_set_map", "canonical_set_map", "chord_move_gridset",
        "chord_move_polygon", "chord_movement_set_map", "chordwise_distance", "cog_reflect",
        "cog_reflection_set_map", "graph_lengths", "grid_perimeter", "near_swap", "near_swap_set_map",
        "perimeter_region", "region_is_convex", "shake_set", "union_of_translates",
    ),
    "errors": (
        "EmptySet", "GalleryMismatch", "MisalignedHyperplane", "NonConvexColumn", "NotARearrangement",
        "OffGrid", "SymmkitError", "UnknownName",
    ),
    "experiments": ("ConvergenceTrace", "run_convergence"),
    "geometry": (
        "DistributionProfile", "Grid", "GridFunction", "GridSet", "OrientedHyperplane", "Reflection",
        "axis_plane", "box_raster", "centered_grid", "disk_raster", "distribution", "induced_set_map",
        "reflect_grid_function", "reflect_grid_set", "set_from_indicator",
    ),
    "harness": (
        "LP_EXPONENTS", "MODULUS_MAX_TRIALS", "SETMAP_LAWS", "TRANSFORMER_LAWS", "PropertyReport",
        "check_laws", "classify_rearrangement", "modulus_profile", "run_gallery", "run_verify",
    ),
    "polygons": ("ChordMovedRegion", "ConvexPolygon", "boundary_graphs", "convex_hull", "polygon_raster"),
    "rearrange": (
        "CANONICAL_MAPS", "AssociatedFunctionPair", "CanonicalMap", "PointwiseTransformer",
        "layer_cake_rearrangement", "polarize", "polarize_set", "schwarz_symmetrize_function",
        "schwarz_symmetrize_set", "steiner_symmetrize_function", "steiner_symmetrize_set",
    ),
}
# each public name -> its home module; a module's own name is its home
_HOME = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{home}", __name__)
    return module if name == home else getattr(module, name)


def __dir__():
    return sorted({*globals(), *__all__})
