"""ifs-lab: circle-map iterated function systems with resolution-bounded
dynamical property detectors and witness-carrying verdicts."""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .circle import Arc, CirclePoint, arc_diameter, arc_gap, arcs_intersect, circ_dist
from .generators import (Expanding, FixedPointRecord, Flip, Generator,
                         NonInvertible, NorthSouth, NotDifferentiable,
                         PiecewiseLinear, Rotation, eval_derivative,
                         eval_inverse, eval_map, fixed_points, map_arc)
from .symbolic import IDENTITY, Word, concat, enumerate_words
from .semigroup import (IfsSystem, OrbitSet, backward_orbit, compose_word,
                        forward_orbit, periodic_points, word_derivative)
from .detectors import (DEFAULT_RESOLUTION, NotApplicable, Resolution,
                        SensitivityReport, Verdict, almost_periodic_verdict,
                        cofinite_sensitivity_verdict, constant_rule,
                        dense_periodic_verdict, greedy_diameter_rule,
                        minimality_verdict, periodic_rule,
                        repelling_fixed_point_verdict, s_transitivity_verdict,
                        sensitivity_estimate,
                        sensitivity_witness_from_nonminimality,
                        separation_times, strong_transitivity_verdict,
                        topological_transitivity_verdict)
from .smooth import (ExpandingCover, NotACover, NotLocallyExpanding,
                     admissible_itinerary, expanding_verdict,
                     lebesgue_number, local_expanding_cover,
                     local_expanding_verdict)
from .gallery import GALLERY_NAMES, GalleryEntry, UnknownExample, build_example

__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)] + ["__version__"]
