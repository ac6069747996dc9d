"""horoshift: horoballs on metric groups and window-scale expansivity
certification for Z^2 shift actions."""

from .errors import InputError, ResourceBudgetError
from .groups import (BallSequenceGroup, DirectSumZ2, WeightedFreeAbelian,
                     ZdLp, ball_sequence_check)
from .horoballs import (Horoball, Linear, PolyhedralZ2, RationalCone, Sampled,
                        l2_horoball, largeness_certificate, meeting_radius,
                        polyhedral_from_ray, sampled_l1_horoball_z2,
                        verify_cone_shift, verify_tangency)
from .subshifts import (FullShift, FullShiftZ, LinearGF2, SFT, SkewActionSpec,
                        enumerate_fillings, ledrappier, skew_exponent,
                        validate)
from .certify import (Direction, Inconclusive, NDReport, Witness,
                      WindowDeterministic, direction_status, farey_directions,
                      horoball_status, nd_set, parse_grid,
                      skew_horoball_status)
from .separation import (halfspace_coverage, intersection_empty,
                         origin_in_hull, uniform_probes)

__version__ = "0.1.0"
