"""margex: prescribed-marginal measure extension and tower-partition correction.

The package has four functional layers:

* :mod:`margex.measures` -- dense measures on finite product spaces, with
  projections, products, conditionals, consistency, and approximate
  independence defects.
* :mod:`margex.extension` -- building a single measure with prescribed
  marginals: inclusion-exclusion common extensions, norm-controlled right
  inverses of projection operators, one extension step and one window loop
  behind the dense and chain drivers, and an LP feasibility oracle.
* :mod:`margex.towers` -- finite towers with equal-mass fiber atoms, name
  distributions of labeled partitions, correcting measures, painting names on
  towers, and exact fiber surgery.
* :mod:`margex.rds` -- skew products over coin-flip bases at desk scale: the
  (S, S^-1) construction, sign partitions of long windows, cocycle sums, and
  fiberwise mixing coefficients on cylinders.
"""

from .errors import (
    AnchorError,
    CapacityError,
    ConsistencyError,
    DomainError,
    IndependenceError,
    MargexError,
    MixingSupplyError,
    PositivityError,
    QuantizationError,
    SingularityError,
    WindowError,
    ZeroMassError,
)
from .measures import (
    Alphabet,
    DenseMeasure,
    IndexSet,
    MarginalFamily,
    conditional_dist,
    consistency_gap,
    delta_independence,
    is_consistent,
    product_measure,
    product_of_marginals,
    project,
    relative_product,
    sup_distance,
    tensor,
)
from .extension import (
    ChainExtension,
    ExtensionTrace,
    HypothesisReport,
    ProjectionOperator,
    RightInverse,
    bounded_right_inverse,
    brute_force_extension_exists,
    extend_family,
    extend_family_chain,
    extend_one_index,
    inclusion_exclusion_extension,
    thresholds,
    verify_hypotheses,
)
from .towers import (
    FiberSpace,
    LabeledPartition,
    PaintReport,
    TowerSpec,
    choose_eta,
    correcting_measure,
    fiber_surgery,
    flag_dependent_shifts,
    iterate_krengel,
    name_distribution,
    paint_tower,
    uniform_random_partition,
)
from .rds import (
    Cocycle,
    CounterexampleReport,
    Cylinder,
    SignPartition,
    SkewProduct,
    build_tower_from_base,
    counterexample_check,
    relative_mixing_coefficient,
    shift_distance,
)

__version__ = "0.1.0"
