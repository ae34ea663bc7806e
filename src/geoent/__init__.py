"""Geometric entanglement hierarchies for N-qubit pure states.

The distance of a pure state from the set of K-separable product states,
E_G^(K) = 1 - max |<Phi|Psi>|^2, is computed for every K = 2..N, both
relative to a fixed partition of the qubits and minimized over partitions.
Closed-form values for the solvable state families back an optimizer that
handles arbitrary complex states: an SVD for bipartitions, and a multistart
ascent over pairs of blocks with a coarsening-bound certificate otherwise.
"""

from .closedform import (
    ClosedFormValue,
    asym_w_bisep,
    asym_w_ksep_reduced,
    cascade_f,
    cascade_max_f,
    dicke_full_separable,
    ghz_egk,
    line_max,
    magnon2_bisep,
    magnon_bisep_schmidt,
    symmetric_full_separable,
    w_bisep,
    w_full_separable,
    w_ksep_reduced,
    w_trisep,
    wghz_bisep_reduced,
)
from .errors import (
    DegenerateInputError,
    DomainError,
    NumericalFaultError,
    ResourceCapError,
    ShapeMismatchError,
)
from .hierarchy import (
    HierarchyReport,
    KEntry,
    ScaleCheck,
    egk_absolute,
    full_hierarchy,
    is_symmetric,
    scale_invariance_check,
    sweep_eta,
)
from .optimizer import (
    OptimizerConfig,
    OverlapResult,
    ProductState,
    best_overlap,
    best_overlaps,
    qubit_block_interval,
)
from .partitions import (
    Partition,
    Shape,
    representative_partition,
    set_partitions,
    shapes,
    stirling2,
)
from .states import (
    PureState,
    StateRecipe,
    asym_w,
    basis_ket,
    cluster4,
    ghz,
    load_state,
    magnon,
    overlap,
    permute_qubits,
    random_state,
    save_state,
    superpose,
    w,
    w_tilde3,
)

__version__ = "0.1.0"
