"""Entanglement classification via the Freudenthal construction.

Cubic Jordan algebras, Freudenthal triple systems, sparse fermionic
exterior algebra, species-merging embeddings and a SLOCC classifier for
five tripartite quantum systems, plus a JSON state-file CLI.
"""

from .classify import (
    RANKED_SYSTEMS,
    SYSTEM_TABLE,
    SYSTEMS,
    ClassLabel,
    DegeneracyWarning,
    GroupElement,
    System,
    classify_state,
    invariant_for,
    invariant_via_embedding,
    lookup_system,
    random_group_element,
    random_state,
    slocc_act,
    three_tangle,
)
from .embed import (
    MultiState,
    NormalizationWarning,
    SystemShape,
    bipartitions,
    boson2q_to_freudenthal,
    boson2q_to_three_qubit,
    boson3_to_boson2q,
    boson3_to_freudenthal,
    embedded_rdm_blocks,
    factors_across_cut,
    merge_species,
    multistate_from_tensor,
    pack_antisymmetric_pair,
    qubit_fermion4_to_fermion,
    qubit_fermion4_to_freudenthal,
    qubit_separability_direct,
    rdm_direct_sum,
    separability_via_embedding,
    species_rdm,
    tensor_from_multistate,
    three_qubit_to_fermion,
    three_qubit_to_freudenthal,
    three_qubit_to_qubit_fermion4,
)
from .fermion import (
    DEFAULT_TOL,
    FermionState,
    ShapeError,
    apply_matrix,
    from_freudenthal,
    idempotency_defect,
    is_decomposable,
    one_particle_rdm,
    pluecker_relation,
    pluecker_scan,
    pluecker_violations,
    sort_sign,
    to_freudenthal,
    wedge,
    wedge_of_vectors,
    wedge_power_norm,
)
from .jordan import (
    AlgebraKind,
    JordanElement,
    KindMismatch,
    basis,
    close,
    embed_in_j3,
    embed_step,
    identity,
    j1,
    j11,
    j111,
    j12,
    j3,
    norm,
    norm_linearized,
    sharp,
    springer_sharp,
    springer_trace_form,
    trace_form,
    zero,
)
from .representatives import Representative, all_representatives, four_qubit_pair
from .statefile import (
    StateFile,
    StateParseError,
    dump_state_text,
    load_state_file,
    parse_state_text,
)
from .triple import (
    FreudenthalVector,
    fvector,
    quartic_form,
    quartic_form_linearized,
    quartic_tangle,
    rank,
    rank_margins,
    skew_form,
    triple_basis,
    triple_product,
)

__version__ = "0.1.0"
