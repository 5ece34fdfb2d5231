"""Admissible sequences on acyclic quivers, reflection functors on
exact-arithmetic representations, and reduced words in the Weyl group."""

from .graphs import (
    Graph,
    Quiver,
    acyclic_orientations,
    graph_from_cartan,
    load_quiver,
    quiver_from_arrows,
    quiver_from_dict,
)
from .sequences import (
    AdmissibleSeq,
    CanonicalForm,
    canonical_form,
    canonical_rep,
    check_admissible,
    complement_pair,
    enumerate_admissible,
    equivalent,
    is_principal,
    join,
    meet,
    nq_reachable,
    precedes,
    principal,
    principal_decomposition,
    principal_precedes,
    principal_tail,
    psi,
    seq_from_multiplicities,
)
from .weyl import (
    SortingWord,
    WeylElement,
    WeylWord,
    c_sorting_word,
    coxeter_element,
    coxeter_powers_reduced,
    is_c_sortable,
    is_reduced,
    principal_reduced_criterion,
    principal_root,
    simple_reflection,
    weyl_is_finite,
    word_of,
)
from .reps import (
    Preprojective,
    Representation,
    Undecided,
    apply_sequence,
    build_module,
    coxeter_plus,
    direct_sum,
    is_preprojective,
    join_annihilators,
    reflect_minus,
    reflect_plus,
    shortest_annihilator_bruteforce,
    shortest_annihilator_indec,
    simple,
)

__all__ = [name for name in dir() if not name.startswith("_")]
