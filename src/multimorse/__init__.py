"""Acyclic-matching reduction of multifiltered simplicial complexes.

Build a simplicial complex, grade its vertices with a vector-valued
measuring function, compute a filtration-compatible acyclic matching
from lower links, reduce the complex to its critical cells, and certify
with an independent homology oracle that every multidimensional
persistent homology rank survived.
"""

from .complexes import (ComplexError, SComplex, build_simplicial,
                        complex_from_simplices, full_subcomplex)
from .filtration import (Grade, GradeError, MeasuringFunction,
                         critical_grades, entry_grades, le_neq, leq)
from .indexing import (ComparabilityDag, build_dag, lex_indexing,
                       topo_sort_kahn, validate_indexing)
from .matching import (MatchPartition, MatchingError, is_acyclic, max_index,
                       modified_hasse, partition)
from .meshio import (Mesh, MeshFormatError, mesh_complex, preset_abs_xy,
                     read_mesh, read_reduced, read_values, write_reduced)
from .oracle import (EquivalenceReport, HomologyRanks, OracleError, homology,
                     rank_table, verify_equivalence)
from .pipeline import (PipelineError, dim_counts, match_table, run,
                       run_verification, sample_star_submeshes, star_index,
                       stats_table)
from .reduction import (ComposedMaps, ReductionError, ReductionResult,
                        ReductionStep, cancel_local_pairs, reduce_all,
                        reduce_pair)
from .rings import (GF2, INTEGERS, RATIONALS, CoefficientRing, Integers,
                    PrimeField, Rationals, RingError, get_ring)

__version__ = "0.1.0"
