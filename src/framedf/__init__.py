"""framedf: frame difference families and what they build.

Exact construction and verification of strong/relative/frame/partitioned
difference families over finite abelian groups, cyclotomic lifting of
strong difference families over finite fields, resolvable block design
assembly, and the derived constant composition codes and frequency
hopping sequences.
"""

from . import catalog, codes, designs, families, fields, groups, lifting, search, serialize

from .fields import FiniteField, make_field
from .groups import AbelianGroup, crt_iso
from .families import (DesignFamily, DifferenceMatrix, Report, delta_block, relabel_family,
                       verify_sdf, verify_relative_df, verify_fdf, verify_pdf, verify_dm)
from .lifting import (LiftingData, check_lifting_conditions, lift_sdf, mul_table_dm,
                      homogenize, compose_fdf_dm, fdf_to_pdf)
from .search import (q_bound, generic_system, paired_pattern_system, z125_system, solve,
                     repair_block)
from .designs import (BlockDesign, Resolution, rbibd_from_fdf, trivial_rbibd,
                      affine_plane, verify_bibd, verify_resolution,
                      verify_one_rotational, recursion_params)
from .codes import (CCC, FHS, ccc_from_pdf, ccc_bound, fhs_from_elementary_fdf,
                    partial_hamming, fhs_correlations, fhs_bound, verify_strictly_optimal)

__version__ = "0.1.0"
