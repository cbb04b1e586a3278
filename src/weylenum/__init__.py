"""Level-by-level enumeration of finite Weyl groups.

The enumeration builds each group as levels of equal reduced-word length,
pairing every element with its inverse in the same pass, and feeds the
downstream conjugacy-class and signed cycle-type computations.  The level
step is a single numpy kernel, and an inverse's matrix is found through the
pairing rather than stored.  A D_n class's signed cycle type comes from one
array replay of its members' words as signed permutations.
"""

from .classify import (ConjugacyClass, class_label_d4, conjugacy_classes,
                       element_order, order_partition)
from .cycletype import class_cycle_type, render_cycle_type
from .errors import IntegrityError, ParseError, UnsupportedRootSystem, WeylError
from .orbit import (Level, OrbitLevel, build_next_level, generate_group, generate_orbit,
                    match_rows)
from .rootsystems import RootSystem, cartan_matrix, load_cartan_file, root_system
from .store import (CheckedRun, ElementIndex, LevelFile, build_index, read_level,
                    read_summary, write_level, write_summary)

__version__ = "0.1.0"

__all__ = [
    "CheckedRun", "ConjugacyClass", "ElementIndex", "IntegrityError", "Level",
    "LevelFile", "OrbitLevel", "ParseError", "RootSystem",
    "UnsupportedRootSystem", "WeylError",
    "build_index", "build_next_level", "cartan_matrix",
    "class_cycle_type", "class_label_d4", "conjugacy_classes", "element_order",
    "generate_group", "generate_orbit", "load_cartan_file", "match_rows",
    "order_partition", "read_level", "read_summary",
    "render_cycle_type", "root_system",
    "write_level", "write_summary",
]
