"""Algebra of finite Mealy and Moore machines.

Machines are 1-cells between finite alphabets, composed sequentially;
state maps commuting with dynamics and outputs are the 2-cells.  The
package provides the composition calculus with its associator and
pentagon coherence, word semantics with exact bisimulation, the
universal one-step and frozen registers with moorification and
decapitation, the softness hierarchy, an exhaustive law-checking lab,
and the free unitization of the Moore structure.  The lab checks
D₁ ⊣ moorify as a bijection of hom-sets (acceptance criterion 02); the
analogous correspondence for decapitation is only measured, and often
fails (criterion 12).
"""

__version__ = "0.1.0"

from .core import (
    Alphabet,
    DuplicateName,
    EmptyWordOnMealy,
    EndpointMismatch,
    EnumerationTooLarge,
    KindMismatch,
    LetterOutOfAlphabet,
    MachineError,
    MealyMachine,
    MissingEntry,
    MooreMachine,
    NotAHomomorphism,
    NotSoft,
    StateMap,
    UnknownSymbol,
    compose_maps,
    identity_cell,
    identity_map,
    is_homomorphism,
    validate_mealy,
    validate_moore,
)
from .compose import (
    StateBijection,
    associator,
    check_j_compatibilities,
    check_pentagon,
    compose_cells,
    compose_mealy,
    compose_moore,
    ltimes,
    rtimes,
)
from .semantics import (
    PointedMachine,
    bisimilar,
    check_extension_square,
    run,
    trace,
    words_up_to,
)
from .universal import (
    SoftnessReport,
    apply_D1,
    d_iter,
    decapitate,
    embed_j,
    is_n_soft,
    is_soft,
    moorify,
    pinfty_carrier_check,
    softness_level,
    universal_p,
    universal_u,
)
from .lab import (
    BijectionReport,
    HomSet,
    IdentitySearchReport,
    check_adjunction_D1,
    check_counit,
    check_hom_correspondence,
    check_moorify_functorial,
    enumerate_homs,
    search_moore_identity,
)
from .unitize import (
    FormalId,
    UMap,
    check_triangle,
    check_upentagon,
    formal_identity_map,
    ucompose,
    ucompose2,
)
from .machinefile import (
    MachineFileError,
    MachineFileSyntaxError,
    VersionMismatch,
    load_machine,
    machine_from_raw,
    machine_to_raw,
    parse_machine_text,
    render_state,
    save_machine,
    serialize_machine,
)
