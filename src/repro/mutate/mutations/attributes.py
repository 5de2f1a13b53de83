"""Attribute mutation (paper §IV-A).

Randomly toggles function-level and parameter-level attributes, as in the
paper's Listing 5 (``dereferenceable(2)`` on a pointer parameter plus
``nofree`` on the function).  Attributes are assertions the optimizer may
exploit, so inconsistent enforcement of their semantics is a classic bug
source.
"""

from __future__ import annotations

from ...analysis.overlay import MutantOverlay
from ...ir.attributes import Attribute
from ..rng import MutationRNG

# Function attributes safe to toggle: they never contradict the body's
# actual behavior in a way the validator cannot model.
TOGGLEABLE_FUNCTION_ATTRIBUTES = (
    "nofree", "nosync", "nounwind", "willreturn", "mustprogress",
    "norecurse", "cold", "hot", "noinline",
)

# Pointer-parameter attributes (value-semantics ones are enforced by the
# validator's input generation / interpreter).
TOGGLEABLE_POINTER_ATTRIBUTES = ("nocapture", "nonnull", "noalias", "nofree")

# Integer-parameter attributes.
TOGGLEABLE_INT_ATTRIBUTES = ("noundef",)

DEREFERENCEABLE_SIZES = (1, 2, 4, 8, 16, 32)


def apply(overlay: MutantOverlay, rng: MutationRNG) -> bool:
    function = overlay.mutant
    actions = ["function"]
    if function.arguments:
        actions.extend(["param", "param"])
    action = rng.choice(actions)

    if action == "function":
        name = rng.choice(TOGGLEABLE_FUNCTION_ATTRIBUTES)
        function.attributes.toggle(Attribute(name))
        return True

    argument = rng.choice(function.arguments)
    if argument.type.IS_POINTER:
        if rng.chance(0.3):
            # Toggle a dereferenceable(N) guarantee.
            if argument.attributes.has("dereferenceable"):
                argument.attributes.remove("dereferenceable")
            else:
                size = rng.choice(DEREFERENCEABLE_SIZES)
                argument.attributes.add(Attribute("dereferenceable", size))
            return True
        name = rng.choice(TOGGLEABLE_POINTER_ATTRIBUTES)
        argument.attributes.toggle(Attribute(name))
        return True
    if argument.type.IS_INTEGER:
        name = rng.choice(TOGGLEABLE_INT_ATTRIBUTES)
        argument.attributes.toggle(Attribute(name))
        return True
    return False
