"""Deliberately violates RL006: reaches into the view-vector data plane
of *another* object, coupling itself to one concrete representation."""


def peek_plane(vv):
    rows = vv._rows  # bitset plane only; frozenset plane differs
    bits = vv.row(0)._mask  # a frozenset view has no mask
    masks = vv._interner._tag_masks
    return rows, bits, masks
