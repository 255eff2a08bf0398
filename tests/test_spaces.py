import random

import pytest

from genlib import (
    build_atom,
    eager_atoms,
    eager_index_of,
    flatten_atom,
    random_bracketing,
    random_leaves,
)
from kernelalg.errors import SpaceMismatch
from kernelalg.spaces import (
    UNIT,
    UNIT_ATOM,
    Base,
    FiniteSpace,
    Product,
    format_atom,
    product_space,
)


def gb():
    return Base(FiniteSpace("GB", ["g", "b"]))


def test_product_atoms_row_major():
    p = product_space(gb(), gb())
    assert p.atoms == (("g", "g"), ("g", "b"), ("b", "g"), ("b", "b"))


def test_unit_pairing():
    x = Base(FiniteSpace("X", ["x"]))
    p = product_space(UNIT, x)
    assert p.atoms == ((UNIT_ATOM, "x"),)


def test_product_cardinality():
    a = Base(FiniteSpace("A", ["a", "b"]))
    b = Base(FiniteSpace("B", ["0", "1", "2"]))
    assert product_space(a, b).size == 6


def test_products_are_not_associative():
    a, b, c = (Base(FiniteSpace(n, ["0", "1"])) for n in "ABC")
    left = Product(Product(a, b), c)
    right = Product(a, Product(b, c))
    assert left != right
    assert left.leaves() == right.leaves()


def test_duplicate_labels_rejected():
    with pytest.raises(SpaceMismatch):
        FiniteSpace("S", ["a", "a"])


def test_nominal_equality():
    assert Base(FiniteSpace("S", ["a"])) == Base(FiniteSpace("S", ["a"]))
    assert Base(FiniteSpace("S", ["a"])) != Base(FiniteSpace("T", ["a"]))
    # atom order is part of identity
    assert Base(FiniteSpace("S", ["a", "b"])) != Base(FiniteSpace("S", ["b", "a"]))


def test_index_and_membership():
    s = gb()
    assert s.index_of("b") == 1
    assert "g" in s and "q" not in s
    with pytest.raises(SpaceMismatch):
        s.index_of("q")


def test_empty_space_allowed():
    e = Base(FiniteSpace("E", []))
    assert e.size == 0
    assert product_space(e, gb()).size == 0


def test_flatten_build_round_trip():
    a, b, c = (Base(FiniteSpace(n, ["0", "1"])) for n in "ABC")
    src = Product(a, Product(b, c))
    dst = Product(Product(a, b), c)
    for atom in src.atoms:
        flat = list(flatten_atom(src, atom))
        rebuilt = build_atom(dst, iter(flat))
        assert list(flatten_atom(dst, rebuilt)) == flat


def test_format_atom():
    assert format_atom((("a", "b"), "c")) == "((a,b),c)"
    assert format_atom(UNIT_ATOM) == "()"
    assert format_atom(("a", "b", "c")) == "(a,b,c)"


@pytest.mark.parametrize("space", [gb(), Product(gb(), gb())], ids=["base", "product"])
@pytest.mark.parametrize(
    "atom, shown",
    [((), "()"), (("g",), "(g)"), (("g", "b", "g"), "(g,b,g)"), ((("g",), "b"), "((g),b)")],
)
def test_non_pair_tuple_atom_is_space_mismatch(space, atom, shown):
    with pytest.raises(SpaceMismatch) as exc:
        space.index_of(atom)
    assert str(exc.value) == f"atom {shown} does not belong to space {space}"
    assert atom not in space


def foreign_atoms(rng, space, atoms):
    """Atoms that must not belong to `space`, and some that may."""
    out = ["zz", 5, ("a", "b", "c"), UNIT_ATOM]
    for atom in rng.sample(atoms, min(3, len(atoms))):
        out.append(atom)
        if isinstance(atom, tuple):
            out.append(atom + ("x",))            # a 3-tuple
            out.append((atom[1], atom[0]))       # legs swapped
            out.append(atom[0])                  # not a pair
        else:
            out.append((atom, atom))             # a pair for a leaf space
        leaves = list(flatten_atom(space, atom))
        for i in range(len(leaves)):
            wrong = leaves[:i] + ["zz"] + leaves[i + 1:]
            out.append(build_atom(space, iter(wrong)))
    return out


def message_of(call, *args):
    try:
        call(*args)
    except SpaceMismatch as exc:
        return str(exc)
    return None


def test_lazy_product_matches_eager_reference():
    rng = random.Random(50)
    for _ in range(300):
        leaves = random_leaves(rng, rng.randint(1, 5))
        seed = rng.getrandbits(32)
        space = random_bracketing(random.Random(seed), leaves)
        twin = random_bracketing(random.Random(seed), leaves)
        atoms = list(eager_atoms(space))

        # size, index_of and membership never build the atom tuple
        assert space.size == len(atoms)
        assert [space.index_of(a) for a in atoms] == list(range(len(atoms)))
        assert all(a in space for a in atoms)
        for cand in foreign_atoms(rng, space, atoms):
            assert (cand in space) == (cand in atoms)
            assert message_of(space.index_of, cand) == message_of(eager_index_of, space, cand)
        if isinstance(space, Product):
            assert space._atoms is None

        assert space == twin and hash(space) == hash(twin)
        assert space.atoms == tuple(atoms)
        assert space == twin and twin == space and hash(space) == hash(twin)
        other = random_bracketing(rng, leaves)
        assert (other == space) == (str(other) == str(space))
