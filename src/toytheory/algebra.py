"""Exact linear algebra over prime fields Z_p and the rationals Q.

Scalars are plain ints in {0..p-1} for Z_p and ``fractions.Fraction`` for Q
(automatically in lowest terms with positive denominator); vectors are tuples,
matrices tuples of row tuples.  No floating point anywhere.  Subspaces carry a
reduced-row-echelon basis and cosets a shift with zeroed pivot coordinates, so
structurally equal values are semantically equal and usable as dict keys.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence, Union

from .errors import DimensionMismatch, NotPrimeError

Element = Union[int, Fraction]
VectorT = tuple  # tuple of field elements
MatrixT = tuple  # tuple of row tuples


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class PrimeField:
    """Arithmetic in Z_p, elements represented as ints in {0..p-1}."""

    p: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise NotPrimeError(f"dimension d={self.p} is not prime")

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def coerce(self, x) -> int:
        if isinstance(x, Fraction):
            if x.denominator == 1:
                return x.numerator % self.p
            return self.div(x.numerator % self.p, x.denominator % self.p)
        if isinstance(x, str):
            x = int(x)
        if not isinstance(x, int):
            raise TypeError(f"cannot coerce {x!r} into Z_{self.p}")
        return x % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("no inverse of 0")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def elements(self) -> range:
        return range(self.p)

    def __repr__(self):
        return f"GF({self.p})"


@dataclass(frozen=True)
class RationalField:
    """Exact rational arithmetic; the 'continuous' case of the theory."""

    @property
    def zero(self) -> Fraction:
        return Fraction(0)

    @property
    def one(self) -> Fraction:
        return Fraction(1)

    def coerce(self, x) -> Fraction:
        if isinstance(x, str):
            return Fraction(x)
        return Fraction(x)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("no inverse of 0")
        return 1 / Fraction(a)

    def div(self, a, b):
        return Fraction(a) / b

    def __repr__(self):
        return "QQ"


QQ = RationalField()

FieldT = Union[PrimeField, RationalField]


@functools.lru_cache(maxsize=None)
def GF(p: int) -> PrimeField:
    return PrimeField(p)


# ---------------------------------------------------------------------------
# vector / matrix helpers
# ---------------------------------------------------------------------------

def vector(field: FieldT, entries: Iterable) -> VectorT:
    return tuple(field.coerce(x) for x in entries)


def zero_vector(field: FieldT, n: int) -> VectorT:
    return (field.zero,) * n


def vec_add(field: FieldT, a: VectorT, b: VectorT) -> VectorT:
    if len(a) != len(b):
        raise DimensionMismatch(f"vector lengths {len(a)} vs {len(b)}")
    return tuple(field.add(x, y) for x, y in zip(a, b))


def vec_sub(field: FieldT, a: VectorT, b: VectorT) -> VectorT:
    if len(a) != len(b):
        raise DimensionMismatch(f"vector lengths {len(a)} vs {len(b)}")
    return tuple(field.sub(x, y) for x, y in zip(a, b))


def vec_scale(field: FieldT, c, a: VectorT) -> VectorT:
    return tuple(field.mul(c, x) for x in a)


def dot(field: FieldT, a: VectorT, b: VectorT):
    """Standard dot product; this is how an observable is evaluated on an
    ontic state and how orthogonal complements are taken."""
    if len(a) != len(b):
        raise DimensionMismatch(f"vector lengths {len(a)} vs {len(b)}")
    acc = field.zero
    for x, y in zip(a, b):
        acc = field.add(acc, field.mul(x, y))
    return acc


def matrix(field: FieldT, rows: Iterable[Iterable]) -> MatrixT:
    return tuple(vector(field, row) for row in rows)


def identity_matrix(field: FieldT, n: int) -> MatrixT:
    return tuple(
        tuple(field.one if i == j else field.zero for j in range(n))
        for i in range(n)
    )


def mat_transpose(m: MatrixT) -> MatrixT:
    return tuple(zip(*m))


def mat_vec(field: FieldT, m: MatrixT, x: VectorT) -> VectorT:
    if len(m[0]) != len(x):
        raise DimensionMismatch("matrix/vector shape mismatch")
    return tuple(dot(field, row, x) for row in m)


def mat_mul(field: FieldT, a: MatrixT, b: MatrixT) -> MatrixT:
    if len(a[0]) != len(b):
        raise DimensionMismatch("matrix shapes do not compose")
    bt = mat_transpose(b)
    return tuple(tuple(dot(field, row, col) for col in bt) for row in a)


def mat_inverse(field: FieldT, m: MatrixT) -> MatrixT:
    """Inverse by one elimination of [M | I]; raises ZeroDivisionError on
    singular input (a pivot falls in the right block)."""
    n = len(m)
    reduced, pivots = _rref_rows(
        field, [tuple(row) + erow
                for row, erow in zip(m, identity_matrix(field, n))])
    if pivots != list(range(n)):
        raise ZeroDivisionError("singular matrix")
    return tuple(tuple(r[n:]) for r in reduced)


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Subspace:
    """A linear subspace with canonical RREF basis (pivot columns increasing).

    Equality is structural, so ``basis`` must already be the canonical RREF
    of the span: build one through :func:`rref`, or directly only from rows
    that are already reduced.
    """

    field: FieldT
    ambient_dim: int
    basis: tuple

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, x: VectorT) -> bool:
        return contains(self, x)

    def __repr__(self):
        rows = ", ".join(str(list(r)) for r in self.basis)
        return f"Subspace({self.field}, {self.ambient_dim}, [{rows}])"


def _rref_rows(field: FieldT, rows: list) -> tuple[list, list]:
    """In-place RREF; returns (nonzero rows, pivot columns)."""
    rows = [list(r) for r in rows]
    m = len(rows)
    n = len(rows[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        piv = None
        for i in range(r, m):
            if rows[i][c] != field.zero:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.mul(inv, x) for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] != field.zero:
                f = rows[i][c]
                rows[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return [rows[i] for i in range(r)], pivots


def rref(field: FieldT, ambient_dim: int, rows: Iterable[Iterable]) -> Subspace:
    """Canonical subspace spanned by ``rows`` (possibly empty)."""
    coerced = []
    for row in rows:
        v = vector(field, row)
        if len(v) != ambient_dim:
            raise DimensionMismatch(
                f"row length {len(v)} != ambient dimension {ambient_dim}")
        coerced.append(v)
    reduced, _ = _rref_rows(field, coerced)
    return Subspace(field, ambient_dim, tuple(tuple(r) for r in reduced))


def zero_subspace(field: FieldT, ambient_dim: int) -> Subspace:
    return Subspace(field, ambient_dim, ())


def full_subspace(field: FieldT, ambient_dim: int) -> Subspace:
    return Subspace(field, ambient_dim, identity_matrix(field, ambient_dim))


def _pivot_columns(s: Subspace) -> list[int]:
    cols = []
    for row in s.basis:
        for j, x in enumerate(row):
            if x != s.field.zero:
                cols.append(j)
                break
    return cols


def _check_same_ambient(s: Subspace, t: Subspace):
    if s.field != t.field or s.ambient_dim != t.ambient_dim:
        raise DimensionMismatch("subspaces live in different ambient spaces")


def contains(s: Subspace, x: VectorT) -> bool:
    """Membership test: x reduces to zero against the RREF basis."""
    zero = s.field.zero
    return all(c == zero for c in reduce_mod_subspace(s, x))


def reduce_mod_subspace(s: Subspace, x: VectorT) -> VectorT:
    """Canonical representative of x + S: zero out all pivot coordinates."""
    field = s.field
    x = list(vector(field, x))
    if len(x) != s.ambient_dim:
        raise DimensionMismatch(
            f"vector length {len(x)} != ambient dimension {s.ambient_dim}")
    for row, piv in zip(s.basis, _pivot_columns(s)):
        c = x[piv]
        if c != field.zero:
            x = [field.sub(a, field.mul(c, b)) for a, b in zip(x, row)]
    return tuple(x)


def subspace_sum(s: Subspace, t: Subspace) -> Subspace:
    _check_same_ambient(s, t)
    return rref(s.field, s.ambient_dim, list(s.basis) + list(t.basis))


@functools.lru_cache(maxsize=1 << 16)
def orthogonal_complement(s: Subspace) -> Subspace:
    """{x : b.x = 0 for all basis b} under the standard dot product."""
    field = s.field
    n = s.ambient_dim
    if s.dim == 0:
        return full_subspace(field, n)
    # For a RREF basis the kernel has the textbook free-column construction.
    pivots = _pivot_columns(s)
    pivot_set = set(pivots)
    free_cols = [j for j in range(n) if j not in pivot_set]
    rows = []
    for j in free_cols:
        v = [field.zero] * n
        v[j] = field.one
        for row, piv in zip(s.basis, pivots):
            v[piv] = field.neg(row[j])
        rows.append(v)
    return rref(field, n, rows)


def subspace_intersection(s: Subspace, t: Subspace) -> Subspace:
    """S ∩ T, realized through complements: (S^⊥ ⊕ T^⊥)^⊥."""
    _check_same_ambient(s, t)
    return orthogonal_complement(
        subspace_sum(orthogonal_complement(s), orthogonal_complement(t)))


def enumerate_subspace(s: Subspace) -> Iterator[VectorT]:
    """All elements (finite field only); caller is responsible for caps."""
    field = s.field
    if not isinstance(field, PrimeField):
        raise TypeError("cannot enumerate a rational subspace")
    n = s.ambient_dim
    elems = [zero_vector(field, n)]
    for row in s.basis:
        scaled = [vec_scale(field, c, row) for c in field.elements()]
        elems = [vec_add(field, e, sv) for e in elems for sv in scaled]
    return iter(elems)


# ---------------------------------------------------------------------------
# cosets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Coset:
    """subspace + shift with the shift canonicalized, so == is semantic."""

    subspace: Subspace
    shift: tuple

    @property
    def field(self) -> FieldT:
        return self.subspace.field

    @property
    def ambient_dim(self) -> int:
        return self.subspace.ambient_dim

    def contains(self, x: VectorT) -> bool:
        field = self.subspace.field
        return contains(self.subspace, vec_sub(field, vector(field, x), self.shift))


def make_coset(subspace: Subspace, shift: Iterable) -> Coset:
    return Coset(subspace, reduce_mod_subspace(subspace, vector(subspace.field, shift)))


def _solve_augmented(field: FieldT, n: int, rows: Sequence[VectorT],
                     rhs: Sequence) -> Optional[tuple[MatrixT, VectorT]]:
    """One elimination of [rows | rhs]: the RREF rows of the left block and
    one solution x of row_i . x = rhs_i with the free variables zero, or None
    when a pivot falls in the last column (0 = 1)."""
    reduced, pivots = _rref_rows(
        field, [tuple(r) + (b,) for r, b in zip(rows, rhs)])
    if pivots and pivots[-1] == n:
        return None
    x = [field.zero] * n
    for row, piv in zip(reduced, pivots):
        x[piv] = row[n]
    return tuple(tuple(row[:n]) for row in reduced), tuple(x)


def solve_linear(field: FieldT, n: int, rows: Sequence[VectorT], rhs: Sequence) -> Optional[VectorT]:
    """One solution x (length n) of row_i . x = rhs_i, or None if inconsistent.

    Gaussian elimination on the augmented system; free variables are set to
    zero, so the result is deterministic.
    """
    solved = _solve_augmented(field, n, rows, rhs)
    return None if solved is None else solved[1]


def coset_intersection(c1: Coset, c2: Coset) -> Optional[Coset]:
    """(S1+u1) ∩ (S2+u2) as a coset of S1∩S2, or None when empty.

    One elimination of the stacked constraints [S_i^⊥ | S_i^⊥.u_i]: its left
    block is the RREF of S1^⊥ + S2^⊥, whose complement is S1∩S2.
    """
    _check_same_ambient(c1.subspace, c2.subspace)
    field = c1.field
    n = c1.ambient_dim
    constraints = []
    rhs = []
    for c in (c1, c2):
        for row in orthogonal_complement(c.subspace).basis:
            constraints.append(row)
            rhs.append(dot(field, row, c.shift))
    solved = _solve_augmented(field, n, constraints, rhs)
    if solved is None:
        return None
    left, u = solved
    return make_coset(orthogonal_complement(Subspace(field, n, left)), u)


def enumerate_coset(c: Coset) -> Iterator[VectorT]:
    field = c.field
    for v in enumerate_subspace(c.subspace):
        yield vec_add(field, v, c.shift)
