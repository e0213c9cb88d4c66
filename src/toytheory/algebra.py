"""Exact linear algebra over prime fields Z_p and the rationals Q.

Scalars are plain ints in {0..p-1} for Z_p and ``fractions.Fraction`` for Q
(automatically in lowest terms with positive denominator); vectors are tuples,
matrices tuples of row tuples.  No floating point anywhere.  Subspaces carry a
reduced-row-echelon basis and cosets a shift with zeroed pivot coordinates, so
structurally equal values are semantically equal and usable as dict keys.

Row arithmetic lives in the field classes.  `PrimeField` and `RationalField`
each own the same row kernels (`vector`, `dot`, `add_rows`, `sub_rows`,
`scale_row`, `sub_scaled`), and the functions below call them once per row,
never once per scalar.  Over Z_p a kernel is one whole-row expression with
one ``% p`` per entry.  Over Q a kernel is `Fraction` arithmetic, but `dot`
sums numerators over a running common denominator and builds one `Fraction`,
and `RationalField.rref_rows` eliminates over Z: each row is scaled to ints
by the lcm of its denominators and kept divided by its content gcd, and the
canonical rows come back as `Fraction`s over their pivots.

Value constraints g.x = value are solved by `_solve_augmented`, one
elimination of [rows | values]; a caller with several sets of constraints
(two cosets, a state and an outcome) stacks their rows and values first.

Scalar contract (`coerce` and `vector`): ints (reduced mod p, negative ones
too), `Fraction`s (reduced mod p through the inverse of the denominator),
and strings ``"a"`` or ``"a/b"``.  Floats are rejected with `TypeError`: a
float is already rounded, so it has no exact value to keep.  The row kernels
other than `vector` take canonical elements, the values `vector` returns.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, count
from math import gcd, lcm
from operator import mul
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


_ENTRY = re.compile(r"[+-]?[0-9]+(/[0-9]*[1-9][0-9]*)?")


def _parse_entry(s: str) -> Fraction:
    """An entry string: "a" or "a/b" in decimal digits, a optionally signed
    and b nonzero.  Any other string is a ValueError naming it."""
    if _ENTRY.fullmatch(s) is None:
        raise ValueError(f"entry {s!r} is not 'a' or 'a/b' with b nonzero")
    return Fraction(s)


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
        p = self.p
        if isinstance(x, str):
            x = _parse_entry(x)
        if isinstance(x, Fraction):
            if x.denominator % p == 0:
                raise ValueError(f"{x} has no value in Z_{p}")
            return x.numerator * pow(x.denominator, -1, p) % p
        if not isinstance(x, int):
            raise TypeError(f"cannot coerce {x!r} into Z_{p}: "
                            "entries are ints, Fractions or 'a/b' strings")
        return x % p

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

    def elements(self) -> range:
        return range(self.p)

    # row kernels: one whole-row expression, one % p per entry

    def vector(self, entries: Iterable) -> VectorT:
        p = self.p
        return tuple([x % p if type(x) is int else self.coerce(x)
                      for x in entries])

    def dot(self, a: VectorT, b: VectorT) -> int:
        return sum(map(mul, a, b)) % self.p

    def add_rows(self, a: VectorT, b: VectorT) -> VectorT:
        p = self.p
        return tuple([(x + y) % p for x, y in zip(a, b)])

    def sub_rows(self, a: VectorT, b: VectorT) -> VectorT:
        p = self.p
        return tuple([(x - y) % p for x, y in zip(a, b)])

    def scale_row(self, c, a: VectorT) -> VectorT:
        p = self.p
        return tuple([c * x % p for x in a])

    def sub_scaled(self, a: VectorT, c, b: VectorT) -> VectorT:
        """a - c*b."""
        p = self.p
        return tuple([(x - c * y) % p for x, y in zip(a, b)])

    def __repr__(self):
        return f"GF({self.p})"


_Q0 = Fraction(0)


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
        if type(x) is Fraction:
            return x
        if isinstance(x, (int, Fraction)):
            return Fraction(x)
        if isinstance(x, str):
            return _parse_entry(x)
        raise TypeError(f"cannot coerce {x!r} into QQ: "
                        "entries are ints, Fractions or 'a/b' strings")

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

    # row kernels: the same rows as over Z_p, in Fraction arithmetic; each
    # Fraction built costs a gcd, so zero entries are passed through and
    # `dot`, the most called, builds only its result

    def vector(self, entries: Iterable) -> VectorT:
        return tuple([x if type(x) is Fraction else self.coerce(x)
                      for x in entries])

    def dot(self, a: VectorT, b: VectorT) -> Fraction:
        num, den = 0, 1
        for x, y in zip(a, b):
            if x and y:
                d = x.denominator * y.denominator
                if d == den:
                    num += x.numerator * y.numerator
                else:
                    g = gcd(den, d)
                    num = (num * (d // g)
                           + x.numerator * y.numerator * (den // g))
                    den = den // g * d
        return Fraction(num, den)

    def add_rows(self, a: VectorT, b: VectorT) -> VectorT:
        return tuple([x + y for x, y in zip(a, b)])

    def sub_rows(self, a: VectorT, b: VectorT) -> VectorT:
        return tuple([x - y for x, y in zip(a, b)])

    def scale_row(self, c, a: VectorT) -> VectorT:
        return tuple([c * x if x else x for x in a])

    def sub_scaled(self, a: VectorT, c, b: VectorT) -> VectorT:
        """a - c*b."""
        return tuple([x - c * y if y else x for x, y in zip(a, b)])

    def rref_rows(self, rows: Sequence[VectorT]) -> tuple[list, list]:
        """`_rref_rows` over Q, eliminated over Z.

        Each row is scaled to ints by the lcm of its denominators, and
        Gauss-Jordan runs on ints (a*row_i - f*row_r, divided by the new
        row's content gcd, so entries stay small).  Each output entry is
        then built once, as the int over its row's pivot.
        """
        work = []
        for row in rows:
            dens = [x.denominator for x in row]
            den = lcm(*dens)
            work.append([x.numerator for x in row] if den == 1 else
                        [x.numerator * (den // d) for x, d in zip(row, dens)])
        m = len(work)
        n = len(work[0]) if m else 0
        pivots = []
        r = 0
        for c in range(n):
            for piv in range(r, m):
                if work[piv][c]:
                    break
            else:
                continue
            row = work[piv]
            work[piv] = work[r]
            work[r] = row
            a = row[c]
            for i in range(m):
                other = work[i]
                f = other[c]
                if f and i != r:
                    g = gcd(a, f)
                    ag, fg = a // g, f // g
                    new = [ag * x - fg * y for x, y in zip(other, row)]
                    g = gcd(*new)
                    work[i] = [x // g for x in new] if g > 1 else new
            pivots.append(c)
            r += 1
            if r == m:
                break
        return [tuple([Fraction(x, row[c]) if x else _Q0 for x in row])
                for row, c in zip(work, pivots)], pivots

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
    return field.vector(entries)


def zero_vector(field: FieldT, n: int) -> VectorT:
    return (field.zero,) * n


def vec_add(field: FieldT, a: VectorT, b: VectorT) -> VectorT:
    if len(a) != len(b):
        raise DimensionMismatch(f"vector lengths {len(a)} vs {len(b)}")
    return field.add_rows(a, b)


def vec_sub(field: FieldT, a: VectorT, b: VectorT) -> VectorT:
    if len(a) != len(b):
        raise DimensionMismatch(f"vector lengths {len(a)} vs {len(b)}")
    return field.sub_rows(a, b)


def dot(field: FieldT, a: VectorT, b: VectorT):
    """Standard dot product; this is how an observable is evaluated on an
    ontic state and how orthogonal complements are taken."""
    if len(a) != len(b):
        raise DimensionMismatch(f"vector lengths {len(a)} vs {len(b)}")
    return field.dot(a, b)


def matrix(field: FieldT, rows: Iterable[Iterable]) -> MatrixT:
    return tuple(vector(field, row) for row in rows)


def identity_matrix(field: FieldT, n: int) -> MatrixT:
    zero = (field.zero,)
    return tuple([zero * i + (field.one,) + zero * (n - 1 - i)
                  for i in range(n)])


def mat_transpose(m: MatrixT) -> MatrixT:
    return tuple(zip(*m))


def mat_vec(field: FieldT, m: MatrixT, x: VectorT) -> VectorT:
    if len(m[0]) != len(x):
        raise DimensionMismatch("matrix/vector shape mismatch")
    return tuple([field.dot(row, x) for row in m])


def mat_mul(field: FieldT, a: MatrixT, b: MatrixT) -> MatrixT:
    if len(a[0]) != len(b):
        raise DimensionMismatch("matrix shapes do not compose")
    bt = mat_transpose(b)
    return tuple(tuple([field.dot(row, col) for col in bt]) for row in a)


def mat_inverse(field: FieldT, m: MatrixT) -> MatrixT:
    """Inverse by one elimination of [M | I]; raises ZeroDivisionError on
    singular input (a pivot falls in the right block)."""
    n = len(m)
    reduced, pivots = _rref_rows(
        field, [tuple(row) + erow
                for row, erow in zip(m, identity_matrix(field, n))])
    if pivots != list(range(n)):
        raise ZeroDivisionError("singular matrix")
    return tuple(r[n:] for r in reduced)


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


def _rref_rows(field: FieldT, rows: Sequence[VectorT]) -> tuple[list, list]:
    """RREF of tuples of canonical elements; returns (nonzero rows as
    tuples, pivot columns)."""
    if type(field) is RationalField:
        return field.rref_rows(rows)
    rows = list(rows)
    m = len(rows)
    n = len(rows[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        for piv in range(r, m):
            if rows[piv][c]:
                break
        else:
            continue
        row = rows[piv]
        if row[c] != 1:
            row = field.scale_row(field.inv(row[c]), row)
        rows[piv] = rows[r]
        rows[r] = row
        for i in range(m):
            f = rows[i][c]
            if f and i != r:
                rows[i] = field.sub_scaled(rows[i], f, row)
        pivots.append(c)
        r += 1
        if r == m:
            break
    return rows[:r], pivots


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
    return Subspace(field, ambient_dim, tuple(reduced))


def zero_subspace(field: FieldT, ambient_dim: int) -> Subspace:
    return Subspace(field, ambient_dim, ())


def full_subspace(field: FieldT, ambient_dim: int) -> Subspace:
    return Subspace(field, ambient_dim, identity_matrix(field, ambient_dim))


def _pivot_columns(s: Subspace) -> list[int]:
    """The first nonzero coordinate of each basis row."""
    return [next(compress(count(), row)) for row in s.basis]


def _check_same_ambient(s: Subspace, t: Subspace):
    if s.field != t.field or s.ambient_dim != t.ambient_dim:
        raise DimensionMismatch("subspaces live in different ambient spaces")


def contains(s: Subspace, x: VectorT) -> bool:
    """Membership test: x reduces to zero against the RREF basis."""
    return not any(reduce_mod_subspace(s, x))


def reduce_mod_subspace(s: Subspace, x: VectorT) -> VectorT:
    """Canonical representative of x + S: zero out all pivot coordinates."""
    field = s.field
    x = field.vector(x)
    if len(x) != s.ambient_dim:
        raise DimensionMismatch(
            f"vector length {len(x)} != ambient dimension {s.ambient_dim}")
    for row, piv in zip(s.basis, _pivot_columns(s)):
        c = x[piv]
        if c:
            x = field.sub_scaled(x, c, row)
    return x


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


def _image_of_kernel(field: FieldT, left: Sequence[VectorT],
                     right: Sequence[VectorT]) -> tuple:
    """The canonical basis of {c·R : c·L = 0}: after one elimination of
    [L | R], the right blocks of the rows whose pivot lies there (each led
    by a 1 that every other such row is zero under)."""
    m = len(left[0]) if left else 0
    reduced, pivots = _rref_rows(
        field, [tuple(l) + tuple(r) for l, r in zip(left, right)])
    return tuple(row[m:] for row, c in zip(reduced, pivots) if c >= m)


def subspace_intersection(s: Subspace, t: Subspace) -> Subspace:
    """S ∩ T: the combinations c·S of S's rows with c·S ≡ 0 mod T, and
    reduction mod T is linear, so c·(S's rows reduced mod T) = 0."""
    _check_same_ambient(s, t)
    return Subspace(s.field, s.ambient_dim, _image_of_kernel(
        s.field, [reduce_mod_subspace(t, b) for b in s.basis], s.basis))


def enumerate_subspace(s: Subspace) -> Iterator[VectorT]:
    """All elements (finite field only); caller is responsible for caps."""
    return _span_from(s.field, zero_vector(s.field, s.ambient_dim), s.basis)


def _span_from(field: FieldT, start: VectorT,
               basis: Sequence[VectorT]) -> Iterator[VectorT]:
    """start + every combination of the basis rows: each earlier point is
    followed by its sums with c*row for c = 1..p-1, one row at a time."""
    if not isinstance(field, PrimeField):
        raise TypeError("cannot enumerate a rational subspace")
    add_rows = field.add_rows
    elems = [start]
    for row in basis:
        scaled = [field.scale_row(c, row) for c in range(1, field.p)]
        elems = [v for e in elems
                 for v in (e, *[add_rows(e, sv) for sv in scaled])]
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
    return Coset(subspace, reduce_mod_subspace(subspace, shift))


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
    return tuple(row[:n] for row in reduced), tuple(x)


def solve_linear(field: FieldT, n: int, rows: Sequence[VectorT], rhs: Sequence) -> Optional[VectorT]:
    """One solution x (length n) of row_i . x = rhs_i, or None if inconsistent.

    Gaussian elimination on the augmented system; free variables are set to
    zero, so the result is deterministic.
    """
    solved = _solve_augmented(field, n, [field.vector(r) for r in rows],
                              [field.coerce(b) for b in rhs])
    return None if solved is None else solved[1]


def coset_intersection(c1: Coset, c2: Coset) -> Optional[Coset]:
    """(S1+u1) ∩ (S2+u2) as a coset of S1∩S2, or None when empty.

    One `_solve_augmented` of the constraints g.x = g.u_i for g in S_i^⊥:
    the stacked rows span S1^⊥ + S2^⊥, whose complement is S1∩S2.
    """
    _check_same_ambient(c1.subspace, c2.subspace)
    field = c1.field
    n = c1.ambient_dim
    rows, rhs = [], []
    for c in (c1, c2):
        perp = orthogonal_complement(c.subspace).basis
        rows += perp
        rhs += [field.dot(row, c.shift) for row in perp]
    solved = _solve_augmented(field, n, rows, rhs)
    if solved is None:
        return None
    basis, u = solved
    return make_coset(orthogonal_complement(Subspace(field, n, basis)), u)


def enumerate_coset(c: Coset) -> Iterator[VectorT]:
    """All points of the coset (finite field only), in the order of
    `enumerate_subspace` on its subspace, each shifted."""
    return _span_from(c.field, c.shift, c.subspace.basis)
