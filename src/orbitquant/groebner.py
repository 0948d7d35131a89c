"""Multivariate division, Buchberger completion and standard monomials.

Everything here is exact over the rationals and guarded by explicit
capacity limits: when a computation would exceed the configured degree or
term budget it raises CapacityError rather than ever returning a wrong or
truncated answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd
from operator import add

from .errors import CapacityError, StructuralError
from .poly import (
    GREVLEX,
    Exponent,
    MonomialOrder,
    MultiPoly,
    _lowest_terms,
    exponent_div,
    exponent_divides,
    exponent_lcm,
    exponent_mul,
    monomials_up_to_degree,
)


@dataclass(frozen=True)
class Capacity:
    """Resource guard for completion: fail loudly, never truncate."""

    max_degree: int = 60
    max_terms: int = 200_000
    max_basis: int = 300

    def check_poly(self, p: MultiPoly, context: str):
        if p.total_degree() > self.max_degree:
            raise CapacityError(
                f"{context}: degree {p.total_degree()} exceeds cap {self.max_degree}"
            )
        if len(p.flat) > self.max_terms:
            raise CapacityError(
                f"{context}: {len(p.flat)} terms exceed cap {self.max_terms}"
            )


DEFAULT_CAPACITY = Capacity()


def _check_same_variables(polys):
    vars0 = polys[0].variables
    for p in polys[1:]:
        if p.variables != vars0:
            raise StructuralError("polynomials live in different variable lists")
    return vars0


def divide(
    p: MultiPoly,
    divisors: list[MultiPoly],
    order: MonomialOrder = GREVLEX,
    rng=None,
) -> MultiPoly:
    """Full remainder of multivariate division of ``p`` by ``divisors``.

    The remainder has no term divisible by any divisor leading term, and
    p - remainder lies in the ideal generated by the divisors.  With a
    non-Groebner divisor set the remainder may depend on the reduction
    path; passing ``rng`` randomizes divisor choice, which tests use to
    exercise exactly that (non-)dependence.

    Each step takes the leading term of the work from a max-heap of the
    keys of its live terms (a min-heap of ``MonomialOrder.heap_key``): a
    key is pushed when its exponent enters the work, and a popped exponent
    that has left it, cancelled or already taken, is skipped.  The order
    is total, so the steps take the terms in the order of a scan for the
    largest live key, at one key per term that enters the work.
    """
    if not divisors:
        raise StructuralError("division requires at least one divisor")
    _check_same_variables([p] + divisors)
    leads = [d.leading(order)[0] for d in divisors]
    # each divisor read once: -(its other terms) / (its leading coefficient)
    # as integer numerators over a positive denominator t
    tails = [
        _lowest_terms({e: -c for e, c in d.flat.items() if e != lexp}, d.flat[lexp])
        for d, lexp in zip(divisors, leads)
    ]
    # work holds integer numerators over den, which grows by the factor a
    # quotient term needs; each remainder term keeps the den it was taken at
    den = p.den
    work = dict(p.flat)
    heap_key = order.heap_key
    heap = [(heap_key(e), e) for e in work]
    heapify(heap)
    remainder: dict[Exponent, tuple[int, int]] = {}
    while heap:
        exp = heappop(heap)[1]
        c = work.pop(exp, None)
        if c is None:
            continue
        candidates = [i for i, lexp in enumerate(leads) if exponent_divides(lexp, exp)]
        if not candidates:
            remainder[exp] = (c, den)
            continue
        idx = candidates[0] if rng is None else rng.choice(candidates)
        tail, t = tails[idx]
        # c/den times the tail over t: (c/g) * tail over den * (t/g)
        g = gcd(c, t)
        if g != t:
            den *= t // g
            work = {e: v * (t // g) for e, v in work.items()}
        m = c // g
        factor = exponent_div(exp, leads[idx])
        get = work.get
        for dexp, dc in tail.items():
            target = tuple(map(add, dexp, factor))
            old = get(target)
            if old is None:
                work[target] = m * dc
                heappush(heap, (heap_key(target), target))
            elif new := old + m * dc:
                work[target] = new
            else:
                del work[target]
    flat = {e: c * (den // d) for e, (c, d) in remainder.items()}
    return MultiPoly._trusted(p.variables, flat, den)


def s_polynomial(f: MultiPoly, g: MultiPoly, order: MonomialOrder = GREVLEX) -> MultiPoly:
    (fexp, fc) = f.leading(order)
    (gexp, gc) = g.leading(order)
    lcm = exponent_lcm(fexp, gexp)
    mf = MultiPoly.monomial(f.variables, exponent_div(lcm, fexp), Fraction(1) / fc)
    mg = MultiPoly.monomial(g.variables, exponent_div(lcm, gexp), Fraction(1) / gc)
    return mf * f - mg * g


def groebner_basis(
    gens: list[MultiPoly],
    order: MonomialOrder = GREVLEX,
    capacity: Capacity = DEFAULT_CAPACITY,
) -> list[MultiPoly]:
    """Reduced Groebner basis of the ideal generated by ``gens``.

    Buchberger's algorithm with the coprime-leading-term criterion.  The
    output is monic, interreduced, and sorted by leading monomial, so it
    is canonical for the ideal and the order.
    """
    if not gens:
        raise StructuralError("groebner_basis requires at least one generator")
    _check_same_variables(gens)
    basis = [p for p in gens if not p.is_zero()]
    if not basis:
        return []
    for p in basis:
        capacity.check_poly(p, "groebner input")

    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    while pairs:
        # normal selection: smallest lcm of leading monomials first
        def pair_key(ij):
            lexp_i, _ = basis[ij[0]].leading(order)
            lexp_j, _ = basis[ij[1]].leading(order)
            return order.key(exponent_lcm(lexp_i, lexp_j))

        pairs.sort(key=pair_key)
        i, j = pairs.pop(0)
        lexp_i, _ = basis[i].leading(order)
        lexp_j, _ = basis[j].leading(order)
        if exponent_lcm(lexp_i, lexp_j) == exponent_mul(lexp_i, lexp_j):
            continue  # coprime leading terms: s-polynomial reduces to zero
        s = s_polynomial(basis[i], basis[j], order)
        remainder = divide(s, basis, order)
        if remainder.is_zero():
            continue
        capacity.check_poly(remainder, "groebner remainder")
        basis.append(remainder)
        if len(basis) > capacity.max_basis:
            raise CapacityError(f"basis size exceeds cap {capacity.max_basis}")
        pairs.extend((k, len(basis) - 1) for k in range(len(basis) - 1))

    return _interreduce(basis, order)


def _interreduce(basis: list[MultiPoly], order: MonomialOrder) -> list[MultiPoly]:
    # keep only elements whose leading term no earlier-kept lead divides;
    # ascending order guarantees divisors are seen first (graded order)
    basis = sorted(
        (p for p in basis if not p.is_zero()),
        key=lambda p: order.key(p.leading(order)[0]),
    )
    minimal: list[MultiPoly] = []
    kept_leads: list[Exponent] = []
    for p in basis:
        lp = p.leading(order)[0]
        if any(exponent_divides(l, lp) for l in kept_leads):
            continue
        minimal.append(p)
        kept_leads.append(lp)
    # fully reduce each element against the others and make monic
    reduced = []
    for i, p in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1 :]
        if others:
            p = divide(p, others, order)
        if p.is_zero():
            continue
        _, lc = p.leading(order)
        reduced.append(p * (Fraction(1) / lc))
    reduced.sort(key=lambda q: order.key(q.leading(order)[0]))
    return reduced


def poly_normal_form(
    p: MultiPoly,
    gens: list[MultiPoly],
    order: MonomialOrder = GREVLEX,
    capacity: Capacity = DEFAULT_CAPACITY,
) -> MultiPoly:
    """Normal form of ``p`` modulo the ideal generated by ``gens``.

    Completes the generators to a Groebner basis first, so the result is
    canonical and is zero exactly when p lies in the ideal.
    """
    gb = groebner_basis(gens, order, capacity)
    if not gb:
        return p
    return divide(p, gb, order)


def standard_monomials(
    gb: list[MultiPoly],
    order: MonomialOrder = GREVLEX,
    max_degree: int = 0,
    nvars: int | None = None,
) -> list[Exponent]:
    """Monomials of degree <= max_degree outside the leading-term ideal.

    For a Groebner basis these are the standard monomials: their residues
    form a basis of the quotient ring in each degree.  An empty ``gb`` is
    the zero ideal, whose standard monomials are all monomials.
    """
    if gb:
        nvars = len(gb[0].variables)
    elif nvars is None:
        raise StructuralError("zero ideal needs an explicit variable count")
    leads = [g.leading(order)[0] for g in gb]
    out = []
    for exp in monomials_up_to_degree(nvars, max_degree):
        if not any(exponent_divides(l, exp) for l in leads):
            out.append(exp)
    return out
