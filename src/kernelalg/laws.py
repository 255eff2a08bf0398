"""Checkable law catalog over concrete declared objects.

Each function takes plain name->object dicts (as produced by evaluating a
document) and returns one LawResult per verified instance.  Everything here
is an exact check: a law either holds with equality or the result is a
failure.  The CLI `check` subcommand prints one line per result; the test
suite calls the same functions on randomized inputs.
"""

from __future__ import annotations

from itertools import product as iter_product

from . import algebra as alg
from .bayes import bayes_check, posterior
from .disintegration import (
    absolutely_continuous,
    cond_kernel,
    is_cond_kernel,
    rn_deriv,
    singular_part,
    with_density,
)
from .errors import KernelAlgError
from .records import Record
from .spaces import Product

__all__ = [
    "SUITES", "LawResult", "algebra_laws", "disintegration_laws", "bayes_laws", "run_laws"
]

# The suites run_laws knows, and so the choices of `check --laws`.
SUITES = ("algebra", "disintegration", "bayes", "all")


class LawResult(Record):
    __slots__ = ("law", "subject", "ok", "detail")
    _defaults = {"detail": ""}

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        suffix = f"  ({self.detail})" if self.detail and not self.ok else ""
        return f"{status} {self.law} {self.subject}{suffix}"


def _spaces_in_use(kernels: dict) -> dict:
    spaces = {}
    for name, k in kernels.items():
        spaces.setdefault(str(k.domain), k.domain)
        spaces.setdefault(str(k.codomain), k.codomain)
    return spaces


def algebra_laws(kernels: dict) -> list[LawResult]:
    results = []

    for label, space in _spaces_in_use(kernels).items():
        copy = alg.copy_kernel(space)
        ok = alg.marginal_fst(copy) == alg.identity_kernel(space)
        results.append(LawResult("fst.copy=id", label, ok))
        swap = alg.swap_kernel(space, space)
        results.append(
            LawResult("swap.copy=copy", label, alg.compose(swap, copy) == copy)
        )

    for name, k in kernels.items():
        ident_l = alg.compose(alg.identity_kernel(k.codomain), k) == k
        ident_r = alg.compose(k, alg.identity_kernel(k.domain)) == k
        results.append(LawResult("unit-laws", name, ident_l and ident_r))
        if k.is_markov():
            lhs = alg.compose(alg.discard_kernel(k.codomain), k)
            results.append(
                LawResult("discard-law", name, lhs == alg.discard_kernel(k.domain))
            )

    names = sorted(kernels)
    comps = {}  # (a, b) -> b.a, for every composable pair
    for a, b in iter_product(names, names):
        ka, kb = kernels[a], kernels[b]
        if ka.codomain == kb.domain:
            comp = comps[a, b] = alg.compose(kb, ka)
            if ka.is_markov() and kb.is_markov():
                results.append(
                    LawResult("markov-stability", f"{b}.{a}", comp.is_markov())
                )
            # composition agrees with the snd marginal of the sequential pairing
            lifted = alg.prod_mk_left(ka.domain, kb)
            paired = alg.comp_prod(ka, lifted)
            results.append(
                LawResult(
                    "comp-via-pairing-snd", f"{b}.{a}", alg.marginal_snd(paired) == comp
                )
            )
        if ka.domain == kb.domain:
            direct = alg.prod(ka, kb)
            composite = alg.compose(
                alg.parallel(ka, kb), alg.copy_kernel(ka.domain)
            )
            results.append(
                LawResult("prod-via-copy", f"{a}x{b}", direct == composite)
            )
        if kb.domain == Product(ka.domain, ka.codomain):
            direct = alg.comp_prod(ka, kb)
            results.append(
                LawResult(
                    "comp-prod-two-routes",
                    f"{a}(x){b}",
                    direct == alg.comp_prod_via_primitives(ka, kb),
                )
            )

    for a, b, c in iter_product(names, names, names):
        if (a, b) in comps and (b, c) in comps:
            left = alg.compose(kernels[c], comps[a, b])
            right = alg.compose(comps[b, c], kernels[a])
            results.append(LawResult("associativity", f"{c}.{b}.{a}", left == right))

    return results


def disintegration_laws(kernels: dict) -> list[LawResult]:
    results = []
    for name, k in kernels.items():
        if isinstance(k.codomain, Product) and k.codomain.right.size > 0:
            ck = cond_kernel(k)
            results.append(LawResult("cond-kernel-markov", name, ck.is_markov()))
            results.append(
                LawResult("disintegration", name, is_cond_kernel(k, ck))
            )
    names = sorted(kernels)
    for a, b in iter_product(names, names):
        ka, kb = kernels[a], kernels[b]
        if a == b or ka.domain != kb.domain or ka.codomain != kb.codomain:
            continue
        density = rn_deriv(ka, kb)
        singular = singular_part(ka, kb)
        rebuilt = alg.add_kernels(with_density(kb, density), singular)
        results.append(LawResult("rn-reconstruction", f"d{a}/d{b}", rebuilt == ka))
        disjoint = all(
            not (ns and ne)
            for rs, re in zip(singular.rows, kb.rows)
            for ns, ne in zip(rs.nums, re.nums)
        )
        results.append(LawResult("rn-singular-disjoint", f"d{a}/d{b}", disjoint))
        is_zero = not any(any(r.nums) for r in singular.rows)
        results.append(
            LawResult(
                "rn-ac-iff-no-singular",
                f"d{a}/d{b}",
                absolutely_continuous(ka, kb) == is_zero,
            )
        )
    return results


def bayes_laws(kernels: dict, measures: dict) -> list[LawResult]:
    results = []
    for kname, k in sorted(kernels.items()):
        for mname, mu in sorted(measures.items()):
            if mu.space != k.domain or not mu.is_probability() or not k.is_markov():
                continue
            subject = f"{kname}+{mname}"
            post = posterior(k, mu)
            evidence = alg.comp_measure(k, mu)
            joint = alg.comp_prod_measure(mu, k)
            swapped = alg.comp_measure(alg.swap_kernel(mu.space, k.codomain), joint)
            results.append(
                LawResult(
                    "posterior-swap-identity",
                    subject,
                    alg.comp_prod_measure(evidence, post) == swapped,
                )
            )
            results.append(
                LawResult("bayes-formula", subject, bayes_check(k, mu).holds)
            )
    return results


def run_laws(which: str, kernels: dict, measures: dict) -> list[LawResult]:
    which = which.lower()
    if which not in SUITES:
        raise KernelAlgError(f"unknown law suite {which!r}")
    results = []
    if which in ("algebra", "all"):
        results.extend(algebra_laws(kernels))
    if which in ("disintegration", "all"):
        results.extend(disintegration_laws(kernels))
    if which in ("bayes", "all"):
        results.extend(bayes_laws(kernels, measures))
    return results
