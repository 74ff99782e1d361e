"""Hypothesis audits: bounds and endpoints, density probes, chain-level laws.

The density hypothesis splits into a scalar gap statistic (cheap lower bound,
always positive on finite structures) and the faithful three-target probe
along one nested chain.  Chain-level associativity is checked as composite
instances over the extracted combination table: within a single chain the two
decompositions of Bel(U4|U1) agree by construction, so the content lives in
instances whose four table entries come from different chains.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    EXHAUSTIVE_CHAIN_ATOM_LIMIT,
    ZERO,
    ONE,
    BeliefDomainError,
    BeliefStructure,
    ChainQuadruple,
    Event,
    intern_values,
)
from .forms import (
    CombinationConflict,
    CombinationForm,
    FormError,
    NegationConflict,
    Verdict,
    check_monotonicity,
    extract_combination,
    extract_negation,
)


# -- bounds (Par1 / Par2) --------------------------------------------------------


@dataclass(frozen=True)
class BoundsReport:
    par1: Verdict
    par2: Verdict

    @property
    def passed(self) -> bool:
        return self.par1.passed and self.par2.passed


def check_bounds(structure: BeliefStructure) -> BoundsReport:
    """Range ⊆ [e,E] (Par1) and Bel(∅|U)=e, Bel(U|U)=E for all U (Par2)."""
    e, big_e = structure.bounds
    if structure.is_weight_backed:
        # (μ(V∩U)/μ(U))^k lands in [0,1] with endpoints 0 and 1 exactly.
        if (e, big_e) == (ZERO, ONE):
            return BoundsReport(
                Verdict("pass", "weight backing: values are ratios in [0,1]"),
                Verdict("pass", "weight backing: Bel(∅|U)=0, Bel(U|U)=1 exactly"),
            )
        return BoundsReport(
            Verdict("fail", f"weight backing spans [0,1], declared bounds [{e},{big_e}]"),
            Verdict("fail", f"Bel(∅|U)=0 ≠ e={e}"),
        )
    par1 = Verdict("pass", f"all values within [{e},{big_e}]")
    par2 = Verdict("pass", f"Bel(∅|U)={e} and Bel(U|U)={big_e} for every nonempty U")
    par1_witness = par2_witness = None
    domain = structure.domain
    index = structure.value_index()
    for v, u, r in index.pairs():
        if par1_witness is None and not index.e <= r <= index.E:
            par1_witness = (
                f"Bel({Event(domain, v)!r}|{Event(domain, u)!r}) = {index.values[r]} "
                f"outside [{e},{big_e}]"
            )
        if par2_witness is None and v == 0 and r != index.e:
            par2_witness = f"Bel(∅|{Event(domain, u)!r}) = {index.values[r]} ≠ {e}"
        if par2_witness is None and v == u and r != index.E:
            par2_witness = (
                f"Bel(U|U) = {index.values[r]} ≠ {big_e} at U={Event(domain, u)!r}"
            )
    if par1_witness:
        par1 = Verdict("fail", par1_witness)
    if par2_witness:
        par2 = Verdict("fail", par2_witness)
    return BoundsReport(par1, par2)


# -- density (Par5) ----------------------------------------------------------------


def par5_gap(structure: BeliefStructure, kind: str = "conditional") -> Fraction:
    """Sup over α in [e,E] of the distance to the nearest attained value.

    Equals half the maximum spacing of attained(kind) ∪ {e,E} when the
    endpoints are attained; strictly positive for every finite structure.
    """
    e, big_e = structure.bounds
    values = structure.attained(kind)

    def dist(alpha: Fraction) -> Fraction:
        i = bisect.bisect_left(values, alpha)
        return min(abs(alpha - v) for v in values[max(i - 1, 0):i + 1])

    # the midpoint of adjacent values is (v2 - v1)/2 from its nearest value
    half_spacing = max(
        ((v2 - v1) / 2 for v1, v2 in zip(values, values[1:])
         if e < (v1 + v2) / 2 < big_e),
        default=ZERO,
    )
    return max(dist(e), dist(big_e), half_spacing)


@dataclass(frozen=True)
class DensityProbe:
    """Targets (α, β, γ) in [0,1] and a positive tolerance ε.

    Targets are expressed on [0,1] and rescaled onto the structure's value
    interval when probed.
    """

    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    epsilon: Fraction

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            t = Fraction(getattr(self, name))
            object.__setattr__(self, name, t)
            if not ZERO <= t <= ONE:
                raise ValueError(f"{name} must lie in [0,1]")
        eps = Fraction(self.epsilon)
        object.__setattr__(self, "epsilon", eps)
        if eps <= 0:
            raise ValueError("epsilon must be positive")

    def rescaled(self, bounds: tuple[Fraction, Fraction]):
        e, big_e = bounds
        span = big_e - e
        return (e + self.alpha * span, e + self.beta * span, e + self.gamma * span)


@dataclass(frozen=True)
class TripleSearchResult:
    passed: bool
    chain: ChainQuadruple | None
    deviation: Fraction  # Chebyshev max over the three targets
    method: str  # 'exhaustive' | 'sampled'
    candidates_tried: int

    @property
    def failed(self) -> bool:
        return not self.passed


def _chain_deviation(chain: ChainQuadruple, targets) -> Fraction:
    a, b, g = targets
    return max(abs(chain.x - a), abs(chain.y - b), abs(chain.z - g))


def par5_triples(
    structure: BeliefStructure,
    probe: DensityProbe,
    *,
    seed: int = 0,
    budget: int = 2000,
) -> TripleSearchResult:
    """Search for one nested chain ε-approximating all three targets at once.

    Exhaustive over chains() up to EXHAUSTIVE_CHAIN_ATOM_LIMIT atoms.  Above
    that the search is deterministic-greedy (prefix chains with sizes
    proportional to the targets) followed by seeded random sampling, with the
    candidate count recorded.
    """
    targets = probe.rescaled(structure.bounds)
    eps = probe.epsilon
    if structure.domain.size <= EXHAUSTIVE_CHAIN_ATOM_LIMIT:
        best = None
        best_dev = None
        tried = 0
        for chain in structure.chains():
            tried += 1
            dev = _chain_deviation(chain, targets)
            if dev < eps:
                return TripleSearchResult(True, chain, dev, "exhaustive", tried)
            if best_dev is None or dev < best_dev:
                best, best_dev = chain, dev
        return TripleSearchResult(False, best, best_dev, "exhaustive", tried)
    return _par5_triples_sampled(structure, probe, targets, seed, budget)


def _level_size_candidates(parent: int, target: Fraction, eps: Fraction, floor_size: int):
    """Child sizes worth trying under a parent of size `parent`.

    Proportional sizes come first (round(target·parent) with small jitter);
    then the largest size keeping the ratio under target+ε, which preserves
    resolution one level down when the target itself is near 0.
    """
    ordered = []
    seen = set()
    base = round(target * parent)
    cap = math.ceil((target + eps) * parent) - 1
    for s in (base, base + 1, base - 1, base + 2, base - 2, cap, cap - 1):
        if floor_size <= s <= parent and s not in seen:
            seen.add(s)
            ordered.append(s)
    return ordered


def _par5_triples_sampled(structure, probe, targets, seed, budget):
    eps = probe.epsilon
    n = structure.domain.size
    full = structure.domain.full_mask
    best_key = None
    best = None
    best_dev = None
    tried = 0

    def consider(u1, u2, u3, u4):
        nonlocal best, best_dev, best_key, tried
        tried += 1
        chain = structure._make_chain(u1, u2, u3, u4)
        dev = _chain_deviation(chain, targets)
        if best_dev is None or dev < best_dev:
            best, best_dev = chain, dev
        return chain, dev

    prefix = lambda s: (1 << s) - 1
    # greedy proportional prefix chains
    for s2 in _level_size_candidates(n, probe.gamma, eps, 1):
        for s3 in _level_size_candidates(s2, probe.beta, eps, 1):
            for s4 in _level_size_candidates(s3, probe.alpha, eps, 0):
                chain, dev = consider(full, prefix(s2), prefix(s3), prefix(s4))
                if dev < eps:
                    return TripleSearchResult(True, chain, dev, "sampled", tried)
    # seeded random nested quadruples
    rng = random.Random(seed)
    while tried < budget:
        u1 = u2 = u3 = u4 = 0
        for i in range(n):
            level = rng.randint(0, 4)
            if level >= 1:
                u1 |= 1 << i
            if level >= 2:
                u2 |= 1 << i
            if level >= 3:
                u3 |= 1 << i
            if level >= 4:
                u4 |= 1 << i
        if u3 == 0:
            continue
        chain, dev = consider(u1, u2, u3, u4)
        if dev < eps:
            return TripleSearchResult(True, chain, dev, "sampled", tried)
    return TripleSearchResult(False, best, best_dev, "sampled", tried)


@dataclass(frozen=True)
class FamilyDensityReport:
    passed: bool
    vacuous: bool
    grid_resolution: int
    epsilon: Fraction
    targets_checked: int
    failures: tuple  # ((α,β,γ), best deviation) for failed targets
    worst_target: tuple | None  # ((α,β,γ), achieved deviation, member index)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "vacuous": self.vacuous,
            "grid": self.grid_resolution,
            "epsilon": str(self.epsilon),
            "targets_checked": self.targets_checked,
            "failures": [
                ([str(t) for t in target], str(dev)) for target, dev in self.failures
            ],
            "worst_target": (
                [str(t) for t in self.worst_target[0]],
                str(self.worst_target[1]),
                self.worst_target[2],
            )
            if self.worst_target
            else None,
        }


def par5_family(
    family,
    grid_resolution: int,
    epsilon: Fraction,
    *,
    seed: int = 0,
    budget: int = 2000,
) -> FamilyDensityReport:
    """Par5′: every target triple on the grid is ε-approximated by some member.

    A zero-resolution grid passes vacuously and is flagged as such.  The
    worst-approximated triple reports the deviation the search achieved.
    """
    members = list(family.members)
    if not members:
        raise ValueError("family must be nonempty")
    epsilon = Fraction(epsilon)
    if grid_resolution == 0:
        return FamilyDensityReport(True, True, 0, epsilon, 0, (), None)
    if grid_resolution == 1:
        grid = [ZERO]
    else:
        grid = [Fraction(i, grid_resolution - 1) for i in range(grid_resolution)]
    order = sorted(range(len(members)), key=lambda i: -members[i].domain.size)
    failures = []
    worst = None
    checked = 0
    for alpha in grid:
        for beta in grid:
            for gamma in grid:
                checked += 1
                probe = DensityProbe(alpha, beta, gamma, epsilon)
                target_best = None
                target_member = None
                hit = False
                for idx in order:
                    result = par5_triples(
                        members[idx], probe, seed=seed, budget=budget
                    )
                    if target_best is None or result.deviation < target_best:
                        target_best, target_member = result.deviation, idx
                    if result.passed:
                        hit = True
                        break
                if not hit:
                    failures.append(((alpha, beta, gamma), target_best))
                if worst is None or target_best > worst[1]:
                    worst = ((alpha, beta, gamma), target_best, target_member)
    return FamilyDensityReport(
        not failures, False, grid_resolution, epsilon, checked, tuple(failures), worst
    )


# -- chain-level associativity ------------------------------------------------------


@dataclass(frozen=True)
class ChainCertificate:
    """Composite associativity failure over the extracted combination table.

    Four table entries (each an A2 chain instance with its witness triple)
    force F(x,F(y,z)) ≠ F(F(x,y),z) at attained arguments.  Entries are
    ((x, y), value, (b_mask, a_mask, u_mask)).
    """

    args: tuple[Fraction, Fraction, Fraction]  # (x, y, z)
    inner_right: tuple  # (y,z) -> p
    inner_left: tuple  # (x,y) -> q
    outer_left: tuple  # (x,p) -> r
    outer_right: tuple  # (q,z) -> s

    @property
    def sides(self) -> tuple[Fraction, Fraction]:
        return self.outer_left[1], self.outer_right[1]

    def entries(self):
        return (self.inner_right, self.inner_left, self.outer_left, self.outer_right)

    def recheck(self, structure: BeliefStructure) -> bool:
        """Re-derive all four entries from the structure in exact arithmetic."""
        x, y, z = self.args
        for (args, value, (b, a, u)) in self.entries():
            if structure.bel_masks(b, a) != args[0]:
                return False
            if structure.bel_masks(a, u) != args[1]:
                return False
            if structure.bel_masks(b, u) != value:
                return False
        p = self.inner_right[1]
        q = self.inner_left[1]
        if self.inner_right[0] != (y, z) or self.inner_left[0] != (x, y):
            return False
        if self.outer_left[0] != (x, p) or self.outer_right[0] != (q, z):
            return False
        r, s = self.sides
        return r != s

    def describe(self, domain) -> str:
        x, y, z = self.args
        r, s = self.sides
        return (
            f"F({x},F({y},{z})) = {r} but F(F({x},{y}),{z}) = {s} "
            f"over attained entries"
        )


@dataclass(frozen=True)
class ChainConsistencyReport:
    status: str  # 'pass' | 'fail' | 'untestable'
    vacuous: bool
    instances: int
    nontrivial: int
    certificate: ChainCertificate | None = None
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def chain_consistency(
    structure: BeliefStructure, combination: CombinationForm | None = None
) -> ChainConsistencyReport:
    """Associativity of the extracted F at every attained composite instance.

    Instances chain four table entries: p = F(y,z), q = F(x,y), r = F(x,p),
    s = F(q,z); the check is r = s.  Entries sourced from a single chain agree
    by construction, so failures always involve overlapping chains.  If
    extraction itself conflicts, that conflict is the stronger verdict and the
    check reports untestable.
    """
    if combination is None:
        combination = extract_combination(structure)
    if isinstance(combination, CombinationConflict):
        return ChainConsistencyReport(
            "untestable", False, 0, 0, None,
            f"combination extraction conflict: {combination.describe(structure.domain)}",
        )
    # intern the F table: the composite-instance loop runs on value ranks
    values, ranks = intern_values(
        [t for (x, y), out in combination.table.items() for t in (x, y, out)]
        + list(combination.interval)
    )
    triples = iter(ranks[:-2])
    table = {(x, y): out for x, y, out in zip(triples, triples, triples)}
    endpoints = tuple(ranks[-2:])
    by_first: dict[int, list[int]] = {}
    for (a, b) in table:
        by_first.setdefault(a, []).append(b)
    for key in by_first:
        by_first[key].sort()
    instances = 0
    nontrivial = 0
    for (x, y) in sorted(table):
        q = table[(x, y)]
        for z in by_first.get(y, ()):
            p = table[(y, z)]
            if (x, p) not in table or (q, z) not in table:
                continue
            r, s = table[(x, p)], table[(q, z)]
            instances += 1
            if any(t not in endpoints for t in (x, y, z, p, q, r, s)):
                nontrivial += 1
            if r != s:
                x, y, z, p, q, r, s = (values[t] for t in (x, y, z, p, q, r, s))
                witnesses = combination.witnesses
                certificate = ChainCertificate(
                    args=(x, y, z),
                    inner_right=((y, z), p, witnesses[(y, z)]),
                    inner_left=((x, y), q, witnesses[(x, y)]),
                    outer_left=((x, p), r, witnesses[(x, p)]),
                    outer_right=((q, z), s, witnesses[(q, z)]),
                )
                return ChainConsistencyReport(
                    "fail", False, instances, nontrivial, certificate,
                    certificate.describe(structure.domain),
                )
    return ChainConsistencyReport(
        "pass",
        nontrivial == 0,
        instances,
        nontrivial,
        None,
        "all composite instances agree"
        + (" (vacuous: endpoint values only)" if nontrivial == 0 else ""),
    )


# -- Bel-level negation identity ------------------------------------------------------


@dataclass(frozen=True)
class NegationIdentityReport:
    status: str  # 'pass' | 'fail' | 'untestable'
    checked: int
    gaps: int  # values where S or S∘S is undefined on the table
    failures: tuple = ()
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def bel_level_negation(
    structure: BeliefStructure, negation=None
) -> NegationIdentityReport:
    """S(S(y)) = y at every attained conditional value, over the tabular S.

    Partiality (table gaps on either application) is counted, not hidden.
    """
    if negation is None:
        negation = extract_negation(structure)
    if isinstance(negation, NegationConflict):
        return NegationIdentityReport(
            "untestable", 0, 0, (),
            f"negation extraction conflict: {negation.describe(structure.domain)}",
        )
    checked = 0
    gaps = 0
    failures = []
    for y in structure.attained("conditional"):
        if not negation.defined_at(y):
            gaps += 1
            continue
        s_y = negation(y)
        if not negation.defined_at(s_y):
            gaps += 1
            continue
        checked += 1
        if negation(s_y) != y:
            failures.append((y, s_y, negation(s_y)))
    if failures:
        y, s_y, s_s_y = failures[0]
        return NegationIdentityReport(
            "fail", checked, gaps, tuple(failures),
            f"S(S({y})) = {s_s_y} ≠ {y}",
        )
    detail = f"involution holds at {checked} attained values"
    if gaps:
        detail += f" ({gaps} untestable: table gaps)"
    return NegationIdentityReport("pass", checked, gaps, (), detail)


# -- theorem audits --------------------------------------------------------------------


@dataclass(frozen=True)
class HypothesisVerdict:
    name: str
    status: str  # 'pass' | 'fail' | 'untestable'
    witness: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "pass"


@dataclass(frozen=True)
class AuditReport:
    theorem: str
    hypotheses: tuple[HypothesisVerdict, ...]
    notes: tuple[str, ...] = ()

    @property
    def failed(self) -> bool:
        return any(h.status == "fail" for h in self.hypotheses)

    @property
    def all_passed(self) -> bool:
        return all(h.status == "pass" for h in self.hypotheses)

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "hypotheses": [
                {"name": h.name, "verdict": h.status, "witness": h.witness}
                for h in self.hypotheses
            ],
            "notes": list(self.notes),
        }


def _verdict_of(v: Verdict, name: str) -> HypothesisVerdict:
    return HypothesisVerdict(name, v.status, v.detail)


def _par34_verdicts(structure: BeliefStructure) -> list[HypothesisVerdict]:
    out = []
    negation = extract_negation(structure)
    if isinstance(negation, NegationConflict):
        out.append(
            HypothesisVerdict(
                "par3-negation-decreasing", "fail",
                "A1 admits no function: " + negation.describe(structure.domain),
            )
        )
    else:
        rep = check_monotonicity(negation)
        out.append(_verdict_of(rep.decreasing, "par3-negation-decreasing"))
    combination = extract_combination(structure)
    if isinstance(combination, CombinationConflict):
        out.append(
            HypothesisVerdict(
                "par4-combination-strict-increase", "fail",
                "A2 admits no function: " + combination.describe(structure.domain),
            )
        )
        out.append(HypothesisVerdict("par4-combination-continuity", "untestable",
                                     "A2 admits no function"))
    else:
        rep = check_monotonicity(combination)
        strict = rep.strict_increase
        if strict.passed and not rep.nondecrease.passed:
            strict = rep.nondecrease
        out.append(_verdict_of(strict, "par4-combination-strict-increase"))
        out.append(_verdict_of(rep.continuity, "par4-combination-continuity"))
    return out


def _audit_t1(structure: BeliefStructure) -> AuditReport:
    bounds = check_bounds(structure)
    hypotheses = [
        _verdict_of(bounds.par1, "par1-range"),
        _verdict_of(bounds.par2, "par2-endpoints"),
        *_par34_verdicts(structure),
    ]
    gap = par5_gap(structure)
    hypotheses.append(
        HypothesisVerdict(
            "par5-density", "fail",
            f"unsatisfiable on a finite domain: gap = {gap} > 0",
        )
    )
    return AuditReport("T1", tuple(hypotheses))


def _audit_t2(structure, *, seed: int, decide_params=None) -> AuditReport:
    from .isomorphism import DecisionParams, decide  # local import: avoids cycle

    e, big_e = structure.bounds
    hypotheses = []
    bounds = check_bounds(structure)
    hypotheses.append(_verdict_of(bounds.par1, "range-in-interval"))

    negation = extract_negation(structure)
    if isinstance(negation, NegationConflict):
        hypotheses.append(
            HypothesisVerdict("negation-linear-complement", "fail",
                              negation.describe(structure.domain))
        )
        hypotheses.append(HypothesisVerdict("negation-smoothness", "untestable",
                                            "A1 admits no function"))
    else:
        bad = [
            (x, s_x) for x, s_x in sorted(negation.table.items())
            if x + s_x != e + big_e
        ]
        hypotheses.append(
            HypothesisVerdict("negation-linear-complement", "pass",
                              "extracted S-table is a restriction of x ↦ e+E−x")
            if not bad
            else HypothesisVerdict(
                "negation-linear-complement", "fail",
                f"S({bad[0][0]}) = {bad[0][1]} ≠ {e + big_e - bad[0][0]}",
            )
        )
        hypotheses.append(
            HypothesisVerdict("negation-smoothness", "untestable",
                              "declared smoothness applies to catalog forms only")
        )

    combination = extract_combination(structure)
    if isinstance(combination, CombinationConflict):
        hypotheses.append(
            HypothesisVerdict("combination-commutative", "fail",
                              combination.describe(structure.domain))
        )
        for name in ("combination-annihilator", "combination-unit",
                     "combination-nondecreasing", "combination-strict-increase",
                     "combination-smoothness"):
            hypotheses.append(HypothesisVerdict(name, "untestable",
                                                "A2 admits no function"))
    else:
        table = combination.table
        comm = next(
            (
                (k, table[k], table[(k[1], k[0])])
                for k in sorted(table)
                if (k[1], k[0]) in table and table[(k[1], k[0])] != table[k]
            ),
            None,
        )
        hypotheses.append(
            HypothesisVerdict("combination-commutative", "pass",
                              "commutative at all attained argument swaps")
            if comm is None
            else HypothesisVerdict(
                "combination-commutative", "fail",
                f"F{comm[0]} = {comm[1]} but F{(comm[0][1], comm[0][0])} = {comm[2]}",
            )
        )
        zero_bad = next(
            ((k, v) for k, v in sorted(table.items())
             if (k[0] == e or k[1] == e) and v != e),
            None,
        )
        hypotheses.append(
            HypothesisVerdict("combination-annihilator", "pass",
                              f"F(x,{e}) = F({e},x) = {e} at attained entries")
            if zero_bad is None
            else HypothesisVerdict("combination-annihilator", "fail",
                                   f"F{zero_bad[0]} = {zero_bad[1]} ≠ {e}")
        )
        unit_bad = None
        for (a, b), v in sorted(table.items()):
            if b == big_e and v != a:
                unit_bad = ((a, b), v)
                break
            if a == big_e and v != b:
                unit_bad = ((a, b), v)
                break
        hypotheses.append(
            HypothesisVerdict("combination-unit", "pass",
                              f"F(x,{big_e}) = F({big_e},x) = x at attained entries")
            if unit_bad is None
            else HypothesisVerdict("combination-unit", "fail",
                                   f"F{unit_bad[0]} = {unit_bad[1]}")
        )
        rep = check_monotonicity(combination)
        hypotheses.append(_verdict_of(rep.nondecrease, "combination-nondecreasing"))
        hypotheses.append(_verdict_of(rep.strict_increase, "combination-strict-increase"))
        hypotheses.append(
            HypothesisVerdict("combination-smoothness", "untestable",
                              "declared smoothness applies to catalog forms only")
        )

    params = decide_params or DecisionParams(seed=seed)
    verdict = decide(structure, params)
    if verdict.kind == "refutation":
        hypotheses.append(
            HypothesisVerdict("verdict-refutation", "pass",
                              f"refuted: {verdict.certificate.kind}")
        )
    elif verdict.kind == "witness":
        hypotheses.append(
            HypothesisVerdict("verdict-refutation", "fail",
                              "structure is isomorphic to a probability measure, "
                              "not a counterexample")
        )
    else:
        hypotheses.append(
            HypothesisVerdict("verdict-refutation", "untestable",
                              "isomorphism decision exhausted its budget")
        )
    return AuditReport("T2", tuple(hypotheses))


def _audit_t3(structure, extension) -> AuditReport:
    hypotheses = []
    agree_witness = None
    for v, u, x in structure.items():
        ev, eu = extension.embed_mask(v), extension.embed_mask(u)
        if extension.extended.bel_masks(ev, eu) != x:
            agree_witness = (v, u, x)
            break
    hypotheses.append(
        HypothesisVerdict("extension-agreement", "pass",
                          "Bel⁺ agrees with Bel on all embedded pairs")
        if agree_witness is None
        else HypothesisVerdict(
            "extension-agreement", "fail",
            f"disagreement at embedded pair {agree_witness[:2]}",
        )
    )
    bounds = check_bounds(extension.extended)
    hypotheses.append(_verdict_of(bounds.par1, "par1-range"))
    hypotheses.append(_verdict_of(bounds.par2, "par2-endpoints"))
    try:
        hypotheses.extend(_par34_verdicts(extension.extended))
    except (BeliefDomainError, FormError) as exc:  # too large to enumerate
        hypotheses.append(HypothesisVerdict("par3-negation-decreasing", "untestable", str(exc)))
        hypotheses.append(HypothesisVerdict("par4-combination-strict-increase", "untestable", str(exc)))
        hypotheses.append(HypothesisVerdict("par4-combination-continuity", "untestable", str(exc)))
    base_gap = par5_gap(structure)
    ext_gap = par5_gap(extension.extended)
    hypotheses.append(
        HypothesisVerdict(
            "par5-gap-shrinkage",
            "pass" if ext_gap <= base_gap else "fail",
            f"gap {base_gap} → {ext_gap}",
        )
    )
    return AuditReport(
        "T3",
        tuple(hypotheses),
        notes=(
            "the theorem's hypothesis is existential; this audit verifies the "
            "supplied extension only",
        ),
    )


def _audit_t4(family, *, grid_resolution, epsilon, seed, budget) -> AuditReport:
    hypotheses = []
    hypotheses.append(
        HypothesisVerdict("uniform-negation",
                          "pass" if family.negation_uniform else "fail",
                          family.negation_detail)
    )
    hypotheses.append(
        HypothesisVerdict("uniform-combination",
                          "pass" if family.combination_uniform else "fail",
                          family.combination_detail)
    )
    par1 = par2 = None
    for i, member in enumerate(family.members):
        rep = check_bounds(member)
        if par1 is None and not rep.par1.passed:
            par1 = f"member {i}: {rep.par1.detail}"
        if par2 is None and not rep.par2.passed:
            par2 = f"member {i}: {rep.par2.detail}"
    hypotheses.append(
        HypothesisVerdict("par1-range", "fail" if par1 else "pass",
                          par1 or "all members within bounds")
    )
    hypotheses.append(
        HypothesisVerdict("par2-endpoints", "fail" if par2 else "pass",
                          par2 or "all members normalized at the endpoints")
    )
    s_rep = check_monotonicity(family.merged_negation())
    hypotheses.append(_verdict_of(s_rep.decreasing, "par3-negation-decreasing"))
    f_rep = check_monotonicity(family.merged_combination())
    hypotheses.append(_verdict_of(f_rep.strict_increase, "par4-combination-strict-increase"))
    hypotheses.append(_verdict_of(f_rep.continuity, "par4-combination-continuity"))
    density = par5_family(family, grid_resolution, epsilon, seed=seed, budget=budget)
    hypotheses.append(
        HypothesisVerdict(
            "par5-family-density",
            "pass" if density.passed else "fail",
            f"grid {grid_resolution}^3 at ε={epsilon}: "
            + (
                "all targets approximated"
                if density.passed
                else f"{len(density.failures)} targets missed"
            ),
        )
    )
    return AuditReport("T4", tuple(hypotheses))


def audit(
    structure: BeliefStructure | None,
    theorem: str,
    *,
    extension=None,
    family=None,
    grid_resolution: int = 5,
    epsilon: Fraction = Fraction(1, 20),
    seed: int = 0,
    budget: int = 2000,
    decide_params=None,
) -> AuditReport:
    """Run exactly the hypothesis checks of the named theorem.

    T1 audits Par1–Par4 plus the density gap (finite structures always fail
    Par5 and the report says so).  T2 verifies counterexample shape.  T3 needs
    a supplied extension; T4 a domain family.
    """
    theorem = str(theorem).upper().lstrip("T")
    if theorem == "1":
        return _audit_t1(structure)
    if theorem == "2":
        return _audit_t2(structure, seed=seed, decide_params=decide_params)
    if theorem == "3":
        if extension is None:
            raise ValueError("theorem 3 audit requires an extension")
        return _audit_t3(structure, extension)
    if theorem == "4":
        if family is None:
            raise ValueError("theorem 4 audit requires a domain family")
        return _audit_t4(
            family,
            grid_resolution=grid_resolution,
            epsilon=epsilon,
            seed=seed,
            budget=budget,
        )
    raise ValueError(f"unknown theorem {theorem!r}")
