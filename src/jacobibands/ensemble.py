"""Seeded random ensembles run through the full verification pipeline.

Each trial builds the discriminant, extracts bands, cross-checks the edges
against the Floquet oracle, computes the potential-theoretic report, and
evaluates all bound records. Failures are captured per invariant family
in the trial report; nothing aborts the ensemble. Trials draw from
independent generators keyed by (seed, trial index), so results are
deterministic and order-free.
"""

from __future__ import annotations

import math
import numbers
import random
from dataclasses import asdict, dataclass, field

from . import bounds as bounds_mod
from .bands import ORACLE_MATCH_RTOL, BandStructure, band_structure
from .coefficients import PeriodicCoefficients, new_periodic
from .discriminant import build_discriminant
from .errors import AlternationFailure, CapacityMismatch, ConfigInvalid, JacobiBandsError

# Bound by name only for the ("jacobibands.ensemble", "band_edges_oracle")
# entry of perfbench/tracing.py TARGETS, which `Tracer.install` looks up:
# build_discriminant calls the oracle once and run_trial reads its
# eigenvalues off the BandStructure, so nothing here calls it.
from .floquet import band_edges_oracle
from .potential import PotentialReport, potential_report, potential_to_jsonable

FAMILY_NAMES = (
    "discriminant",
    "bands",
    "oracle",
    "capacity",
    "alternation",
    "bounds_unconditional",
    "bounds_conditional",
)


@dataclass(frozen=True)
class EnsembleConfig:
    trials: int = 100
    seed: int = 0
    p_min: int = 2
    p_max: int = 10
    a_lo: float = 0.1
    a_hi: float = 10.0
    b_lo: float = -5.0
    b_hi: float = 5.0


def validate_config(cfg: EnsembleConfig) -> None:
    for name in ("trials", "p_min", "p_max"):
        value = getattr(cfg, name)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigInvalid(f"{name} must be an int, got {value!r}")
    for name in ("a_lo", "a_hi", "b_lo", "b_hi"):
        value = getattr(cfg, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ConfigInvalid(f"{name} must be a real number, got {value!r}")
        if not math.isfinite(value):
            raise ConfigInvalid(f"non-finite range endpoint {name} = {value!r}")
    if cfg.trials < 1:
        raise ConfigInvalid(f"trials must be >= 1, got {cfg.trials}")
    if not (1 <= cfg.p_min <= cfg.p_max):
        raise ConfigInvalid(f"need 1 <= p_min <= p_max, got [{cfg.p_min}, {cfg.p_max}]")
    if not (0.0 < cfg.a_lo <= cfg.a_hi):
        raise ConfigInvalid(f"need 0 < a_lo <= a_hi, got [{cfg.a_lo}, {cfg.a_hi}]")
    if not (cfg.b_lo <= cfg.b_hi):
        raise ConfigInvalid(f"need b_lo <= b_hi, got [{cfg.b_lo}, {cfg.b_hi}]")


def sample_operator(cfg: EnsembleConfig, trial_index: int) -> PeriodicCoefficients:
    """Draw one operator, fully determined by (cfg.seed, trial_index).

    The period is uniform on [p_min, p_max], off-diagonal entries are
    log-uniform on [a_lo, a_hi], diagonal entries uniform on [b_lo, b_hi].
    String-keyed seeding makes the stream stable across platforms and
    independent of any other trial.
    """
    rng = random.Random(f"{cfg.seed}:{trial_index}")
    p = rng.randint(cfg.p_min, cfg.p_max)
    log_lo, log_hi = math.log(cfg.a_lo), math.log(cfg.a_hi)
    a = [math.exp(rng.uniform(log_lo, log_hi)) for _ in range(p)]
    b = [rng.uniform(cfg.b_lo, cfg.b_hi) for _ in range(p)]
    return new_periodic(a, b)


@dataclass(frozen=True)
class FamilyResult:
    passed: bool
    detail: str = ""


@dataclass
class TrialReport:
    index: int
    coefficients: PeriodicCoefficients
    families: dict[str, FamilyResult] = field(default_factory=dict)
    band_structure: BandStructure | None = None
    potential: PotentialReport | None = None
    bounds: bounds_mod.BoundsReport | None = None
    oracle_max_discrepancy: float = math.nan
    capacity_rel_error: float = math.nan

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.families.values())


def _skip_remaining(report: TrialReport, start: int, reason: str) -> None:
    for name in FAMILY_NAMES[start:]:
        report.families[name] = FamilyResult(False, f"skipped: {reason}")


def run_trial(c: PeriodicCoefficients) -> TrialReport:
    """Full pipeline on one operator; every failure lands in the report."""
    report = TrialReport(index=-1, coefficients=c)

    try:
        data = build_discriminant(c)
        report.families["discriminant"] = FamilyResult(True)
    except JacobiBandsError as exc:
        report.families["discriminant"] = FamilyResult(False, str(exc))
        _skip_remaining(report, 1, "discriminant failed")
        return report

    try:
        bs = band_structure(data)
        report.band_structure = bs
        report.families["bands"] = FamilyResult(True)
    except JacobiBandsError as exc:
        report.families["bands"] = FamilyResult(False, str(exc))
        _skip_remaining(report, 2, "band extraction failed")
        return report

    disc_edges = sorted(bs.edges)
    oracle_edges = sorted(bs.floquet_eigenvalues[0] + bs.floquet_eigenvalues[1])
    discrepancy = max(abs(x - y) for x, y in zip(disc_edges, oracle_edges))
    report.oracle_max_discrepancy = discrepancy
    tol = ORACLE_MATCH_RTOL * max(1.0, bs.s)
    if discrepancy <= tol:
        report.families["oracle"] = FamilyResult(True)
    else:
        report.families["oracle"] = FamilyResult(False, f"max edge discrepancy {discrepancy:.3e} > {tol:.3e}")

    try:
        pot = potential_report(data, bs)
    except CapacityMismatch as exc:
        report.families["capacity"] = FamilyResult(False, str(exc))
        report.families["alternation"] = FamilyResult(False, "skipped: capacity failed")
    except AlternationFailure as exc:
        # potential_report accepts the capacity before it reads the edges'
        # crossing records, so capacity passed; its relative error is not
        # returned and stays nan.
        report.families["capacity"] = FamilyResult(True)
        report.families["alternation"] = FamilyResult(False, str(exc))
    else:
        # potential_report raised CapacityMismatch unless the capacity
        # matched the geometric mean to 1e-9 relative, and
        # AlternationFailure unless every edge had a record of D crossing
        # its label's target there.
        report.potential = pot
        geo = data.summary.geom_mean_a
        report.capacity_rel_error = abs(pot.cap_spectrum - geo) / geo
        report.families["capacity"] = FamilyResult(True)
        report.families["alternation"] = FamilyResult(True)

    # evaluate_all_bounds raises only for a d_lower or d_upper, and none is passed.
    rep = bounds_mod.evaluate_all_bounds(data, bs)
    report.bounds = rep
    bad_uncond = [
        r.name
        for r in rep.records
        if r.name in bounds_mod.UNCONDITIONAL_NAMES and not r.satisfied
    ]
    bad_cond = [
        r.name
        for r in rep.records
        if r.name in bounds_mod.CONDITIONAL_NAMES and not r.satisfied
    ]
    report.families["bounds_unconditional"] = (
        FamilyResult(True) if not bad_uncond else FamilyResult(False, f"violated: {bad_uncond}")
    )
    report.families["bounds_conditional"] = (
        FamilyResult(True) if not bad_cond else FamilyResult(False, f"violated: {bad_cond}")
    )
    return report


@dataclass
class EnsembleResult:
    config: EnsembleConfig
    trials: list[TrialReport]
    family_pass_counts: dict[str, int]
    condition_met_counts: dict[str, int]
    max_oracle_discrepancy: float
    max_capacity_rel_error: float
    all_passed: bool


def run_ensemble(cfg: EnsembleConfig) -> EnsembleResult:
    """Run cfg.trials seeded trials and aggregate order-independent stats."""
    validate_config(cfg)
    trials: list[TrialReport] = []
    pass_counts = {name: 0 for name in FAMILY_NAMES}
    cond_counts = {name: 0 for name in bounds_mod.CONDITIONAL_NAMES}
    max_disc = 0.0
    max_cap = 0.0
    for k in range(cfg.trials):
        c = sample_operator(cfg, k)
        t = run_trial(c)
        t.index = k
        for name, result in t.families.items():
            if result.passed:
                pass_counts[name] += 1
        if t.bounds is not None:
            for name in bounds_mod.CONDITIONAL_NAMES:
                if t.bounds.by_name(name).condition_met:
                    cond_counts[name] += 1
        if not math.isnan(t.oracle_max_discrepancy):
            max_disc = max(max_disc, t.oracle_max_discrepancy)
        if not math.isnan(t.capacity_rel_error):
            max_cap = max(max_cap, t.capacity_rel_error)
        trials.append(t)
    all_passed = all(pass_counts[name] == cfg.trials for name in FAMILY_NAMES)
    return EnsembleResult(
        config=cfg,
        trials=trials,
        family_pass_counts=pass_counts,
        condition_met_counts=cond_counts,
        max_oracle_discrepancy=max_disc,
        max_capacity_rel_error=max_cap,
        all_passed=all_passed,
    )


def trial_to_jsonable(t: TrialReport) -> dict:
    """Serializable trial record, byte-identical across runs of the same
    configuration: it holds no timing."""
    out = {
        "index": t.index,
        "operator": {"a": list(t.coefficients.a), "b": list(t.coefficients.b), "p": t.coefficients.p},
        "families": {
            name: {"passed": r.passed, "detail": r.detail} for name, r in t.families.items()
        },
        "oracle_max_discrepancy": bounds_mod.encode_extended(t.oracle_max_discrepancy),
        "capacity_rel_error": bounds_mod.encode_extended(t.capacity_rel_error),
    }
    if t.band_structure is not None:
        bs = t.band_structure
        out["bands"] = [[b.lo, b.hi] for b in bs.bands]
        out["gaps"] = [[g.lo, g.hi] for g in bs.gaps]
        out["s"] = bs.s
        out["closed_gap_flags"] = list(bs.closed_gap_flags)
    if t.potential is not None:
        out["potential"] = potential_to_jsonable(t.potential)
    if t.bounds is not None:
        out["bounds"] = [bounds_mod.record_to_jsonable(r) for r in t.bounds.records]
    return out


def ensemble_to_jsonable(res: EnsembleResult) -> dict:
    cfg = res.config
    return {
        "config": asdict(cfg),
        "family_totals": {
            name: {"passed": res.family_pass_counts[name], "total": cfg.trials}
            for name in FAMILY_NAMES
        },
        "condition_met_counts": dict(res.condition_met_counts),
        "max_oracle_discrepancy": bounds_mod.encode_extended(res.max_oracle_discrepancy),
        "max_capacity_rel_error": bounds_mod.encode_extended(res.max_capacity_rel_error),
        "all_passed": res.all_passed,
        "trials": [trial_to_jsonable(t) for t in res.trials],
    }
