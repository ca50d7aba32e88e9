"""High-level simulation runners and convergence reporting.

Every repeated-run entry point accepts either the legacy keyword cloud
(``trials`` / ``max_steps`` / ``quiescence_window`` / ``seed`` / ``engine``)
or a single :class:`repro.api.config.RunConfig`; the keywords are forwarded
into a ``RunConfig`` internally, so both spellings hit the same code path.

Engines are resolved through the pluggable registry of
:mod:`repro.sim.registry`.  Every built-in engine has one of two adapter
shapes: a :class:`ScalarPolicyEngine` runs one scalar-kernel trajectory per
trial seed under a :class:`~repro.sim.kernel.StepPolicy`, and a
:class:`BatchEngine` advances all trials at once through one numpy batch
engine of :mod:`repro.sim.engine`.  :data:`BUILTIN_ENGINES` lists the
built-ins with their adapter classes and capability metadata; it is the one
place that says which kernel policy or batch engine backs each name.

Third-party backends plug in via
:func:`repro.sim.registry.register_engine` and become addressable as
``engine="<name>"`` everywhere without touching any dispatch code.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.api.config import RunConfig
from repro.crn.network import CRN
from repro.sim.engine import (
    BatchFairEngine,
    BatchGillespieEngine,
    BatchTauLeapEngine,
    CompiledCRN,
)
from repro.sim.fair import FairRunResult, FairScheduler
from repro.sim.kernel import (
    FairPolicy,
    GillespiePolicy,
    NextReactionPolicy,
    SimulatorCore,
    StepPolicy,
    TauLeapPolicy,
    default_quiescence_window,
)
from repro.sim.registry import check_engine, engine_names, get_engine, register_engine

__all__ = [
    "ConvergenceReport",
    "default_quiescence_window",  # re-exported; defined in repro.sim.kernel
    "run_to_convergence",
    "run_many",
    "estimate_expected_output",
    "sweep_inputs",
    "register_builtin_engines",
    "BUILTIN_ENGINES",
    "ScalarPolicyEngine",
    "BatchEngine",
    "PythonEngine",
    "VectorizedEngine",
    "NextReactionEngine",
    "TauLeapEngine",
    "TauVecEngine",
]


def __getattr__(name: str):
    # Back-compat: the hard-coded ``ENGINES`` tuple is now a live view of the
    # registry, so engines registered at runtime show up too.
    if name == "ENGINES":
        return engine_names()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass
class ConvergenceReport:
    """Aggregate statistics over repeated runs of one CRN on one input."""

    input_value: Tuple[int, ...]
    outputs: List[int]
    max_outputs: List[int]
    steps: List[int]
    all_silent_or_converged: bool

    @property
    def output_mode(self) -> int:
        """The most frequent final output (ties broken by smallest value)."""
        if not self.outputs:
            raise ValueError(
                "ConvergenceReport aggregates zero runs; output_mode is undefined"
            )
        counts: Dict[int, int] = {}
        for value in self.outputs:
            counts[value] = counts.get(value, 0) + 1
        best = max(counts.values())
        return min(value for value, count in counts.items() if count == best)

    @property
    def output_unanimous(self) -> bool:
        """True if every run ended with the same output count."""
        return len(set(self.outputs)) == 1

    @property
    def mean_steps(self) -> float:
        """Mean number of reactions fired per run."""
        return statistics.fmean(self.steps) if self.steps else 0.0

    @property
    def max_overshoot(self) -> int:
        """The largest amount by which any run's peak output exceeded its final output.

        Zero when the report aggregates zero runs (no run overshot).
        """
        return max(
            (peak - final for peak, final in zip(self.max_outputs, self.outputs)),
            default=0,
        )


def run_to_convergence(
    crn: CRN,
    x: Sequence[int],
    max_steps: int = 1_000_000,
    quiescence_window: Optional[int] = None,
    rng: Optional[random.Random] = None,
) -> FairRunResult:
    """Run the fair scheduler once on input ``x`` until silence or quiescence.

    The quiescence window defaults to a value scaled with the input size so
    that catalytic CRNs (which never fall silent) still terminate.
    """
    if quiescence_window is None:
        quiescence_window = default_quiescence_window(x)
    scheduler = FairScheduler(crn, rng=rng)
    return scheduler.run_on_input(
        x, max_steps=max_steps, quiescence_window=quiescence_window
    )


# ---------------------------------------------------------------------------
# The built-in engines, registered through repro.sim.registry
# ---------------------------------------------------------------------------


def _quiescence_window(x: Sequence[int], config: RunConfig) -> int:
    if config.quiescence_window is None:
        return default_quiescence_window(x)
    return config.quiescence_window


class ScalarPolicyEngine:
    """Adapter shape 1: one :class:`SimulatorCore` trajectory per trial seed.

    A subclass supplies two policy factories: :meth:`run_policy` for
    ``run_many`` and :meth:`kinetic_policy` for ``estimate_expected_output``
    (and for the KS samples of
    :func:`repro.verify.statistical.sample_kinetic_distribution`).  Trial
    ``i`` consumes a ``random.Random`` seeded with the ``i``-th of
    ``config.trial_seeds()``.  Policies are stateless, so one policy serves
    every trial of a call.
    """

    def run_policy(self, config: RunConfig) -> StepPolicy:
        """The scheduling policy of ``run_many``."""
        raise NotImplementedError

    def kinetic_policy(self, config: RunConfig) -> StepPolicy:
        """The mass-action sampler of ``estimate_expected_output``."""
        raise NotImplementedError

    def _runs(self, crn, x, config, policy: StepPolicy, quiescence_window: int = 0):
        for trial_seed in config.trial_seeds():
            core = SimulatorCore(crn, policy, rng=random.Random(trial_seed))
            yield core.run_on_input(
                x, max_steps=config.max_steps, quiescence_window=quiescence_window
            )

    def run_many(self, crn: CRN, x: Sequence[int], config: RunConfig) -> ConvergenceReport:
        policy = self.run_policy(config)
        window = _quiescence_window(x, config)
        results = list(self._runs(crn, x, config, policy, quiescence_window=window))
        return ConvergenceReport(
            input_value=tuple(x),
            outputs=[crn.output_count(r.final_configuration) for r in results],
            max_outputs=[r.max_output_seen for r in results],
            steps=[r.steps for r in results],
            all_silent_or_converged=all(r.silent or r.converged for r in results),
        )

    def estimate_expected_output(
        self, crn: CRN, x: Sequence[int], config: RunConfig
    ) -> float:
        results = self._runs(crn, x, config, self.kinetic_policy(config))
        total = sum((crn.output_count(r.final_configuration) for r in results), 0.0)
        return total / config.trials


class BatchEngine:
    """Adapter shape 2: one numpy batch run advancing every trial at once.

    A subclass supplies two engine factories taking ``(compiled, config)``:
    :meth:`run_engine` for ``run_many`` and :meth:`kinetic_engine` for
    ``estimate_expected_output`` (and for the KS samples of
    :func:`repro.verify.statistical.sample_kinetic_distribution`).  Each
    trial is one row of the batch; all rows share one numpy random stream
    seeded from ``config.seed``.
    """

    def run_engine(self, compiled: CompiledCRN, config: RunConfig):
        """The batch engine of ``run_many``."""
        raise NotImplementedError

    def kinetic_engine(self, compiled: CompiledCRN, config: RunConfig):
        """The batch mass-action sampler of ``estimate_expected_output``."""
        raise NotImplementedError

    def run_many(self, crn: CRN, x: Sequence[int], config: RunConfig) -> ConvergenceReport:
        result = self.run_engine(crn.compiled(), config).run_on_input(
            x,
            batch=config.trials,
            max_steps=config.max_steps,
            quiescence_window=_quiescence_window(x, config),
        )
        return ConvergenceReport(
            input_value=tuple(int(v) for v in x),
            outputs=[int(v) for v in result.output_counts()],
            max_outputs=[int(v) for v in result.max_output_seen],
            steps=[int(v) for v in result.steps],
            all_silent_or_converged=result.all_silent_or_converged(),
        )

    def estimate_expected_output(
        self, crn: CRN, x: Sequence[int], config: RunConfig
    ) -> float:
        result = self.kinetic_engine(crn.compiled(), config).run_on_input(
            x, batch=config.trials, max_steps=config.max_steps
        )
        return float(result.output_counts().mean())


class PythonEngine(ScalarPolicyEngine):
    """Fair scheduling for ``run_many``, exact Gillespie for estimates.

    Seeded runs reproduce the historical dict-backed scalar simulators bit
    for bit.
    """

    def run_policy(self, config: RunConfig) -> StepPolicy:
        return FairPolicy()

    def kinetic_policy(self, config: RunConfig) -> StepPolicy:
        return GillespiePolicy()


class NextReactionEngine(ScalarPolicyEngine):
    """Exact Gibson–Bruck next-reaction SSA on both entry points.

    Samples the same CTMC as the direct method on a differently consumed
    stream, so agreement with ``"python"`` is distributional (KS-gated).
    """

    def kinetic_policy(self, config: RunConfig) -> StepPolicy:
        return NextReactionPolicy()

    run_policy = kinetic_policy


class TauLeapEngine(ScalarPolicyEngine):
    """Approximate tau-leaping SSA on both entry points, error knob ``config.epsilon``."""

    def kinetic_policy(self, config: RunConfig) -> StepPolicy:
        return TauLeapPolicy(epsilon=config.epsilon)

    run_policy = kinetic_policy


class VectorizedEngine(BatchEngine):
    """Batch fair scheduling for ``run_many``, batch exact Gillespie for estimates."""

    def run_engine(self, compiled: CompiledCRN, config: RunConfig) -> BatchFairEngine:
        return BatchFairEngine(compiled, seed=config.seed)

    def kinetic_engine(self, compiled: CompiledCRN, config: RunConfig) -> BatchGillespieEngine:
        return BatchGillespieEngine(compiled, seed=config.seed)


class TauVecEngine(BatchEngine):
    """Batched tau-leaping on both entry points, error knob ``config.epsilon``."""

    def kinetic_engine(self, compiled: CompiledCRN, config: RunConfig) -> BatchTauLeapEngine:
        return BatchTauLeapEngine(compiled, seed=config.seed, epsilon=config.epsilon)

    run_engine = kinetic_engine


#: Every built-in engine: name -> (adapter class, capability metadata passed
#: to :func:`~repro.sim.registry.register_engine`), in registration order.
BUILTIN_ENGINES: Dict[str, Tuple[type, Dict[str, Any]]] = {
    "python": (
        PythonEngine,
        dict(
            supports_gillespie=True,
            supports_fair=True,
            max_recommended_population=20_000,
            description=(
                "Scalar kernel (shared CompiledCRN IR, sparse incremental "
                "propensities); historical seeded behaviour, bit for bit"
            ),
        ),
    ),
    "vectorized": (
        VectorizedEngine,
        dict(
            supports_gillespie=True,
            supports_fair=True,
            max_recommended_population=None,
            batch_capable=True,
            description=(
                "numpy batch engines advancing all trials per step; "
                "reproducible but on a numpy random stream"
            ),
        ),
    ),
    "nrm": (
        NextReactionEngine,
        dict(
            supports_gillespie=True,
            supports_fair=False,
            max_recommended_population=20_000,
            description=(
                "Gibson-Bruck next-reaction method (indexed priority queue of "
                "putative firing times, dependency-graph clock repair); exact, "
                "O(|deps| log R) per step, kinetic scheduling only"
            ),
        ),
    ),
    "tau": (
        TauLeapEngine,
        dict(
            supports_gillespie=True,
            supports_fair=False,
            max_recommended_population=None,
            min_recommended_population=10_000,
            approximate=True,
            description=(
                "tau-leaping approximate SSA (Cao-Gillespie tau selection, "
                "Poisson firing batches, exact fallback); error knob "
                "RunConfig.epsilon, statistically equivalent to exact engines"
            ),
        ),
    ),
    "tau-vec": (
        TauVecEngine,
        dict(
            supports_gillespie=True,
            supports_fair=False,
            max_recommended_population=None,
            min_recommended_population=10_000,
            approximate=True,
            batch_capable=True,
            description=(
                "batched tau-leaping: the whole trial batch advances one "
                "Cao-Gillespie leap per round (dense numpy kinetics, batched "
                "Poisson firings, per-trial exact fallback); error knob "
                "RunConfig.epsilon, statistically equivalent to exact engines"
            ),
        ),
    ),
}


def register_builtin_engines(names: Optional[Iterable[str]] = None) -> None:
    """(Re-)register the built-in engines (all of them, or just ``names``).

    Idempotent (``replace=True``), so module re-execution under
    ``importlib.reload`` / IPython autoreload is safe, and the registry can
    restore a built-in that a test unregistered without touching the others.
    """
    wanted = set(BUILTIN_ENGINES if names is None else names)
    for name, (cls, metadata) in BUILTIN_ENGINES.items():
        if name in wanted:
            register_engine(name, replace=True, **metadata)(cls)


register_builtin_engines()


# ---------------------------------------------------------------------------
# Public entry points (legacy keyword signatures forwarded into RunConfig)
# ---------------------------------------------------------------------------


def run_many(
    crn: CRN,
    x: Sequence[int],
    trials: int = 10,
    max_steps: int = 1_000_000,
    quiescence_window: Optional[int] = None,
    seed: Optional[int] = None,
    engine: str = "python",
    config: Optional[RunConfig] = None,
) -> ConvergenceReport:
    """Run the fair scheduler several times on input ``x`` and aggregate results.

    Pass either the individual keywords or a ready-made ``config``; an
    explicit ``config`` takes precedence over the keywords.  The engine is
    resolved through :mod:`repro.sim.registry`, so any registered backend is
    addressable here.
    """
    if config is None:
        config = RunConfig(
            trials=trials,
            max_steps=max_steps,
            quiescence_window=quiescence_window,
            seed=seed,
            engine=engine,
        )
    return get_engine(config.engine).run_many(crn, x, config)


def estimate_expected_output(
    crn: CRN,
    x: Sequence[int],
    trials: int = 20,
    max_steps: int = 500_000,
    seed: Optional[int] = None,
    engine: str = "python",
    config: Optional[RunConfig] = None,
) -> float:
    """Monte-Carlo estimate of the expected final output under Gillespie kinetics."""
    if config is None:
        config = RunConfig(trials=trials, max_steps=max_steps, seed=seed, engine=engine)
    return get_engine(config.engine).estimate_expected_output(crn, x, config)


def sweep_inputs(
    crn: CRN,
    inputs: Iterable[Sequence[int]],
    trials: int = 5,
    seed: Optional[int] = None,
    config: Optional[RunConfig] = None,
    **kwargs,
) -> List[ConvergenceReport]:
    """Run :func:`run_many` over a collection of inputs.

    Each input gets an independent derived seed
    (:meth:`~repro.api.config.RunConfig.per_input`), so no two inputs of one
    sweep replay the same random stream while the whole sweep stays
    reproducible from the master ``seed``.
    """
    if config is None:
        config = RunConfig(trials=trials, seed=seed, **kwargs)
    inputs = list(inputs)
    return [
        run_many(crn, x, config=derived)
        for x, derived in zip(inputs, config.per_input(len(inputs)))
    ]
