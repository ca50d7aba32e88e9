"""Scalar-vs-vectorized equivalence suite for the batch simulation engine.

The scalar simulators are the reference oracle: for every catalog CRN the
batch engines must reach the identical stable output, and their step counts
must statistically match the scalar ones.  Also covers the dense compilation
(`CompiledCRN`), seeding policy, and the engine selectors on the runners.
"""

import json
import math
import os
import random

import numpy as np
import pytest

from repro.crn.configuration import Configuration
from repro.crn.network import CRN
from repro.crn.reaction import Reaction
from repro.crn.species import Species, species
from repro.functions.catalog import (
    add_spec,
    constant_spec,
    double_spec,
    floor_3x_over_2_spec,
    identity_spec,
    maximum_spec,
    min_one_spec,
    minimum_spec,
)
from repro.sim import (
    BatchFairEngine,
    BatchGillespieEngine,
    BatchTauLeapEngine,
    CompiledCRN,
    FairScheduler,
    GillespieSimulator,
    estimate_expected_output,
    run_many,
)
from repro.sim.fair import output_producing_bias
from repro.verify import verify_stable_computation


SPEC_FACTORIES = [
    double_spec,
    identity_spec,
    lambda: constant_spec(2),
    add_spec,
    minimum_spec,
    maximum_spec,
    min_one_spec,
    floor_3x_over_2_spec,
]
SPEC_IDS = ["double", "identity", "const2", "add", "min", "max", "min1", "floor3x2"]


def small_inputs(dimension):
    if dimension == 1:
        return [(0,), (1,), (3,), (6,)]
    return [(0, 0), (1, 0), (2, 3), (5, 5), (6, 2)]


# ---------------------------------------------------------------------------
# CompiledCRN: dense compilation, encoding, vectorized kinetics
# ---------------------------------------------------------------------------


class TestCompiledCRN:
    def test_stoichiometry_matrices(self):
        crn = floor_3x_over_2_spec().known_crn  # X -> 3Z, 2Z -> Y
        compiled = CompiledCRN(crn)
        x, y, z = (compiled.index[Species(n)] for n in "XYZ")
        assert compiled.reactants[0, x] == 1 and compiled.products[0, z] == 3
        assert compiled.reactants[1, z] == 2 and compiled.products[1, y] == 1
        assert (compiled.net == compiled.products - compiled.reactants).all()
        assert compiled.output_index == y
        assert compiled.n_reactions == 2 and compiled.n_species == 3

    def test_species_order_matches_crn(self):
        crn = maximum_spec().known_crn
        compiled = CompiledCRN(crn)
        assert compiled.species == crn.species()

    def test_encode_decode_roundtrip(self):
        crn = maximum_spec().known_crn
        compiled = crn.compiled()
        config = crn.initial_configuration((4, 9))
        assert compiled.decode(compiled.encode(config)) == config

    def test_encode_rejects_foreign_species(self):
        compiled = minimum_spec().known_crn.compiled()
        with pytest.raises(ValueError):
            compiled.encode(Configuration({Species("Nope"): 1}))

    def test_encode_batch_tiles_rows(self):
        crn = minimum_spec().known_crn
        compiled = crn.compiled()
        batch = compiled.encode_batch(crn.initial_configuration((2, 3)), 5)
        assert batch.shape == (5, compiled.n_species)
        assert (batch == batch[0]).all()

    def test_encode_batch_rejects_empty_batch(self):
        crn = minimum_spec().known_crn
        with pytest.raises(ValueError):
            crn.compiled().encode_batch(crn.initial_configuration((1, 1)), 0)

    @pytest.mark.parametrize("factory", SPEC_FACTORIES, ids=SPEC_IDS)
    def test_propensities_match_scalar(self, factory):
        crn = factory().known_crn
        compiled = crn.compiled()
        rng = random.Random(13)
        for _ in range(10):
            config = Configuration(
                {sp: rng.randrange(0, 6) for sp in compiled.species}
            )
            matrix = compiled.propensities(compiled.encode(config)[None, :])
            scalar = [rxn.propensity(config) for rxn in crn.reactions]
            assert matrix[0] == pytest.approx(scalar)

    def test_propensities_higher_order_binomials(self):
        a, b = species("A B")
        crn = CRN([3 * a >> b], (a,), b, name="cubic")
        compiled = crn.compiled()
        for n in range(7):
            value = compiled.propensities(np.array([[n, 0]]))[0, 0]
            assert value == pytest.approx(math.comb(n, 3))

    @pytest.mark.parametrize("factory", SPEC_FACTORIES, ids=SPEC_IDS)
    def test_applicability_matches_scalar(self, factory):
        crn = factory().known_crn
        compiled = crn.compiled()
        rng = random.Random(17)
        for _ in range(10):
            config = Configuration(
                {sp: rng.randrange(0, 3) for sp in compiled.species}
            )
            mask = compiled.applicable(compiled.encode(config)[None, :])[0]
            assert mask.tolist() == [rxn.applicable(config) for rxn in crn.reactions]

    def test_crn_compiled_is_cached(self):
        crn = minimum_spec().known_crn
        assert crn.compiled() is crn.compiled()


# ---------------------------------------------------------------------------
# Gather-compiled kinetics against the per-reaction loop oracle
# ---------------------------------------------------------------------------


def oracle_propensities(compiled, counts):
    """The per-reaction loop ``CompiledCRN.propensities`` used to run.

    Terms are visited in species-index order and each falling-factorial
    factor is applied in turn, so this fixes the float multiplication order
    the slot-table gather must reproduce bit for bit.
    """
    counts = np.atleast_2d(counts)
    out = np.broadcast_to(compiled.rates, (counts.shape[0], compiled.n_reactions)).copy()
    for r, terms in enumerate(compiled.reactant_terms):
        for s, coefficient in sorted(terms):
            n = counts[:, s].astype(np.float64)
            if coefficient == 1:
                out[:, r] *= n
            else:
                for j in range(coefficient):
                    out[:, r] *= (n - j) / (j + 1)
    return out


def oracle_applicable(compiled, counts):
    """The per-reaction loop ``CompiledCRN.applicable`` used to run."""
    counts = np.atleast_2d(counts)
    out = np.ones((counts.shape[0], compiled.n_reactions), dtype=bool)
    for r, terms in enumerate(compiled.reactant_terms):
        for s, coefficient in terms:
            out[:, r] &= counts[:, s] >= coefficient
    return out


def random_count_batch(rng, n_species, rows=64):
    """Counts that straddle every coefficient (0-4) plus large populations.

    Large counts make the falling-factorial products inexact in float64,
    so a change in multiplication order would show up as a bit difference.
    """
    small = rng.integers(0, 5, size=(rows, n_species))
    large = rng.integers(0, 10**7, size=(rows, n_species))
    return np.where(rng.random((rows, n_species)) < 0.5, small, large).astype(np.int64)


def assert_matches_loop_oracle(compiled, counts):
    assert np.array_equal(compiled.propensities(counts), oracle_propensities(compiled, counts))
    assert np.array_equal(compiled.applicable(counts), oracle_applicable(compiled, counts))


def _construction_cases():
    """(spec name, strategy) for every registered obliviously-computable spec.

    ``auto`` gives the hand-written CRN where there is one; ``general`` is
    the Lemma 6.2 construction, for specs with an eventually-min form.
    """
    from repro.lab.campaign import resolve_spec, spec_factory_names

    cases = []
    for name in spec_factory_names():
        spec = resolve_spec(name)
        if spec.expected_obliviously_computable:
            cases.append((name, "auto"))
            if spec.eventually_min is not None:
                cases.append((name, "general"))
    return cases


def _padding_crn():
    """1-, 2- and 3-species reactions, a 3X reactant and a zero-reactant source."""
    a, b, c, x, y = species("A B C X Y")
    reactions = [
        a >> y,
        Reaction(a + b + c, 2 * y, rate=0.3),
        Reaction(3 * x, b, rate=1.7),
        2 * a + b >> c,
        0 >> x,
        x + y >> y,
    ]
    return CRN(reactions, (a, b, c), y, name="padding")


class TestGatherKinetics:
    @pytest.mark.parametrize("name, strategy", _construction_cases())
    def test_registered_specs_match_loop_oracle_exactly(self, name, strategy):
        from repro.core.characterization import build_crn_for
        from repro.lab.campaign import resolve_spec

        compiled = build_crn_for(resolve_spec(name), strategy=strategy).compiled()
        counts = random_count_batch(np.random.default_rng(23), compiled.n_species)
        assert_matches_loop_oracle(compiled, counts)

    def test_padded_slots_match_loop_oracle_exactly(self):
        compiled = _padding_crn().compiled()
        rng = np.random.default_rng(5)
        assert_matches_loop_oracle(compiled, random_count_batch(rng, compiled.n_species, 256))

    def test_slot_table_layout(self):
        compiled = _padding_crn().compiled()
        assert compiled.slot_species.shape == compiled.slot_coef.shape == (6, 3)
        assert compiled.slot_species.dtype == np.intp
        assert compiled.slot_coef.dtype == np.int64
        for r, terms in enumerate(compiled.reactant_terms):
            width = len(terms)
            assert list(zip(compiled.slot_species[r, :width].tolist(),
                            compiled.slot_coef[r, :width].tolist())) == sorted(terms)
            assert (compiled.slot_species[r, width:] == 0).all()
            assert (compiled.slot_coef[r, width:] == 0).all()

    def test_zero_reaction_crn_has_empty_kinetics(self):
        X, Y = species("X Y")
        compiled = CRN([], (X,), Y).compiled()
        counts = np.array([[3, 0], [0, 1]])
        assert compiled.propensities(counts).shape == (2, 0)
        assert compiled.applicable(counts).shape == (2, 0)


# ---------------------------------------------------------------------------
# Stable-output equivalence against the scalar oracle
# ---------------------------------------------------------------------------


class TestGillespieEquivalence:
    @pytest.mark.parametrize("factory", SPEC_FACTORIES, ids=SPEC_IDS)
    def test_identical_stable_outputs(self, factory):
        spec = factory()
        crn = spec.known_crn
        engine = BatchGillespieEngine(crn.compiled(), seed=5)
        for x in small_inputs(spec.dimension):
            expected = spec.func(x)
            scalar = GillespieSimulator(crn, rng=random.Random(5)).run_on_input(x)
            assert scalar.silent
            assert scalar.output_count(crn) == expected
            result = engine.run_on_input(x, batch=8)
            assert result.silent.all()
            assert (result.output_counts() == expected).all()

    def test_step_counts_match_deterministic_crns(self):
        # For these CRNs every fair/Gillespie run fires the same number of
        # reactions regardless of schedule, so the batch engine must agree
        # exactly with the scalar oracle.
        cases = [
            (double_spec(), (7,), 7),
            (minimum_spec(), (4, 9), 4),
            (add_spec(), (3, 5), 8),
        ]
        for spec, x, expected_steps in cases:
            crn = spec.known_crn
            scalar = GillespieSimulator(crn, rng=random.Random(2)).run_on_input(x)
            result = BatchGillespieEngine(crn.compiled(), seed=2).run_on_input(x, batch=6)
            assert scalar.steps == expected_steps
            assert (result.steps == expected_steps).all()

    def test_step_counts_statistically_match_max(self):
        # The max CRN's step count is schedule-dependent; the batch engine
        # samples the same CTMC, so the means must agree within sampling noise.
        crn = maximum_spec().known_crn
        trials = 60
        rng = random.Random(21)
        scalar_steps = [
            GillespieSimulator(crn, rng=random.Random(rng.getrandbits(64)))
            .run_on_input((6, 6))
            .steps
            for _ in range(trials)
        ]
        batch = BatchGillespieEngine(crn.compiled(), seed=21).run_on_input(
            (6, 6), batch=trials
        )
        scalar_mean = sum(scalar_steps) / trials
        batch_mean = float(batch.steps.mean())
        assert batch_mean == pytest.approx(scalar_mean, rel=0.25)

    def test_max_steps_bound(self):
        crn = double_spec().known_crn
        result = BatchGillespieEngine(crn.compiled(), seed=1).run_on_input(
            (100,), batch=4, max_steps=10
        )
        assert (result.steps == 10).all()
        assert not result.silent.any()

    def test_max_time_clamps_clock(self):
        crn = double_spec().known_crn
        result = BatchGillespieEngine(crn.compiled(), seed=1).run_on_input(
            (1000,), batch=4, max_time=1e-6
        )
        assert (result.times <= 1e-6).all()
        assert not result.silent.any()

    def test_final_times_positive_on_silent_runs(self):
        crn = minimum_spec().known_crn
        result = BatchGillespieEngine(crn.compiled(), seed=9).run_on_input((5, 5), batch=3)
        assert result.silent.all()
        assert (result.times > 0).all()


class TestFairEquivalence:
    @pytest.mark.parametrize("factory", SPEC_FACTORIES, ids=SPEC_IDS)
    def test_identical_stable_outputs(self, factory):
        spec = factory()
        crn = spec.known_crn
        engine = BatchFairEngine(crn.compiled(), seed=7)
        for x in small_inputs(spec.dimension):
            expected = spec.func(x)
            scalar = FairScheduler(crn, rng=random.Random(7)).run_on_input(x)
            assert scalar.silent
            assert crn.output_count(scalar.final_configuration) == expected
            result = engine.run_on_input(x, batch=8)
            assert result.silent.all()
            assert (result.output_counts() == expected).all()

    def test_zero_reaction_crn_is_silent_everywhere(self):
        # The scalar simulators report silent=True for an empty network; the
        # batch engines must agree instead of tripping on a (B, 0) matrix.
        x, y = species("X Y")
        crn = CRN([], (x,), y)
        for engine_cls in (BatchGillespieEngine, BatchFairEngine):
            result = engine_cls(crn.compiled(), seed=1).run_on_input((3,), batch=4)
            assert result.silent.all()
            assert (result.steps == 0).all()
            assert (result.output_counts() == 0).all()

    def test_quiescence_window_terminates_catalytic_network(self):
        x1, x2, y = species("X1 X2 Y")
        crn = CRN([x1 + x2 >> x1 + x2], (x1, x2), y)
        result = BatchFairEngine(crn.compiled(), seed=8).run_on_input(
            (2, 2), batch=4, quiescence_window=50, max_steps=10_000
        )
        assert result.converged.all()
        assert not result.silent.any()
        assert result.all_silent_or_converged()

    def test_producing_bias_overshoots_max(self):
        crn = maximum_spec().known_crn
        engine = BatchFairEngine(
            crn.compiled(), seed=6, bias=output_producing_bias(crn)
        )
        result = engine.run_on_input((4, 4), batch=8, quiescence_window=500)
        # The adversarial schedule pushes the output above max(4,4)=4
        # transiently in at least some rows (the scalar test asserts the same).
        assert result.max_output_seen.max() > 4
        assert (result.output_counts() == 4).all()

    def test_max_output_seen_tracks_peak(self):
        crn = minimum_spec().known_crn
        result = BatchFairEngine(crn.compiled(), seed=4).run_on_input((3, 9), batch=4)
        assert (result.max_output_seen == 3).all()

    def test_configurations_decode_to_oracle_configuration(self):
        crn = minimum_spec().known_crn
        result = BatchFairEngine(crn.compiled(), seed=3).run_on_input((2, 5), batch=3)
        scalar = FairScheduler(crn, rng=random.Random(3)).run_on_input((2, 5))
        for config in result.configurations():
            assert config == scalar.final_configuration


# ---------------------------------------------------------------------------
# Seeding / reproducibility policy
# ---------------------------------------------------------------------------


class TestSeeding:
    def test_same_seed_same_batch(self):
        crn = maximum_spec().known_crn
        first = BatchGillespieEngine(crn.compiled(), seed=42).run_on_input((5, 7), batch=10)
        second = BatchGillespieEngine(crn.compiled(), seed=42).run_on_input((5, 7), batch=10)
        assert (first.counts == second.counts).all()
        assert (first.steps == second.steps).all()
        assert first.times == pytest.approx(second.times)

    def test_different_seeds_differ(self):
        crn = maximum_spec().known_crn
        first = BatchGillespieEngine(crn.compiled(), seed=1).run_on_input((8, 8), batch=10)
        second = BatchGillespieEngine(crn.compiled(), seed=2).run_on_input((8, 8), batch=10)
        assert (first.steps != second.steps).any() or first.times != pytest.approx(second.times)

    def test_explicit_generator_accepted(self):
        crn = minimum_spec().known_crn
        engine = BatchFairEngine(crn.compiled(), rng=np.random.default_rng(3))
        assert (engine.run_on_input((2, 2), batch=2).output_counts() == 2).all()

    def test_seed_and_rng_are_exclusive(self):
        crn = minimum_spec().known_crn
        with pytest.raises(ValueError):
            BatchGillespieEngine(crn.compiled(), seed=1, rng=np.random.default_rng(1))

    def test_python_engine_seeded_behaviour_unchanged(self):
        # The default engine must reproduce the historical seeded stream so
        # existing experiments stay bit-for-bit reproducible.
        crn = maximum_spec().known_crn
        first = run_many(crn, (4, 6), trials=5, seed=10)
        second = run_many(crn, (4, 6), trials=5, seed=10, engine="python")
        assert first.outputs == second.outputs
        assert first.steps == second.steps


# ---------------------------------------------------------------------------
# Runner / verifier rewiring
# ---------------------------------------------------------------------------


class TestEngineSelector:
    def test_run_many_vectorized_report(self):
        crn = minimum_spec().known_crn
        report = run_many(crn, (2, 5), trials=6, seed=10, engine="vectorized")
        assert report.input_value == (2, 5)
        assert report.output_unanimous
        assert report.output_mode == 2
        assert report.all_silent_or_converged
        assert report.max_overshoot == 0
        assert len(report.outputs) == len(report.steps) == 6

    def test_run_many_vectorized_is_reproducible(self):
        crn = maximum_spec().known_crn
        first = run_many(crn, (3, 8), trials=6, seed=10, engine="vectorized")
        second = run_many(crn, (3, 8), trials=6, seed=10, engine="vectorized")
        assert first.outputs == second.outputs
        assert first.steps == second.steps

    def test_run_many_rejects_unknown_engine(self):
        crn = minimum_spec().known_crn
        with pytest.raises(ValueError):
            run_many(crn, (1, 1), engine="cuda")

    def test_estimate_expected_output_vectorized(self):
        crn = double_spec().known_crn
        estimate = estimate_expected_output(
            crn, (6,), trials=5, seed=11, engine="vectorized"
        )
        assert estimate == pytest.approx(12.0)

    @pytest.mark.parametrize("factory", SPEC_FACTORIES, ids=SPEC_IDS)
    def test_verify_stable_computation_vectorized(self, factory):
        spec = factory()
        report = verify_stable_computation(
            spec.known_crn,
            spec.func,
            inputs=small_inputs(spec.dimension),
            method="simulation",
            trials=4,
            engine="vectorized",
            function_name=spec.name,
        )
        assert report.passed, report.describe()

    def test_verify_rejects_unknown_engine_even_on_exhaustive_path(self):
        spec = minimum_spec()
        with pytest.raises(ValueError):
            verify_stable_computation(
                spec.known_crn, spec.func, inputs=[(1, 1)], method="exhaustive", engine="cuda"
            )

    def test_verify_vectorized_catches_wrong_function(self):
        spec = minimum_spec()
        report = verify_stable_computation(
            spec.known_crn,
            lambda x: max(x),  # wrong on asymmetric inputs
            inputs=[(2, 5)],
            method="simulation",
            trials=4,
            engine="vectorized",
        )
        assert not report.passed


# ---------------------------------------------------------------------------
# BatchTauLeapEngine: vectorized tau-leaping (engine="tau-vec")
# ---------------------------------------------------------------------------


class TestBatchTauLeapEngine:
    """The batched tau-leap engine against the scalar oracle and its own rails.

    Distributional admission lives in ``tests/test_statistical_equivalence.py``
    (KS gates, ``-m statistical``); this class covers the deterministic
    contract — stable outputs, safety rails, bounds, stats, and knobs.
    """

    @pytest.mark.parametrize("factory", SPEC_FACTORIES, ids=SPEC_IDS)
    def test_identical_stable_outputs_small_inputs(self, factory):
        # Small populations sit entirely under the n_critical rule, so this
        # exercises the exact-fallback path: the engine must degrade to the
        # exact batch engine and still reach every stable output.
        spec = factory()
        crn = spec.known_crn
        engine = BatchTauLeapEngine(crn.compiled(), seed=5)
        for x in small_inputs(spec.dimension):
            expected = spec.func(x)
            result = engine.run_on_input(x, batch=8)
            assert result.silent.all()
            assert (result.output_counts() == expected).all()

    def test_large_population_collapses_leap_rounds(self):
        # The point of leaping: 5000 firings per trial in a few hundred leap
        # rounds shared by the whole batch, not 5000 scheduler iterations.
        crn = minimum_spec().known_crn
        result = BatchTauLeapEngine(crn.compiled(), seed=7).run_on_input(
            (5_000, 5_000), batch=16
        )
        assert result.silent.all()
        assert (result.output_counts() == 5_000).all()
        assert (result.steps == 5_000).all()
        assert result.stats is not None
        assert result.stats.selections < 1_000  # leap rounds, not events

    def test_counts_never_negative_and_clock_advances(self):
        crn = minimum_spec().known_crn
        result = BatchTauLeapEngine(crn.compiled(), seed=3).run_on_input(
            (2_000, 1_500), batch=8
        )
        assert (result.counts >= 0).all()
        assert (result.times > 0).all()

    def test_max_steps_bound_overshoots_by_at_most_one_leap(self):
        crn = double_spec().known_crn
        result = BatchTauLeapEngine(crn.compiled(), seed=1).run_on_input(
            (100_000,), batch=4, max_steps=10_000
        )
        assert (result.steps >= 10_000).all()
        assert not result.silent.any()

    def test_max_time_clamps_clock(self):
        crn = double_spec().known_crn
        result = BatchTauLeapEngine(crn.compiled(), seed=1).run_on_input(
            (100_000,), batch=4, max_time=1e-7
        )
        assert (result.times <= 1e-7).all()
        assert not result.silent.any()

    def test_quiescence_window_terminates_catalytic_network(self):
        # X1 + X2 -> X1 + X2 never falls silent and never moves the output;
        # the leap-granularity quiescence window must stop it, mirroring the
        # scalar SimulatorCore semantics.  Purely catalytic kinetics also
        # exercise the infinite-tau cap (tau bounded to 1000 expected
        # firings), so the window is crossed in a handful of leap rounds.
        x1, x2, y = species("X1 X2 Y")
        crn = CRN([x1 + x2 >> x1 + x2], (x1, x2), y)
        result = BatchTauLeapEngine(crn.compiled(), seed=4).run_on_input(
            (50, 50), batch=6, quiescence_window=500, max_steps=100_000
        )
        assert result.converged.all()
        assert not result.silent.any()

    def test_zero_reaction_crn_is_silent_everywhere(self):
        X, Y = species("X Y")
        crn = CRN([], (X,), Y)
        result = BatchTauLeapEngine(crn.compiled(), seed=2).run_on_input((9,), batch=5)
        assert result.silent.all()
        assert (result.steps == 0).all()

    def test_run_stats_are_uniform_and_consistent(self):
        crn = minimum_spec().known_crn
        result = BatchTauLeapEngine(crn.compiled(), seed=11).run_on_input(
            (50_000, 50_000), batch=8
        )
        stats = result.stats
        assert stats.events == int(result.steps.sum())
        assert 0 < stats.selections < stats.events
        assert stats.propensity_ops > 0
        assert stats.rng_draws > 0
        assert stats.wall_s > 0.0

    def test_same_seed_same_batch(self):
        crn = maximum_spec().known_crn
        first = BatchTauLeapEngine(crn.compiled(), seed=42).run_on_input(
            (5_000, 7_000), batch=6
        )
        second = BatchTauLeapEngine(crn.compiled(), seed=42).run_on_input(
            (5_000, 7_000), batch=6
        )
        assert (first.counts == second.counts).all()
        assert (first.steps == second.steps).all()
        assert first.times == pytest.approx(second.times)

    @pytest.mark.parametrize("epsilon", [0.0, 1.0, -0.1, "x", True])
    def test_epsilon_validated(self, epsilon):
        crn = minimum_spec().known_crn
        with pytest.raises(ValueError):
            BatchTauLeapEngine(crn.compiled(), seed=1, epsilon=epsilon)

    def test_safety_knobs_validated(self):
        crn = minimum_spec().known_crn
        with pytest.raises(ValueError):
            BatchTauLeapEngine(crn.compiled(), seed=1, n_critical=0.0)
        with pytest.raises(ValueError):
            BatchTauLeapEngine(crn.compiled(), seed=1, exact_burst=0)
        with pytest.raises(ValueError):
            BatchTauLeapEngine(crn.compiled(), seed=1, max_rejections=0)

    def test_run_many_tau_vec_report(self):
        crn = minimum_spec().known_crn
        report = run_many(crn, (3_000, 4_000), trials=6, seed=10, engine="tau-vec")
        assert report.output_unanimous
        assert report.output_mode == 3_000
        assert report.all_silent_or_converged
        assert len(report.outputs) == len(report.steps) == 6

    def test_run_many_tau_vec_is_reproducible(self):
        crn = maximum_spec().known_crn
        first = run_many(crn, (3_000, 8_000), trials=6, seed=10, engine="tau-vec")
        second = run_many(crn, (3_000, 8_000), trials=6, seed=10, engine="tau-vec")
        assert first.outputs == second.outputs
        assert first.steps == second.steps

    def test_estimate_expected_output_tau_vec(self):
        crn = double_spec().known_crn
        estimate = estimate_expected_output(
            crn, (6_000,), trials=4, seed=11, engine="tau-vec"
        )
        assert estimate == pytest.approx(12_000.0)

    def test_tau_vec_rejects_fair_requests(self):
        from repro.sim.registry import validate_engine_request

        with pytest.raises(ValueError, match="supports_fair=False"):
            validate_engine_request("tau-vec", fair=True)
        # epsilon= is exactly what the approximate engine is for.
        info = validate_engine_request("tau-vec", epsilon=0.05)
        assert info.approximate and info.batch_capable


class TestSingleFiringRunStats:
    """The fair and Gillespie engines fill the same RunStats block as tau-leap.

    A run to silence evaluates every row once per firing plus once more to
    see it fall silent, and its loop runs one iteration past the longest row.
    """

    def test_gillespie_stats_on_run_to_silence(self):
        crn = maximum_spec().known_crn
        result = BatchGillespieEngine(crn.compiled(), seed=3).run_on_input(
            (6, 9), batch=5
        )
        stats = result.stats
        assert result.silent.all()
        assert stats.events == result.total_steps()
        assert stats.selections == int(result.steps.max()) + 1
        assert stats.propensity_ops == crn.compiled().n_reactions * (stats.events + 5)
        assert stats.rng_draws == 2 * stats.events  # one wait and one pick per firing
        assert stats.wall_s > 0.0

    def test_gillespie_stats_count_the_wait_of_a_timed_out_row(self):
        crn = double_spec().known_crn
        result = BatchGillespieEngine(crn.compiled(), seed=1).run_on_input(
            (1000,), batch=4, max_time=1e-6
        )
        stats = result.stats
        assert (result.times == 1e-6).all()
        assert stats.rng_draws == 2 * stats.events + 4

    def test_fair_stats_on_run_to_silence(self):
        crn = maximum_spec().known_crn
        result = BatchFairEngine(crn.compiled(), seed=3).run_on_input((6, 9), batch=5)
        stats = result.stats
        assert result.silent.all()
        assert stats.events == result.total_steps()
        assert stats.selections == int(result.steps.max()) + 1
        assert stats.propensity_ops == crn.compiled().n_reactions * (stats.events + 5)
        assert stats.rng_draws == stats.events  # one pick per firing
        assert stats.wall_s > 0.0

    def test_fair_stats_at_the_step_bound(self):
        x1, x2, y = species("X1 X2 Y")
        crn = CRN([x1 + x2 >> x1 + x2], (x1, x2), y)
        result = BatchFairEngine(crn.compiled(), seed=4).run_on_input(
            (3, 3), batch=6, max_steps=50
        )
        assert result.stats.selections == 50
        assert result.stats.events == result.stats.rng_draws == 300

    @pytest.mark.parametrize("cls", [BatchFairEngine, BatchGillespieEngine])
    def test_zero_reaction_crn_has_zero_stats(self, cls):
        X, Y = species("X Y")
        result = cls(CRN([], (X,), Y).compiled(), seed=2).run_on_input((9,), batch=3)
        stats = result.stats
        assert stats.events == stats.selections == 0
        assert stats.propensity_ops == stats.rng_draws == 0


# ---------------------------------------------------------------------------
# Seeded batch-engine streams on the paper's constructions, pinned bit for bit
# ---------------------------------------------------------------------------

BATCH_GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "data", "batch_engine_golden.json"
)
BATCH_GOLDEN_SEED = 5
BATCH_GOLDEN_ENGINES = {
    "fair": BatchFairEngine,
    "gillespie": BatchGillespieEngine,
    "tau": BatchTauLeapEngine,
}


def _batch_golden_cases():
    """label -> (engine, construction, input, run kwargs).

    The step and time bounds stop most rows part way to silence, so the
    final state depends on every draw of the stream.  The two ``tau``
    populations cover both halves of that engine: the small one runs almost
    entirely in exact bursts, the large ones leap.
    """
    return {
        "fair/weighted_floor": (
            "fair", "weighted_floor", (40, 30),
            dict(batch=8, max_steps=150, quiescence_window=60),
        ),
        "gillespie/weighted_floor": (
            "gillespie", "weighted_floor", (40, 30),
            dict(batch=8, max_steps=150, max_time=4.0),
        ),
        "tau/weighted_floor/burst": (
            "tau", "weighted_floor", (400, 300),
            dict(batch=8, max_steps=1500, max_time=6.0),
        ),
        "tau/weighted_floor/leap": (
            "tau", "weighted_floor", (4000, 3000), dict(batch=4, max_steps=2500),
        ),
        "fair/fig4a_style": (
            "fair", "fig4a_style", (12, 9), dict(batch=6, max_steps=400),
        ),
        "gillespie/fig4a_style": (
            "gillespie", "fig4a_style", (12, 9),
            dict(batch=6, max_steps=400, max_time=2.5),
        ),
        "tau/fig4a_style": (
            "tau", "fig4a_style", (2000, 1500), dict(batch=2, max_steps=1200),
        ),
    }


def _golden_construction(name):
    from repro.core.characterization import build_crn_for
    from repro.lab.campaign import resolve_spec

    return build_crn_for(resolve_spec(name), strategy="general")


def batch_golden_observation(label):
    """The final per-row state of one seeded batch run, in JSON form."""
    engine, construction, x, kwargs = _batch_golden_cases()[label]
    crn = _golden_construction(construction)
    cls = BATCH_GOLDEN_ENGINES[engine]
    result = cls(crn.compiled(), seed=BATCH_GOLDEN_SEED).run_on_input(x, **kwargs)
    return {
        "counts": result.counts.tolist(),
        "steps": result.steps.tolist(),
        "times": None if result.times is None else result.times.tolist(),
        "max_output_seen": result.max_output_seen.tolist(),
        "silent": result.silent.tolist(),
        "converged": result.converged.tolist(),
    }


def build_batch_golden():
    """The full table, as written to ``BATCH_GOLDEN_PATH``.

    Rewrite the fixture only for an intended change of a seeded stream::

        PYTHONPATH=src:. python -c "import json, tests.test_engine as t; \\
            json.dump(t.build_batch_golden(), open(t.BATCH_GOLDEN_PATH, 'w'), \\
                      indent=1, sort_keys=True)"
    """
    return {label: batch_golden_observation(label) for label in _batch_golden_cases()}


class TestBatchEngineGolden:
    """Seeded batch runs on the R=38 and R=132 constructions, pinned exactly.

    Float times are compared after a JSON round trip, which is exact for
    float64, so any change in draw order or kinetics arithmetic shows up.
    """

    @pytest.fixture(scope="class")
    def golden(self):
        with open(BATCH_GOLDEN_PATH) as handle:
            return json.load(handle)

    @pytest.mark.parametrize("label", list(_batch_golden_cases()))
    def test_batch_run_matches_golden(self, golden, label):
        observed = json.loads(json.dumps(batch_golden_observation(label)))
        assert observed == golden[label]

    def test_golden_covers_every_case(self, golden):
        assert set(golden) == set(_batch_golden_cases())
