"""Engine registry: registration, capability metadata, and dynamic dispatch."""

import json
import os

import pytest

from repro.api.config import RunConfig
from repro.functions.catalog import minimum_spec
from repro.sim import registry
from repro.sim.registry import (
    EngineInfo,
    check_engine,
    engine_names,
    get_engine,
    register_engine,
    registered_engines,
    unregister_engine,
    validate_engine_request,
)
from repro.sim.runner import ConvergenceReport, estimate_expected_output, run_many


@pytest.fixture
def dummy_engine():
    """Register a stub engine for the duration of one test."""

    class DummyEngine:
        def __init__(self):
            self.calls = []

        def run_many(self, crn, x, config):
            self.calls.append(("run_many", tuple(x), config))
            return ConvergenceReport(
                input_value=tuple(x),
                outputs=[42] * config.trials,
                max_outputs=[42] * config.trials,
                steps=[1] * config.trials,
                all_silent_or_converged=True,
            )

        def estimate_expected_output(self, crn, x, config):
            self.calls.append(("estimate", tuple(x), config))
            return 42.0

    instance = DummyEngine()
    register_engine(
        "dummy",
        supports_gillespie=False,
        supports_fair=True,
        max_recommended_population=10,
        description="test stub",
    )(instance)
    yield instance
    unregister_engine("dummy")


class TestRegistryBasics:
    def test_builtin_engines_are_registered(self):
        names = engine_names()
        assert "python" in names
        assert "vectorized" in names

    def test_engines_tuple_is_live_view(self, dummy_engine):
        import repro.sim

        assert "dummy" in repro.sim.ENGINES
        unregister_engine("dummy")
        assert "dummy" not in repro.sim.ENGINES
        # Re-register so the fixture teardown stays a no-op.
        register_engine("dummy")(dummy_engine)

    def test_capability_metadata(self):
        python = get_engine("python")
        assert isinstance(python, EngineInfo)
        assert python.supports_gillespie and python.supports_fair
        # raised from 2_000 when the scalar kernel replaced the dict loops
        assert python.max_recommended_population == 20_000
        vectorized = get_engine("vectorized")
        assert vectorized.max_recommended_population is None
        assert {info.name for info in registered_engines()} >= {"python", "vectorized"}

    def test_nrm_capability_metadata(self):
        nrm = get_engine("nrm")
        assert nrm.supports_gillespie
        assert not nrm.supports_fair  # kinetic scheduling only
        assert not nrm.approximate  # exact sampler, unlike tau
        assert "nrm" in engine_names()

    def test_tau_vec_capability_metadata(self):
        tau_vec = get_engine("tau-vec")
        assert tau_vec.supports_gillespie
        assert not tau_vec.supports_fair  # kinetic scheduling only
        assert tau_vec.approximate  # statistically (not bit-for-bit) equivalent
        assert tau_vec.batch_capable  # advances the whole trial batch per round
        assert tau_vec.min_recommended_population == 10_000

    def test_batch_capable_metadata_partitions_the_builtins(self):
        # batch_capable is published metadata, not a name convention: the
        # dense-batch engines carry it, the scalar ones do not.
        flags = {info.name: info.batch_capable for info in registered_engines()}
        assert flags["vectorized"] and flags["tau-vec"]
        assert not flags["python"] and not flags["nrm"] and not flags["tau"]

    def test_batch_capable_in_to_dict(self):
        # to_dict is the single serialization behind both `engines --json`
        # and GET /v1/engines, so the new field must ride through it.
        payload = get_engine("tau-vec").to_dict()
        assert payload["batch_capable"] is True
        assert payload["approximate"] is True
        default = EngineInfo(name="x", implementation=None)
        assert default.to_dict()["batch_capable"] is False

    def test_unknown_engine_error_lists_registered_names(self):
        with pytest.raises(ValueError) as excinfo:
            check_engine("cuda")
        message = str(excinfo.value)
        assert "'cuda'" in message
        assert "'python'" in message and "'vectorized'" in message

    def test_error_listing_includes_runtime_registrations(self, dummy_engine):
        with pytest.raises(ValueError) as excinfo:
            get_engine("no-such-engine")
        assert "'dummy'" in str(excinfo.value)

    def test_duplicate_registration_rejected_unless_replace(self, dummy_engine):
        with pytest.raises(ValueError, match="already registered"):
            register_engine("dummy")(dummy_engine)
        register_engine("dummy", replace=True, description="swapped")(dummy_engine)
        assert get_engine("dummy").description == "swapped"

    def test_registration_requires_the_engine_methods(self):
        class Incomplete:
            def run_many(self, crn, x, config):
                return None

        with pytest.raises(TypeError, match="estimate_expected_output"):
            register_engine("incomplete")(Incomplete)
        assert "incomplete" not in engine_names()


class TestRegistryDispatch:
    def test_dummy_engine_dispatches_through_run_many(self, dummy_engine):
        crn = minimum_spec().known_crn
        report = run_many(crn, (3, 5), trials=4, engine="dummy")
        assert report.outputs == [42, 42, 42, 42]
        assert dummy_engine.calls[0][0] == "run_many"
        assert dummy_engine.calls[0][2].trials == 4

    def test_dummy_engine_dispatches_through_estimate(self, dummy_engine):
        crn = minimum_spec().known_crn
        assert estimate_expected_output(crn, (3, 5), engine="dummy") == 42.0

    def test_dummy_engine_dispatches_through_runconfig(self, dummy_engine):
        crn = minimum_spec().known_crn
        config = RunConfig(trials=2, engine="dummy")
        report = run_many(crn, (1, 1), config=config)
        assert report.outputs == [42, 42]
        assert dummy_engine.calls[-1][2] is config

    def test_dummy_engine_dispatches_through_verification(self, dummy_engine):
        from repro.verify import verify_stable_computation

        crn = minimum_spec().known_crn
        report = verify_stable_computation(
            crn,
            lambda x: 42,
            inputs=[(5, 9)],
            method="simulation",
            engine="dummy",
            function_name="const42",
        )
        assert report.passed
        assert report.results[0].observed_outputs[0] == 42

    def test_kinetic_sampling_needs_a_kinetic_factory(self, dummy_engine):
        from repro.verify.statistical import sample_kinetic_distribution

        crn = minimum_spec().known_crn
        with pytest.raises(ValueError, match="exposes no kinetic sampler"):
            sample_kinetic_distribution(crn, (2, 2), engine="dummy", n_seeds=2)
        with pytest.raises(ValueError, match="registered engines"):
            sample_kinetic_distribution(crn, (2, 2), engine="gone", n_seeds=2)

    def test_unregistered_engine_fails_at_dispatch(self):
        crn = minimum_spec().known_crn
        with pytest.raises(ValueError, match="registered engines"):
            run_many(crn, (1, 1), engine="gone")

    def test_verification_rejects_kinetic_only_engines(self):
        # supports_fair=False metadata is consulted by the verification
        # harness: the randomized path's evidence assumes fair scheduling,
        # which the approximate tau engine does not implement.
        from repro.verify import verify_stable_computation

        crn = minimum_spec().known_crn
        with pytest.raises(ValueError, match="supports_fair"):
            verify_stable_computation(
                crn, lambda x: min(x), inputs=[(2, 2)], method="simulation",
                engine="tau",
            )

    def test_verification_rejects_nrm(self):
        # Regression for the new exact kinetic-only engine: exactness is not
        # the question — NRM samples Gillespie kinetics, not the fair
        # scheduler the verification evidence assumes — so it must be routed
        # away from the randomized path with the same clear error as tau.
        from repro.verify import verify_stable_computation

        crn = minimum_spec().known_crn
        with pytest.raises(ValueError, match="supports_fair"):
            verify_stable_computation(
                crn, lambda x: min(x), inputs=[(2, 2)], method="simulation",
                engine="nrm",
            )


class TestValidateEngineRequest:
    """Explicit per-call requests are checked against capability metadata."""

    def test_epsilon_on_exact_engines_rejected(self):
        for engine in ("python", "vectorized", "nrm"):
            with pytest.raises(ValueError) as excinfo:
                validate_engine_request(engine, epsilon=0.05)
            message = str(excinfo.value)
            assert "exact" in message and "epsilon" in message
            assert "'tau'" in message  # the actionable part: what to use instead

    def test_fair_on_kinetic_only_engines_rejected(self):
        for engine in ("nrm", "tau"):
            with pytest.raises(ValueError) as excinfo:
                validate_engine_request(engine, fair=True)
            message = str(excinfo.value)
            assert "supports_fair" in message
            assert "'python'" in message and "'vectorized'" in message

    def test_valid_requests_return_the_engine_info(self):
        assert validate_engine_request("tau", epsilon=0.1).name == "tau"
        assert validate_engine_request("python", fair=True).name == "python"
        assert validate_engine_request("nrm").name == "nrm"

    def test_unknown_engine_still_reported_first(self):
        with pytest.raises(ValueError, match="registered engines"):
            validate_engine_request("cuda", epsilon=0.1)


class TestBackCompat:
    def test_runner_module_still_exposes_engines_and_check_engine(self):
        from repro.sim import runner

        assert set(runner.ENGINES) >= {"python", "vectorized"}
        runner.check_engine("python")
        with pytest.raises(ValueError):
            runner.check_engine("nope")

    def test_unregistered_builtins_are_restored_on_lookup(self):
        unregister_engine("python")
        try:
            assert get_engine("python").name == "python"
        finally:
            from repro.sim.runner import register_builtin_engines

            register_builtin_engines()

    def test_builtin_registration_is_idempotent(self):
        from repro.sim.runner import register_builtin_engines

        register_builtin_engines()
        register_builtin_engines()
        assert set(engine_names()) >= {"python", "vectorized"}

    def test_builtin_restore_does_not_clobber_an_override(self, dummy_engine):
        # Restoring one missing built-in must not re-register the other,
        # which a caller may have deliberately replaced.
        from repro.sim.runner import register_builtin_engines

        original_vectorized = get_engine("vectorized").implementation
        register_engine("vectorized", replace=True, description="override")(dummy_engine)
        unregister_engine("python")
        try:
            assert get_engine("python").name == "python"  # restored
            assert get_engine("vectorized").implementation is dummy_engine  # untouched
        finally:
            register_builtin_engines()
        assert get_engine("vectorized").implementation is not dummy_engine
        assert type(get_engine("vectorized").implementation) is type(original_vectorized)


# ---------------------------------------------------------------------------
# Golden values for every built-in engine on both entry points
# ---------------------------------------------------------------------------

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "engine_adapter_golden.json")
GOLDEN_ENGINES = ("python", "vectorized", "nrm", "tau", "tau-vec")
GOLDEN_SEEDS = (1, 17)


def _golden_cases():
    """label -> (crn, input, max_steps) for the Fig. 1 CRNs and the R=38 construction.

    ``minimum`` runs to silence.  The other two stop at ``max_steps``, part
    way to silence, so their outputs depend on every draw of the stream.
    """
    from repro.core.characterization import build_crn_for
    from repro.functions.catalog import maximum_spec
    from repro.functions.extended import weighted_floor_spec

    return {
        "minimum": (minimum_spec().known_crn, (5, 8), 20_000),
        "maximum": (maximum_spec().known_crn, (300, 200), 400),
        "weighted_floor": (
            build_crn_for(weighted_floor_spec(), strategy="general"),
            (40, 30),
            120,
        ),
    }


def golden_observation(engine, case, seed):
    """Everything the adapters emit for one (engine, construction, seed) cell.

    The ``run_many`` report fields, the exact ``repr`` of the estimate, and
    the ``sample_kinetic_distribution`` sample, in JSON-comparable form.
    """
    from repro.verify.statistical import sample_kinetic_distribution

    crn, x, max_steps = _golden_cases()[case]
    config = RunConfig(trials=3, max_steps=max_steps, seed=seed, engine=engine)
    report = run_many(crn, x, config=config)
    estimate = estimate_expected_output(crn, x, config=config)
    sample = sample_kinetic_distribution(
        crn, x, engine=engine, n_seeds=3, base_seed=seed, max_steps=max_steps
    )
    return {
        "report": {
            "input_value": list(report.input_value),
            "outputs": report.outputs,
            "max_outputs": report.max_outputs,
            "steps": report.steps,
            "all_silent_or_converged": report.all_silent_or_converged,
        },
        "estimate": repr(estimate),
        "sample": {
            "engine": sample.engine,
            "steps": sample.steps,
            "outputs": sample.outputs,
            "all_completed": sample.all_completed,
        },
    }


def golden_key(engine, case, seed):
    return f"{engine}/{case}/{seed}"


def build_golden():
    """The full golden table, as written to ``GOLDEN_PATH``.

    Rewrite the fixture only for an intended change of a seeded stream::

        PYTHONPATH=src:. python -c "import json, tests.test_registry as t; \\
            json.dump(t.build_golden(), open(t.GOLDEN_PATH, 'w'), indent=1, sort_keys=True)"
    """
    return {
        golden_key(engine, case, seed): golden_observation(engine, case, seed)
        for engine in GOLDEN_ENGINES
        for case in ("minimum", "maximum", "weighted_floor")
        for seed in GOLDEN_SEEDS
    }


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


class TestBuiltinEngineGolden:
    """Seeded outputs of every built-in engine, pinned byte for byte.

    Captured before the engine adapters were collapsed into
    ``ScalarPolicyEngine`` / ``BatchEngine``: the adapter shape may change,
    what each engine computes may not.
    """

    @pytest.mark.parametrize("seed", GOLDEN_SEEDS)
    @pytest.mark.parametrize("case", ["minimum", "maximum", "weighted_floor"])
    @pytest.mark.parametrize("engine", GOLDEN_ENGINES)
    def test_engine_matches_golden(self, golden, engine, case, seed):
        observed = json.loads(json.dumps(golden_observation(engine, case, seed)))
        assert observed == golden[golden_key(engine, case, seed)]

    def test_golden_covers_every_builtin(self):
        from repro.sim.runner import BUILTIN_ENGINES

        assert set(GOLDEN_ENGINES) == set(BUILTIN_ENGINES)


class TestPerEngineTracingContract:
    """Wrapping one named adapter class's ``run_many`` traces that engine only.

    ``perfbench/tracing.py`` records per-engine spans by replacing
    ``run_many`` on each named adapter class.  That breaks if two built-ins
    share one ``run_many`` slot, or if a bare base-class instance is
    registered instead of the named subclass.
    """

    @pytest.mark.parametrize(
        "engine, class_name",
        [
            ("python", "PythonEngine"),
            ("vectorized", "VectorizedEngine"),
            ("nrm", "NextReactionEngine"),
            ("tau", "TauLeapEngine"),
            ("tau-vec", "TauVecEngine"),
        ],
    )
    def test_class_wrapper_sees_only_its_engine(self, monkeypatch, engine, class_name):
        from repro.sim import runner

        cls = getattr(runner, class_name)
        original = cls.run_many
        calls = []

        def wrapper(self, crn, x, config):
            calls.append(config.engine)
            return original(self, crn, x, config)

        monkeypatch.setattr(cls, "run_many", wrapper)
        crn = minimum_spec().known_crn
        for name in GOLDEN_ENGINES:
            run_many(crn, (2, 3), config=RunConfig(trials=2, seed=5, engine=name))
        assert calls == [engine]
