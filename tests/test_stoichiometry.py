"""Tests for stoichiometric analysis: matrices, conservation laws, structural audits."""

from fractions import Fraction

import pytest

from repro.core.construction_1d import build_1d_crn
from repro.core.construction_general import build_general_crn
from repro.core.construction_quilt import build_quilt_affine_crn
from repro.crn.network import CRN
from repro.crn.species import Species, species
from repro.crn.stoichiometry import (
    conservation_laws,
    conserved_quantity,
    dead_reactions,
    is_feed_forward,
    leader_state_conservation,
    producible_species,
    species_dependency_graph,
    stoichiometric_matrix,
    unproducible_species,
)
from repro.core.characterization import build_crn_for
from repro.functions.catalog import maximum_spec, minimum_spec
from repro.lab.campaign import resolve_spec, spec_factory_names
from repro.quilt.quilt_affine import QuiltAffine


X, X1, X2, Y, Z, W = species("X X1 X2 Y Z W")

#: Every registered spec with an eventually-min witness, i.e. every spec the
#: general (Lemma 6.2) construction can build.
EVENTUALLY_MIN_SPECS = [
    name for name in spec_factory_names() if resolve_spec(name).eventually_min is not None
]


class TestStoichiometricMatrix:
    def test_min_matrix(self):
        matrix = stoichiometric_matrix(minimum_spec().known_crn)
        assert matrix.shape == (3, 1)
        assert matrix.row(Species("X1")) == (-1,)
        assert matrix.row(Species("Y")) == (1,)
        assert matrix.column(0) == (-1, -1, 1)

    def test_catalyst_has_zero_net_change(self):
        crn = CRN([X1 + Y >> X1 + 2 * Y], (X1,), Y)
        matrix = stoichiometric_matrix(crn)
        assert matrix.row(Species("X1")) == (0,)
        assert matrix.row(Species("Y")) == (1,)


class TestConservationLaws:
    def test_min_conserves_x1_minus_x2(self):
        crn = minimum_spec().known_crn
        laws = conservation_laws(crn)
        assert len(laws) == 2   # 3 species, rank-1 stoichiometry
        counts_a = {Species("X1"): 4, Species("X2"): 1, Species("Y"): 0}
        counts_b = {Species("X1"): 3, Species("X2"): 0, Species("Y"): 1}
        for law in laws:
            assert conserved_quantity(law, counts_a) == conserved_quantity(law, counts_b)

    def test_theorem31_conserves_single_leader_token(self):
        crn = build_1d_crn(lambda x: min(x, 2))
        leader_states = [sp for sp in crn.species() if sp.name[0] in ("L", "P") and sp.name != "L"]
        # The leader plus its auxiliary states form a conserved token once initialized.
        assert leader_state_conservation(crn, [crn.leader] + leader_states)

    def test_quilt_construction_conserves_leader_token(self):
        crn = build_quilt_affine_crn(QuiltAffine.floor_linear((3,), 2))
        states = [sp for sp in crn.species() if sp.name.startswith("L")]
        assert leader_state_conservation(crn, states)

    def test_crn_without_reactions(self):
        crn = CRN([X1 + X2 >> Y], (X1, X2), Y)
        laws = conservation_laws(crn)
        assert all(isinstance(value, Fraction) for law in laws for value in law.values())


class TestStructuralAudits:
    def test_producible_species_of_max(self):
        crn = maximum_spec().known_crn
        names = {sp.name for sp in producible_species(crn)}
        assert names == {"X1", "X2", "Y", "Z1", "Z2", "K"}
        assert not unproducible_species(crn)

    def test_dead_reaction_detection(self):
        # W is never produced, so the second reaction can never fire.
        crn = CRN([X >> Y, W + X >> 2 * Y], (X,), Y)
        dead = dead_reactions(crn)
        assert len(dead) == 1
        assert dead[0].consumes(W)
        assert W in unproducible_species(crn)

    def test_general_construction_wiring(self):
        # A wiring bug in the Lemma 6.2 plumbing would show up as a dead reaction
        # whose reactants are module inputs.  For the threshold-0 Fig. 7 function
        # there are no restriction terms and the construction must have none at all.
        from repro.functions.paper_examples import fig7_spec

        crn = build_general_crn(fig7_spec())
        assert dead_reactions(crn) == []

    @pytest.mark.parametrize("spec_name", EVENTUALLY_MIN_SPECS)
    def test_zero_restrictions_yield_only_harmless_dead_reactions(self, spec_name):
        # A constant-zero restriction's output species is (correctly) never
        # produced, so the pass-through reaction consuming it is dead (today in
        # fig4a_style and interior_min_plus_one).  Any other dead reaction in a
        # general construction is a wiring bug.
        spec = resolve_spec(spec_name)
        crn = build_crn_for(spec, name=spec.name, strategy="general")
        dead = dead_reactions(crn)
        assert all(rxn.name.endswith("pass_a") for rxn in dead)

    def test_dependency_graph_and_feed_forward(self):
        crn = minimum_spec().known_crn
        graph = species_dependency_graph(crn)
        assert graph.has_edge(Species("X1"), Species("Y"))
        assert is_feed_forward(crn)

    def test_cyclic_network_not_feed_forward(self):
        crn = CRN([X >> Y, Y >> X], (X,), Y)
        assert not is_feed_forward(crn)
