"""qdemon: density-matrix toolkit for a purity-swapping qubit channel.

A four-lead scatterer with a qubit micro-environment defines an
energy-conserving, generally non-unital channel that can *decrease* the
entropy of the flying qubit by swapping states with a purer demon qubit.
The package provides the channel and its entropy-gain bound, the concrete
spin and double-dot realisations, the partial-SWAP gate circuits, a double
Mach-Zehnder coherence-restoration test bench, and a two-cycle heat engine
with optimisation of the demon impurity.

The package re-exports nothing; import each name from its module:

- ``qmatrix``: density-matrix primitives, validators and the error types;
- ``spin_demon``: the spin realisation, its demon states and ``scatter``;
- ``channel``: the four-lead channel, ``apply_channel`` and the bound;
- ``circuits``: the gates, the partial SWAP and the double-dot protocol;
- ``interferometer``: the double Mach-Zehnder visibility run;
- ``engine``: the two-cycle engine and its impurity optimisers;
- ``cli``: the ``qdemon`` command line.
"""

__version__ = "0.1.0"
