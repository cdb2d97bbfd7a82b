"""Exact symbolic computation for the twisted and untwisted N=2
superconformal algebras: structure constants, super-PBW straightening,
induced Whittaker-type modules, and executable checks of their degree,
simplicity and annihilator properties.

The package re-exports nothing: import the layer you need
(`n2sca.algebra`, `n2sca.modules`, ...), so that a command loads only
the layers it runs."""
