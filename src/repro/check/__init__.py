"""Correctness tooling: runtime invariant sanitizers + the repo lint.

Two halves:

* :mod:`repro.check.sanitizer` — composable runtime validators for every
  structure in the stack (ART, B+ tree, disk B+ tree + buffer pool, LSM,
  engine-level coherence), orchestrated by :class:`IndexSanitizer` when
  an :class:`~repro.core.indexy.IndeXY` is built with
  ``debug_checks=True`` and by :class:`StoreSanitizer` for the baseline
  systems.
* ``python -m repro.check`` — the static analyser: one engine
  (:mod:`repro.check.engine`), one rule table (:mod:`repro.check.rules`),
  four rule families enforcing the EngineRuntime architecture.

Import what you need from the submodule that defines it; this package
re-exports nothing, so ``repro.check.flags`` (read by every
``build_system``) stays a cheap import.
"""
