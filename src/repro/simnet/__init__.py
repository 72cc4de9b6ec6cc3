"""Discrete-event substrate: the time-ordered :class:`EventQueue` that the
mission runtime (:mod:`repro.ops.mission`) and the dynamics engine
(:mod:`repro.dynamics`) schedule their events on."""

from repro.simnet.events import EventQueue

__all__ = ["EventQueue"]
