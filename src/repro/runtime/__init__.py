"""Execution runtime: executors, containers, tasks, futures.

This package realizes ReactDB's architecture (paper Section 3): a
collection of isolated containers, each with transaction executors
(request queue + cooperative thread pool pinned to a core), transaction
routing, asynchronous sub-transaction dispatch with asymmetric
communication costs, and the dynamic intra-transaction safety
condition.

Everything runs on the one discrete-event scheduler
(:class:`repro.sim.scheduler.SimScheduler`); executors call it
directly.

Public exports: :class:`Container`, :class:`TransactionExecutor` with
its :class:`Invocation` request envelope, :class:`SimFuture`, the
procedure effects (:class:`CallEffect`, :class:`GetEffect`,
:class:`ChargeEffect`), and the root-transaction bookkeeping
(:class:`RootTransaction`, :class:`TxnStats`, :data:`CATEGORIES`).
"""

from repro.runtime.container import Container
from repro.runtime.effects import CallEffect, ChargeEffect, GetEffect
from repro.runtime.executor import Invocation, TransactionExecutor
from repro.runtime.futures import SimFuture
from repro.runtime.transaction import CATEGORIES, RootTransaction, TxnStats

__all__ = [
    "Container",
    "TransactionExecutor",
    "Invocation",
    "SimFuture",
    "CallEffect",
    "GetEffect",
    "ChargeEffect",
    "RootTransaction",
    "TxnStats",
    "CATEGORIES",
]
