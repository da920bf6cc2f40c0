"""Commit-acknowledgement stages: what may hold back a commit's report.

A root transaction installs its writes in one event (validation and
installation under the commit guard), but the client may hear
"committed" only once every subsystem that promises something about
the commit agrees: the log flush landed (``sync``/``group``
durability), every replica acknowledged (``sync`` replication).  Each
such subsystem is an :class:`AckStage` and registers itself in
``database.ack_stages`` when it is built; the list order is the order
the executor consults and arms the stages (replication, then
durability).  The executor treats every stage the same way:

* :meth:`AckStage.commit_ack_future` runs right after install, under
  the commit guard, and returns the future the report must wait for,
  or ``None`` when the stage has nothing to wait on;
* the executor waits on all returned futures at once, with one
  ``ack_span`` span per stage under the root's ``commit`` span, and
  charges the whole wait to ``commit_input_gen`` once;
* after the wait, :meth:`AckStage.commit_veto` lets a stage turn the
  report into an abort when a participant container failed meanwhile;
* :meth:`AckStage.commit_reported` tells every stage the outcome the
  client heard, for every completed root (waited or not, committed or
  not).
"""

from __future__ import annotations

from typing import Any


class AckStage:
    """One subsystem that can hold back commit acknowledgements."""

    #: Name of the span that covers this stage's wait
    #: (``"<subsystem>:ack_wait"``).
    ack_span: str

    def commit_ack_future(self, root: Any) -> Any:
        """The future a just-installed commit must wait on before it
        is reported, or ``None``."""
        raise NotImplementedError

    def commit_veto(self, root: Any) -> str | None:
        """An abort reason when the waited-on commit must not be
        reported committed, else ``None``."""
        return None

    def commit_reported(self, root: Any, committed: bool) -> None:
        """The root completed and its client heard ``committed``."""
