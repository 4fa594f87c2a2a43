"""Application-operation registry (paper §4.1, Figure 4.1's fourth module).

"The last module, application operations, allows a reversal of roles in
which HiPAC becomes the client and the application becomes the server.
HiPAC allows requests to application programs to be included in the action
for a rule.  When the rule fires and the action is executed, HiPAC will
call the application program to execute the operation."

Applications register under a name (one :class:`~repro.apps.channel.Channel`
per program); rule actions send requests by application + operation name.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional

from repro.apps.channel import Channel, Request
from repro.errors import ApplicationError


class ApplicationRegistry:
    """All application programs known to one HiPAC instance."""

    def __init__(self) -> None:
        self._channels: Dict[str, Channel] = {}
        self._mutex = threading.Lock()
        self.stats = {"requests": 0, "errors": 0}

    def register(self, application: str, *, mailbox: bool = False) -> Channel:
        """Create (or return) the channel for an application program."""
        with self._mutex:
            channel = self._channels.get(application)
            if channel is None:
                channel = Channel(application, mailbox=mailbox)
                self._channels[application] = channel
            return channel

    def unregister(self, application: str) -> None:
        """Remove an application (its channel stops accepting requests)."""
        with self._mutex:
            self._channels.pop(application, None)

    def channel(self, application: str) -> Channel:
        """Return the channel of ``application`` or raise."""
        with self._mutex:
            channel = self._channels.get(application)
        if channel is None:
            raise ApplicationError("no application registered as %r" % application)
        return channel

    def applications(self) -> List[str]:
        """Registered application names, sorted."""
        with self._mutex:
            return sorted(self._channels)

    def request(self, application: str, operation: str,
                args: Optional[Dict[str, Any]] = None, *,
                context: Any = None) -> Any:
        """Send one request from HiPAC to an application program.

        Called by rule actions (:class:`~repro.rules.actions.RequestStep`).
        Returns the application's reply (None in mailbox mode)."""
        channel = self.channel(application)
        request = Request(application, operation, dict(args or {}))
        self.stats["requests"] += 1
        try:
            return channel.dispatch(request)
        except ApplicationError:
            self.stats["errors"] += 1
            raise

    def total_requests(self, application: Optional[str] = None) -> int:
        """Count of requests dispatched (optionally to one application)."""
        with self._mutex:
            channels = list(self._channels.values())
        if application is not None:
            channels = [c for c in channels if c.application == application]
        return sum(len(c.history) for c in channels)
